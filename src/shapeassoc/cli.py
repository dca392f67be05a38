"""Command line interface.

Subcommands: standardize, assoc, matrix, cluster, axioms, bench.
Exit codes: 0 success, 1 bad input or configuration, 2 a verification or
benchmark expectation failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import axioms as ax
from .bench import benchmark_spec_from_dict, default_synthetic_spec, run_benchmark
from .cluster import SimilarityMatrix, single_linkage
from .config import MEASURE_SHORTHANDS, from_dict
from .datasets import (
    format_matrix_csv,
    format_series_csv,
    parse_dataset,
    read_matrix_csv,
    write_text,
)
from .errors import ShapeAssocError, SpecError
from .measures import MeasureSpec, associate, association_matrix
from .series import SeriesSet
from .standardize import PRESETS, Standardization, standardize


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ShapeAssocError(f"{path}: invalid JSON: {exc}") from None


def _spec_from_arg(arg: str, family):
    """A spec of `family` named by `arg`, a name winning over a file, else read from file `arg`."""
    names = MEASURE_SHORTHANDS if family is MeasureSpec else PRESETS
    if arg in names or not Path(arg).exists():
        return from_dict(arg, family)  # an unknown name fails listing the known ones
    return from_dict(_load_json(arg), family)


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="dataset file")
    p.add_argument("--delimiter", default="whitespace", choices=("comma", "tab", "whitespace"))
    p.add_argument("--orientation", default="auto", choices=("rows", "columns", "auto"))
    p.add_argument("--ids", action="store_true", help="dataset carries series ids")


def _read_dataset(args) -> SeriesSet:
    return parse_dataset(args.input, args.delimiter, args.orientation, args.ids)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        write_text(output, text)


class _Parser(argparse.ArgumentParser):
    # bad usage is a validation error: exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shapeassoc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("standardize", parents=[], help="standardize every series in a dataset")
    _add_dataset_args(p)
    p.add_argument("--spec", required=True, help="preset name or standardization JSON file")
    p.add_argument("--output", default=None, help="output CSV (default stdout)")

    p = sub.add_parser("assoc", help="association of one series pair")
    _add_dataset_args(p)
    p.add_argument("--measure", required=True, help="shorthand or measure JSON file")
    p.add_argument("--x", required=True, help="first series id")
    p.add_argument("--y", required=True, help="second series id")

    p = sub.add_parser("matrix", help="pairwise association matrix as CSV")
    _add_dataset_args(p)
    p.add_argument("--measure", required=True)
    p.add_argument("--output", default=None)

    p = sub.add_parser("cluster", help="single-linkage dendrogram from a matrix CSV")
    p.add_argument("--matrix", required=True, help="association or similarity matrix CSV")
    p.add_argument("--format", default="newick", choices=("newick", "text", "json"))
    p.add_argument("--output", default=None)

    p = sub.add_parser("axioms", help="verify measure properties on random series")
    p.add_argument("--measure", required=True)
    p.add_argument("--props", default="all", help="'all', 'sam', or comma-separated property ids")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=60)
    p.add_argument("--json", dest="json_path", default=None, help="also write the JSON report here")

    p = sub.add_parser("bench", help="clustering benchmark against known clusters")
    p.add_argument("--config", default=None, help="benchmark JSON config")
    p.add_argument("--synthetic", action="store_true", help="run the default synthetic benchmark")
    p.add_argument("--seed", type=int, default=0, help="seed for --synthetic")
    p.add_argument("--json", dest="json_path", default=None)
    p.add_argument("--output", default=None, help="text report file (default stdout)")
    return parser


def _parse_props(raw: str) -> tuple[ax.PropertyId, ...] | None:
    if raw == "all":
        return None
    if raw == "sam":
        return ax.SAM_PROPERTIES
    ids = {p.value: p for p in ax.PropertyId}
    tokens = [token.strip() for token in raw.split(",")]
    unknown = [token for token in tokens if token not in ids]
    if unknown:
        # name a token that is no id at all before an 'all' or 'sam' in a list
        bad = next((token for token in unknown if token not in ("all", "sam")), unknown[0])
        what = "must stand alone" if bad in ("all", "sam") else "is not a property id"
        valid = ", ".join(ids)
        raise SpecError(f"--props: {bad!r} {what}; use 'all' or 'sam' alone, or a list of: {valid}")
    return tuple(ids[token] for token in tokens)


def _cmd_standardize(args) -> int:
    spec = _spec_from_arg(args.spec, Standardization)
    data = _read_dataset(args)
    out = SeriesSet(tuple(standardize(spec, s) for s in data))
    _emit(format_series_csv(out), args.output)
    return 0


def _cmd_assoc(args) -> int:
    measure = _spec_from_arg(args.measure, MeasureSpec)
    data = _read_dataset(args)
    for wanted in (args.x, args.y):
        if wanted not in data:
            raise ShapeAssocError(f"no series with id {wanted!r} in {args.input}")
    value = associate(measure, data[args.x], data[args.y])
    sys.stdout.write(f"{value!r}\n")
    return 0


def _cmd_matrix(args) -> int:
    measure = _spec_from_arg(args.measure, MeasureSpec)
    data = _read_dataset(args)
    assoc = association_matrix(measure, data)
    _emit(format_matrix_csv(assoc.ids, assoc.values), args.output)
    return 0


def _cmd_cluster(args) -> int:
    ids, values = read_matrix_csv(args.matrix)
    sim = SimilarityMatrix.from_association(ids, values)
    tree = single_linkage(sim)
    if args.format == "newick":
        text = tree.to_newick() + "\n"
    elif args.format == "text":
        text = tree.to_text()
    else:
        text = tree.to_json() + "\n"
    _emit(text, args.output)
    return 0


def _cmd_axioms(args) -> int:
    measure = _spec_from_arg(args.measure, MeasureSpec)
    props = _parse_props(args.props)
    report = ax.verify(
        measure,
        properties=props,
        trials=args.trials,
        n_range=(args.n_min, args.n_max),
        seed=args.seed,
        tol=args.tol,
    )
    sys.stdout.write(report.to_text())
    if args.json_path:
        write_text(args.json_path, report.to_json() + "\n")
    return 0 if report.passed() else 2


def _cmd_bench(args) -> int:
    if bool(args.config) == bool(args.synthetic):
        raise ShapeAssocError("pass exactly one of --config or --synthetic")
    if args.synthetic:
        spec = default_synthetic_spec(args.seed)
    else:
        spec = benchmark_spec_from_dict(_load_json(args.config))
    report = run_benchmark(spec)
    _emit(report.to_text(), args.output)
    if args.json_path:
        write_text(args.json_path, report.to_json() + "\n")
    return 0 if report.passed() else 2


_COMMANDS = {
    "standardize": _cmd_standardize,
    "assoc": _cmd_assoc,
    "matrix": _cmd_matrix,
    "cluster": _cmd_cluster,
    "axioms": _cmd_axioms,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # numpy's overflow warnings would precede the error line; every
        # non-finite result already raises an error that names its cause
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except (ShapeAssocError, ValueError, OSError) as exc:
        sys.stderr.write(f"shapeassoc: error: {exc}\n")
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
