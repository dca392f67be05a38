"""Byte-for-byte guard on the package's observable outputs.

Pins, against tests/golden.json:

- the JSON form of one spec of every kind, read through the report
  description of a subject that nests it;
- which measure, standardization and bench JSON inputs the CLI accepts,
  with their output, and which it rejects;
- every `$ shapeassoc ...` example of the README, on waves.csv and
  contrast.json, and the README bench config;
- seeded `verify` reports for the 15 measures of acceptance criterion 3 and
  for every case of `coverage_suite()` (as SHA-256 digests of `to_json()`).

Only change golden.json when an output is meant to change. Regenerate it
from the repository root with:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from shapeassoc import (
    AbsSimilarity,
    ArithmeticMean,
    BenchmarkSpec,
    Center,
    CenterScale,
    ComplementDecay,
    CosineStandardized,
    DissimilaritySpec,
    ExpDecay,
    FileDataset,
    GeneralizedMidrange,
    GeneralizedMidrangeCorrelation,
    Max,
    Median,
    Midrange,
    Min,
    MinkowskiBranch,
    MinkowskiContrast,
    MinkowskiDeviation,
    OrderStatistic,
    OrderedWeightedMean,
    Pearson,
    PowerHalf,
    Projection,
    PropertyId,
    Range,
    RationalDecay,
    SimilarityBranch,
    SimilarityComplement,
    SimilarityDifference,
    SimilarityRecipe,
    SyntheticCluster,
    SyntheticDataset,
    TruncatedMean,
    WeightedMean,
    coverage_suite,
    default_grid_measures,
    preset,
    verify,
)
from shapeassoc.axioms import describe_subject
from shapeassoc.bench import benchmark_spec_from_dict, benchmark_spec_to_dict
from shapeassoc.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

WAVES = "a,1,2,3,4,5\nb,2,3,5,5,6\nc,5,4,3,2,1\n"

CONTRAST = {
    "kind": "minkowski-contrast",
    "dissimilarity": {
        "kind": "minkowski",
        "r": 2.0,
        "standardization": {"kind": "preset", "name": "unit-mean"},
    },
    "growth": {"kind": "power-half", "p": 2.0},
}

README_BENCH = {
    "dataset": {"kind": "file", "path": "waves.csv", "delimiter": "comma", "has_ids": True},
    "measures": [
        {
            "name": "median-branch",
            "expect": "all",
            "measure": {
                "kind": "minkowski-branch",
                "dissimilarity": {
                    "kind": "minkowski",
                    "r": 2.0,
                    "standardization": {
                        "kind": "center-scale",
                        "center": {"kind": "median"},
                        "spread": {"kind": "minkowski-deviation", "r": 2.0, "center": {"kind": "median"}},
                    },
                },
                "decay": {"kind": "rational-decay", "k": 1.0},
            },
        }
    ],
    "true_clusters": [["a", "c"], ["b"]],
}

README_COMMANDS = (
    "standardize --input waves.csv --delimiter comma --ids --spec center-mean",
    "assoc --input waves.csv --delimiter comma --ids --measure pearson --x a --y c",
    "assoc --input waves.csv --delimiter comma --ids --measure contrast.json --x a --y b",
    "matrix --input waves.csv --delimiter comma --ids --measure pearson --output assoc.csv",
    "cluster --matrix assoc.csv --format newick",
    "cluster --matrix assoc.csv --format text",
    "axioms --measure pearson --props sam --trials 200 --seed 0",
    "bench --synthetic --seed 0",
    "bench --config bench.json",
)


def _spec_of_every_kind() -> dict[str, object]:
    """Subjects whose descriptions hold one spec of every kind."""
    centrals = {
        "min": Min(),
        "max": Max(),
        "midrange": Midrange(),
        "projection": Projection(3),
        "order-statistic": OrderStatistic(2),
        "median": Median(),
        "truncated-mean": TruncatedMean(2),
        "generalized-midrange": GeneralizedMidrange(1, 3),
        "mean": ArithmeticMean(),
        "weighted-mean": WeightedMean((0.25, 0.75)),
        "ordered-weighted-mean": OrderedWeightedMean((0.5, 0.5)),
    }
    out: dict[str, object] = {
        f"central/{name}": CosineStandardized(Center(c)) for name, c in centrals.items()
    }
    for name, spread in (("range", Range()), ("minkowski-deviation", MinkowskiDeviation(1.5, Median()))):
        out[f"scale/{name}"] = CosineStandardized(CenterScale(Median(), spread))
    unit = preset("unit-gmidrange", r=3.0, k=1, m=3)
    d3 = DissimilaritySpec(3.0, unit)
    recipe = SimilarityRecipe(DissimilaritySpec(1.0, Center(Median())), ExpDecay())
    for name, decay in (
        ("rational-decay", RationalDecay(2.5)),
        ("exp-decay", ExpDecay()),
        ("complement-decay", ComplementDecay(PowerHalf(1.5), 2.0)),
    ):
        out[f"decay/{name}"] = SimilarityComplement(SimilarityRecipe(d3, decay))
    out.update(
        {
            "dissimilarity": d3,
            "similarity-recipe": recipe,
            "measure/minkowski-branch": MinkowskiBranch(d3, RationalDecay(0.5)),
            "measure/minkowski-contrast": MinkowskiContrast(d3, PowerHalf(3.0)),
            "measure/similarity-branch": SimilarityBranch(recipe),
            "measure/similarity-difference": SimilarityDifference(recipe),
            "measure/similarity-complement": SimilarityComplement(recipe),
            "measure/pearson": Pearson(),
            "measure/cosine": CosineStandardized(preset("unit-mean")),
            "measure/gmidrange-correlation": GeneralizedMidrangeCorrelation(1, 3),
            "abs-similarity": AbsSimilarity(Pearson()),
        }
    )
    return out


# (label, CLI arguments before the spec file, JSON written to the spec file)
_ASSOC = ("assoc", "--input", "waves.csv", "--delimiter", "comma", "--ids", "--x", "a", "--y", "b", "--measure")
_STANDARDIZE = ("standardize", "--input", "waves.csv", "--delimiter", "comma", "--ids", "--spec")
_DISSIM = {"r": 2.0, "standardization": "unit-mean"}
INPUTS = (
    ("measure/readme-contrast", _ASSOC, CONTRAST),
    ("measure/shorthand-string", _ASSOC, "pearson"),
    ("measure/defaults", _ASSOC, {"kind": "minkowski-contrast", "dissimilarity": _DISSIM}),
    ("measure/gmidrange-defaults", _ASSOC, {"kind": "gmidrange-correlation"}),
    ("measure/string-int", _ASSOC, {"kind": "gmidrange-correlation", "k": "1", "m": 2}),
    ("measure/projection-center", _ASSOC, {"kind": "cosine", "standardization": {"kind": "center", "center": {"kind": "projection", "k": 2}}}),
    ("measure/weights", _ASSOC, {"kind": "cosine", "standardization": {"kind": "center", "center": {"kind": "weighted-mean", "weights": [0.2, 0.2, 0.2, 0.2, 0.2]}}}),
    ("measure/preset-object", _ASSOC, {"kind": "minkowski-branch", "dissimilarity": {"r": 2.0, "standardization": {"kind": "preset", "name": "unit-gmidrange", "m": 2}}}),
    ("measure/recipe-defaults", _ASSOC, {"kind": "similarity-complement", "recipe": {"dissimilarity": {"r": 1.0, "standardization": {"kind": "center", "center": {"kind": "median"}}}, "decay": {"kind": "exp-decay"}}}),
    ("measure/complement-decay-defaults", _ASSOC, {"kind": "similarity-difference", "recipe": {"dissimilarity": _DISSIM, "decay": {"kind": "complement-decay"}}}),
    ("reject/unknown-key", _ASSOC, {"kind": "pearson", "bogus": 1}),
    ("reject/unknown-kind", _ASSOC, {"kind": "spearman"}),
    ("reject/unknown-shorthand", _ASSOC, "spearman"),
    ("reject/missing-standardization", _ASSOC, {"kind": "cosine"}),
    ("reject/projection-without-k", _ASSOC, {"kind": "cosine", "standardization": {"kind": "center", "center": {"kind": "projection"}}}),
    ("reject/growth-without-kind", _ASSOC, {"kind": "minkowski-contrast", "dissimilarity": _DISSIM, "growth": {"p": 2.0}}),
    ("reject/wrong-dissimilarity-kind", _ASSOC, {"kind": "minkowski-branch", "dissimilarity": {"kind": "euclid", **_DISSIM}}),
    ("reject/wrong-recipe-kind", _ASSOC, {"kind": "similarity-branch", "recipe": {"kind": "other", "dissimilarity": _DISSIM, "decay": {"kind": "exp-decay"}}}),
    ("reject/unknown-preset", _ASSOC, {"kind": "cosine", "standardization": {"kind": "preset", "name": "nope"}}),
    ("reject/invalid-decay", _ASSOC, {"kind": "similarity-complement", "recipe": {"dissimilarity": _DISSIM, "decay": {"kind": "rational-decay", "k": 0}}}),
    ("reject/unsound-contrast", _ASSOC, {"kind": "minkowski-contrast", "dissimilarity": {"r": 2.0, "standardization": "center-mean"}}),
    ("reject/central-extra-key", _ASSOC, {"kind": "cosine", "standardization": {"kind": "center", "center": {"kind": "median", "extra": 1}}}),
    ("reject/list", _ASSOC, ["pearson"]),
    ("reject/number", _ASSOC, 42),
    ("standardization/center-min", _STANDARDIZE, {"kind": "center", "center": {"kind": "min"}}),
    ("standardization/center-scale", _STANDARDIZE, {"kind": "center-scale", "center": {"kind": "mean"}, "spread": {"kind": "range"}}),
    ("standardization/preset-string", _STANDARDIZE, "unit-mean"),
    ("reject/standardization-missing-spread", _STANDARDIZE, {"kind": "center-scale", "center": {"kind": "mean"}}),
    ("reject/standardization-unknown-kind", _STANDARDIZE, {"kind": "scale-only"}),
    ("bench/readme", ("bench", "--config"), README_BENCH),
    ("bench/synthetic-clusters", ("bench", "--config"), {"dataset": {"kind": "synthetic", "seed": 1, "length": 64, "clusters": [{"size": 2}, {"size": 3, "inverted": [True, False, True]}]}, "measures": [{"name": "p", "measure": "pearson", "expect": None}]}),
    ("reject/bench-dataset-unknown-key", ("bench", "--config"), {"dataset": {"kind": "synthetic", "bogus": 1}}),
    ("reject/bench-no-dataset", ("bench", "--config"), {"measures": "default-grid"}),
    ("reject/bench-expectations-with-list", ("bench", "--config"), {"dataset": {"kind": "synthetic"}, "measures": [{"name": "p", "measure": "pearson"}], "expectations": "all"}),
    ("reject/bench-unknown-dataset-kind", ("bench", "--config"), {"dataset": {"kind": "remote"}}),
)

_AXIOM_PROPS = (
    PropertyId.SYMMETRY,
    PropertyId.ASSOC_REFLEXIVITY,
    PropertyId.INVERSE_REFLEXIVITY,
    PropertyId.INVERSE_RELATIONSHIP,
    PropertyId.TRANSLATION_INVARIANCE,
    PropertyId.AFFINE_SIGN_RULE,
    PropertyId.RANGE_BOUNDS,
)


def _criterion_3_subjects():
    subjects = [
        ("pearson", Pearson()),
        ("cosine", CosineStandardized(preset("unit-mean"))),
        ("gmidrange-correlation", GeneralizedMidrangeCorrelation(0, 2)),
    ]
    return subjects + [(bm.name, bm.measure) for bm in default_grid_measures(None)]


@contextlib.contextmanager
def _workdir():
    """A scratch directory holding waves.csv, contrast.json and bench.json."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("waves.csv").write_text(WAVES)
            Path("contrast.json").write_text(json.dumps(CONTRAST, indent=2))
            Path("bench.json").write_text(json.dumps(README_BENCH, indent=2))
            yield Path(tmp)
        finally:
            os.chdir(old)


def _cli(argv) -> str:
    """Exit code and stdout of one CLI run; stderr is not pinned."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return f"exit {code}\n{out.getvalue()}"


def spec_forms() -> dict[str, str]:
    return {name: json.dumps(describe_subject(s)) for name, s in _spec_of_every_kind().items()}


def input_outcomes() -> dict[str, str]:
    out = {}
    with _workdir():
        for label, argv, payload in INPUTS:
            Path("spec.json").write_text(json.dumps(payload))
            out[label] = _cli(argv + ("spec.json",))
    return out


def readme_outputs() -> dict[str, str]:
    out = {}
    with _workdir():
        for command in README_COMMANDS:
            out[command] = _cli(command.split())
            if "--output" in command:
                out[command] += Path("assoc.csv").read_text()
    spec = benchmark_spec_from_dict(README_BENCH)
    out["bench config round trip"] = json.dumps(benchmark_spec_to_dict(spec))
    synthetic = BenchmarkSpec(
        SyntheticDataset(3, 64, 0.1, (SyntheticCluster(2, (False, True)), SyntheticCluster(3))),
        default_grid_measures("real-data"),
        (("s1", "s2"), ("s3", "s4", "s5")),
    )
    out["bench spec to dict"] = json.dumps(benchmark_spec_to_dict(synthetic))
    out["file dataset"] = json.dumps(
        benchmark_spec_to_dict(BenchmarkSpec(FileDataset("x.txt", "tab", "rows", True), spec.measures))
    )
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verify_digests() -> dict[str, str]:
    out = {
        f"criterion-3/{name}": _digest(verify(s, _AXIOM_PROPS, trials=50, seed=0).to_json())
        for name, s in _criterion_3_subjects()
    }
    for case in coverage_suite():
        report = verify(case.subject, (case.property,), trials=120, seed=0)
        out[f"coverage/{case.label}/{report.subject.get('name', report.subject['kind'])}"] = _digest(
            report.to_json()
        )
    return out


SECTIONS = {
    "spec_forms": spec_forms,
    "input_outcomes": input_outcomes,
    "readme_outputs": readme_outputs,
    "verify_digests": verify_digests,
}


def _check(section: str) -> None:
    expected = json.loads(GOLDEN.read_text())[section]
    got = SECTIONS[section]()
    assert sorted(got) == sorted(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, {key: (expected[key], got[key]) for key in changed}


def test_spec_forms():
    _check("spec_forms")


def test_input_outcomes():
    _check("input_outcomes")
    outcomes = json.loads(GOLDEN.read_text())["input_outcomes"]
    for label, text in outcomes.items():
        assert text.startswith("exit 1\n") == label.startswith("reject/"), label


def test_projection_without_k_names_the_missing_key(capsys):
    with _workdir():
        Path("spec.json").write_text(json.dumps({label: p for label, _, p in INPUTS}["reject/projection-without-k"]))
        assert main(list(_ASSOC) + ["spec.json"]) == 1
    assert "missing required key" in capsys.readouterr().err


def test_readme_outputs():
    _check("readme_outputs")


def test_verify_digests():
    _check("verify_digests")


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: fn() for name, fn in SECTIONS.items()}, indent=1, sort_keys=True) + "\n"
    )
    sys.stdout.write(f"wrote {GOLDEN}\n")
