"""Clustering benchmark: do dendrograms recover known groups?

A benchmark takes a dataset with known true clusters, builds the absolute
association matrix for each configured measure, runs single linkage, and
checks which true clusters appear as dendrogram nodes. Per-measure
expectations ("all" true clusters contained, or explicitly "not-all") make
the benchmark a regression test for measure quality.
"""

import json
from dataclasses import dataclass

import numpy as np

from .cluster import SimilarityMatrix, contains_cluster, single_linkage
from .config import from_dict, to_dict, to_json
from .datasets import _check_layout, parse_dataset
from .errors import SpecError
from .estimates import (
    ArithmeticMean,
    GeneralizedMidrange,
    Median,
    Midrange,
    MinkowskiDeviation,
    Projection,
    Spec,
    TruncatedMean,
)
from .measures import (
    DissimilaritySpec,
    MeasureSpec,
    MinkowskiBranch,
    MinkowskiContrast,
    PowerHalf,
    RationalDecay,
    association_matrix,
    constant_ids,
)
from .series import SeriesSet, load_set
from .standardize import CenterScale


class DatasetSpec(Spec):
    """Family base: where a benchmark's series come from.

    `load()` returns the series set and the planted cluster id sets, or None
    when the dataset does not know its clusters.
    """


@dataclass(frozen=True)
class FileDataset(DatasetSpec):
    tag = "file"
    path: str
    delimiter: str = "whitespace"
    orientation: str = "auto"
    has_ids: bool = False

    def _validate(self):
        _check_layout(self.delimiter, self.orientation)

    def load(self) -> tuple[SeriesSet, None]:
        return parse_dataset(self.path, self.delimiter, self.orientation, self.has_ids), None


@dataclass(frozen=True)
class SyntheticCluster(Spec):
    size: int
    inverted: tuple[bool, ...] = ()

    def _validate(self):
        if self.size < 2:
            raise SpecError(f"synthetic cluster size must be >= 2, got {self.size}")
        inv = self.inverted or (False,) * self.size
        if len(inv) != self.size:
            raise SpecError(f"inverted flags length {len(inv)} does not match cluster size {self.size}")
        object.__setattr__(self, "inverted", inv)


DEFAULT_CLUSTERS = (
    SyntheticCluster(4, (False, False, True, True)),
    SyntheticCluster(3, (False, True, False)),
    SyntheticCluster(3),
    SyntheticCluster(2, (False, True)),
    SyntheticCluster(2),
)


@dataclass(frozen=True)
class SyntheticDataset(DatasetSpec):
    """Planted-cluster generator: each cluster is affine copies of one shape.

    Cluster base shapes are sums of three sinusoids whose integer frequencies
    are disjoint across clusters, so shapes from different clusters are close
    to orthogonal. Members apply p * base + q with |p| in [0.5, 2] (negative
    for inverted members) plus uniform noise of amplitude
    noise_scale * range of the scaled base.
    """

    tag = "synthetic"
    seed: int = 0
    length: int = 365
    noise_scale: float = 0.05
    clusters: tuple[SyntheticCluster, ...] = DEFAULT_CLUSTERS

    def _validate(self):
        if self.seed < 0:
            raise SpecError(f"synthetic seed must be >= 0, got {self.seed}")
        if self.length < 8:
            raise SpecError(f"synthetic length must be >= 8, got {self.length}")
        if not 0.0 <= self.noise_scale < 1.0:
            raise SpecError(f"noise scale must be in [0, 1), got {self.noise_scale!r}")
        if not self.clusters:
            raise SpecError("synthetic dataset needs at least one cluster")

    def load(self) -> tuple[SeriesSet, tuple[frozenset, ...]]:
        return generate_synthetic(self)


def generate_synthetic(spec: SyntheticDataset) -> tuple[SeriesSet, tuple[frozenset, ...]]:
    """Deterministic series set plus the planted cluster id sets."""
    rng = np.random.default_rng(spec.seed)
    n = spec.length
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    count = len(spec.clusters)
    pool = rng.permutation(np.arange(2, 2 + 3 * count))
    rows = []
    planted = []
    next_id = 1
    for c, cluster in enumerate(spec.clusters):
        freqs = pool[3 * c : 3 * c + 3]
        amps = rng.uniform(0.5, 1.5, 3)
        phases = rng.uniform(0.0, 2.0 * np.pi, 3)
        base = np.zeros(n)
        for a, f, ph in zip(amps, freqs, phases):
            base += a * np.sin(f * t + ph)
        base_range = float(base.max() - base.min())
        member_ids = []
        for inverted in cluster.inverted:
            p = rng.uniform(0.5, 2.0)
            if inverted:
                p = -p
            q = rng.uniform(-5.0, 5.0)
            noise = rng.uniform(-1.0, 1.0, n) * spec.noise_scale * abs(p) * base_range
            rows.append(p * base + q + noise)
            member_ids.append(f"s{next_id}")
            next_id += 1
        planted.append(frozenset(member_ids))
    return load_set(rows), tuple(planted)


@dataclass(frozen=True)
class BenchmarkMeasure(Spec):
    name: str
    measure: MeasureSpec
    expect: str | None = None  # "all" | "not-all" | None

    def _validate(self):
        if self.expect not in (None, "all", "not-all"):
            raise SpecError(f"expectation must be 'all', 'not-all' or null, got {self.expect!r}")


@dataclass(frozen=True)
class BenchmarkSpec(Spec):
    dataset: DatasetSpec
    measures: tuple[BenchmarkMeasure, ...]
    true_clusters: tuple[tuple[str, ...], ...] | None = None

    def _validate(self):
        if not self.measures:
            raise SpecError("benchmark needs at least one measure")
        names = [m.name for m in self.measures]
        if len(set(names)) != len(names):
            raise SpecError("benchmark measure names must be unique")


_GRID_CENTERS = (
    ("midrange", Midrange()),
    ("projection2", Projection(2)),
    ("median", Median()),
    ("truncmean2", TruncatedMean(2)),
    ("gmidrange02", GeneralizedMidrange(0, 2)),
    ("mean", ArithmeticMean()),
)

# centers whose dendrograms recover every reference group on the real
# 14-series benchmark; the other three are the documented negatives
_STRONG_CENTERS = ("midrange", "median", "gmidrange02")


def default_grid_measures(expectations: dict[str, str] | str | None = "all") -> tuple[BenchmarkMeasure, ...]:
    """The 6 x 2 benchmark grid: every catalog center, both constructions.

    expectations: "all" (every measure must contain all true clusters), None
    (no expectations), "real-data" (the containment pattern observed on the
    reference benchmark), or an explicit name -> expectation dict whose
    names must all be grid measures.
    """
    out = []
    for center_name, center in _GRID_CENTERS:
        std = CenterScale(center, MinkowskiDeviation(2.0, center))
        dissim = DissimilaritySpec(2.0, std)
        variants = (
            (f"branch-{center_name}", MinkowskiBranch(dissim, RationalDecay(1.0))),
            (f"contrast-{center_name}", MinkowskiContrast(dissim, PowerHalf(2.0))),
        )
        for name, measure in variants:
            if expectations == "real-data":
                expect = "all" if center_name in _STRONG_CENTERS else "not-all"
            elif isinstance(expectations, dict):
                expect = expectations.get(name)
            else:
                expect = expectations
            out.append(BenchmarkMeasure(name, measure, expect))
    names = {m.name for m in out}
    if isinstance(expectations, dict) and not names.issuperset(expectations):
        raise SpecError(f"expectations name no grid measure: {sorted(set(expectations) - names)}")
    return tuple(out)


def default_synthetic_spec(seed: int = 0) -> BenchmarkSpec:
    """The stock benchmark: planted clusters, full grid, everything must hold."""
    return BenchmarkSpec(
        dataset=SyntheticDataset(seed=seed),
        measures=default_grid_measures("all"),
    )


@dataclass(frozen=True)
class MeasureOutcome:
    name: str
    status: str  # "ok" | "skipped"
    expect: str | None
    containment: tuple[tuple[tuple[str, ...], bool], ...]
    contains_all: bool | None
    expectation_met: bool
    detail: str = ""

    def to_dict(self) -> dict:
        """Fields with each containment pair as {"cluster", "contained"}."""
        containment = [{"cluster": list(c), "contained": hit} for c, hit in self.containment]
        return {**to_dict(self), "containment": containment}


@dataclass(frozen=True)
class BenchmarkReport:
    dataset: dict
    ids: tuple[str, ...]
    true_clusters: tuple[tuple[str, ...], ...]
    constant_series: tuple[str, ...]
    outcomes: tuple[MeasureOutcome, ...]

    def passed(self) -> bool:
        return all(o.expectation_met for o in self.outcomes)

    def to_dict(self) -> dict:
        """Fields with the outcomes as "measures", plus "all_expectations_met"."""
        out = to_dict(self)
        out["measures"] = out.pop("outcomes")
        out["all_expectations_met"] = self.passed()
        return out

    def to_json(self) -> str:
        return to_json(self)

    def to_text(self) -> str:
        lines = [
            f"dataset: {json.dumps(self.dataset, sort_keys=True)}",
            f"series: {len(self.ids)}, true clusters: {len(self.true_clusters)}",
        ]
        if self.constant_series:
            lines.append(f"constant series (runs skipped): {', '.join(self.constant_series)}")
        for o in self.outcomes:
            if o.status == "skipped":
                lines.append(f"{o.name:<24} skipped ({o.detail})")
                continue
            got = "all" if o.contains_all else "not-all"
            verdict = "ok" if o.expectation_met else "UNEXPECTED"
            expect = o.expect if o.expect is not None else "-"
            lines.append(
                f"{o.name:<24} contains={got:<8} expect={expect:<8} {verdict}"
            )
        lines.append(f"all expectations met: {'yes' if self.passed() else 'NO'}")
        return "\n".join(lines) + "\n"


def run_benchmark(spec: BenchmarkSpec) -> BenchmarkReport:
    """Evaluate every configured measure; constant series skip the runs."""
    data, planted = spec.dataset.load()
    if spec.true_clusters is not None:
        true_clusters = spec.true_clusters
    elif planted is not None:
        true_clusters = tuple(tuple(sorted(c, key=data.ids.index)) for c in planted)
    else:
        raise SpecError("file datasets need explicit true_clusters")
    for cluster in true_clusters:
        if not cluster:
            raise SpecError("true clusters must not be empty")
        if missing := sorted(set(cluster) - set(data.ids)):
            raise SpecError(f"true cluster references unknown ids: {missing}")

    constants = constant_ids(data)
    skip = f"constant series present: {', '.join(constants)}" if constants else ""
    return BenchmarkReport(
        dataset=to_dict(spec.dataset),
        ids=data.ids,
        true_clusters=true_clusters,
        constant_series=constants,
        outcomes=tuple(_outcome(bm, data, true_clusters, skip) for bm in spec.measures),
    )


def _outcome(bm: BenchmarkMeasure, data: SeriesSet, true_clusters, skip: str) -> MeasureOutcome:
    """The containment of each true cluster under one measure; a skipped run,
    which meets no expectation, when `skip` gives the reason."""
    containment, contains_all = (), None
    if not skip:
        assoc = association_matrix(bm.measure, data)
        tree = single_linkage(SimilarityMatrix.from_association(assoc.ids, assoc.values))
        containment = tuple((cluster, contains_cluster(tree, cluster)) for cluster in true_clusters)
        contains_all = all(contained for _, contained in containment)
    met = not skip and (bm.expect is None or contains_all == (bm.expect == "all"))
    status = "skipped" if skip else "ok"
    return MeasureOutcome(bm.name, status, bm.expect, containment, contains_all, met, skip)


# --- JSON configuration ----------------------------------------------------------


def benchmark_spec_from_dict(d: dict) -> BenchmarkSpec:
    if not isinstance(d, dict):
        raise SpecError(f"benchmark config must be an object, got {d!r}")
    d = dict(d)
    if "dataset" not in d:
        raise SpecError("benchmark config needs a 'dataset' entry")
    measures = d.pop("measures", "default-grid")
    if measures == "default-grid":
        expectations = d.pop("expectations", "all")
        if expectations is not None and not isinstance(expectations, (str, dict)):
            raise SpecError("expectations must be a string, object, or null")
        measures = default_grid_measures(expectations)
    elif "expectations" in d:
        raise SpecError("'expectations' only applies to the default grid")
    elif not isinstance(measures, list) or not measures:
        raise SpecError("measures must be 'default-grid' or a non-empty list")
    return from_dict({**d, "measures": measures}, BenchmarkSpec)

