"""Clustering benchmark: do dendrograms recover known groups?

A benchmark takes a dataset with known true clusters, builds the absolute
association matrix for each configured measure, runs single linkage, and
checks which true clusters appear as dendrogram nodes. Per-measure
expectations ("all" true clusters contained, or explicitly "not-all") make
the benchmark a regression test for measure quality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .cluster import SimilarityMatrix, contains_cluster, single_linkage
from .config import from_dict, to_dict
from .datasets import parse_dataset
from .errors import SpecError
from .estimates import (
    ArithmeticMean,
    GeneralizedMidrange,
    Median,
    Midrange,
    MinkowskiDeviation,
    Projection,
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


class DatasetSpec:
    """Family base: where a benchmark's series come from.

    `load()` returns the series set and the planted cluster id sets, or None
    when the dataset does not know its clusters.
    """

    tag: ClassVar[str]


@dataclass(frozen=True)
class FileDataset(DatasetSpec):
    tag = "file"
    path: str
    delimiter: str = "whitespace"
    orientation: str = "auto"
    has_ids: bool = False

    def load(self) -> tuple[SeriesSet, None]:
        return parse_dataset(self.path, self.delimiter, self.orientation, self.has_ids), None


@dataclass(frozen=True)
class SyntheticCluster:
    size: int
    inverted: tuple[bool, ...] = ()

    def __post_init__(self):
        if self.size < 2:
            raise SpecError(f"synthetic cluster size must be >= 2, got {self.size}")
        inv = tuple(bool(b) for b in self.inverted)
        if not inv:
            inv = (False,) * self.size
        if len(inv) != self.size:
            raise SpecError(
                f"inverted flags length {len(inv)} does not match cluster size {self.size}"
            )
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

    def __post_init__(self):
        if self.length < 8:
            raise SpecError(f"synthetic length must be >= 8, got {self.length}")
        if not 0.0 <= self.noise_scale < 1.0:
            raise SpecError(f"noise scale must be in [0, 1), got {self.noise_scale!r}")
        if not self.clusters:
            raise SpecError("synthetic dataset needs at least one cluster")
        object.__setattr__(self, "clusters", tuple(self.clusters))

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
class BenchmarkMeasure:
    name: str
    measure: MeasureSpec
    expect: str | None = None  # "all" | "not-all" | None

    def __post_init__(self):
        if self.expect not in (None, "all", "not-all"):
            raise SpecError(f"expectation must be 'all', 'not-all' or null, got {self.expect!r}")


@dataclass(frozen=True)
class BenchmarkSpec:
    dataset: DatasetSpec
    measures: tuple[BenchmarkMeasure, ...]
    true_clusters: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        if not self.measures:
            raise SpecError("benchmark needs at least one measure")
        names = [m.name for m in self.measures]
        if len(set(names)) != len(names):
            raise SpecError("benchmark measure names must be unique")
        object.__setattr__(self, "measures", tuple(self.measures))
        if self.true_clusters is not None:
            object.__setattr__(
                self, "true_clusters", tuple(tuple(c) for c in self.true_clusters)
            )


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
    reference benchmark), or an explicit name -> expectation dict.
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
        return {
            "name": self.name,
            "status": self.status,
            "expect": self.expect,
            "containment": [
                {"cluster": list(cluster), "contained": contained}
                for cluster, contained in self.containment
            ],
            "contains_all": self.contains_all,
            "expectation_met": self.expectation_met,
            "detail": self.detail,
        }


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
        return {
            "dataset": self.dataset,
            "ids": list(self.ids),
            "true_clusters": [list(c) for c in self.true_clusters],
            "constant_series": list(self.constant_series),
            "measures": [o.to_dict() for o in self.outcomes],
            "all_expectations_met": self.passed(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

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
        true_clusters = tuple(tuple(c) for c in spec.true_clusters)
    elif planted is not None:
        true_clusters = tuple(tuple(sorted(c, key=data.ids.index)) for c in planted)
    else:
        raise SpecError("file datasets need explicit true_clusters")
    known = set(data.ids)
    for cluster in true_clusters:
        if len(cluster) < 1:
            raise SpecError("true clusters must not be empty")
        missing = set(cluster) - known
        if missing:
            raise SpecError(f"true cluster references unknown ids: {sorted(missing)}")

    constants = constant_ids(data)
    outcomes = []
    for bm in spec.measures:
        if constants:
            outcomes.append(
                MeasureOutcome(
                    name=bm.name,
                    status="skipped",
                    expect=bm.expect,
                    containment=(),
                    contains_all=None,
                    expectation_met=False,
                    detail=f"constant series present: {', '.join(constants)}",
                )
            )
            continue
        assoc = association_matrix(bm.measure, data)
        sim = SimilarityMatrix.from_association(assoc.ids, assoc.values)
        tree = single_linkage(sim)
        containment = tuple(
            (cluster, contains_cluster(tree, cluster)) for cluster in true_clusters
        )
        contains_all = all(contained for _, contained in containment)
        if bm.expect is None:
            met = True
        elif bm.expect == "all":
            met = contains_all
        else:
            met = not contains_all
        outcomes.append(
            MeasureOutcome(
                name=bm.name,
                status="ok",
                expect=bm.expect,
                containment=containment,
                contains_all=contains_all,
                expectation_met=met,
            )
        )
    return BenchmarkReport(
        dataset=to_dict(spec.dataset),
        ids=data.ids,
        true_clusters=true_clusters,
        constant_series=constants,
        outcomes=tuple(outcomes),
    )


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


def benchmark_spec_to_dict(spec: BenchmarkSpec) -> dict:
    out = {
        "dataset": to_dict(spec.dataset),
        "measures": [
            {"name": m.name, "expect": m.expect, "measure": to_dict(m.measure)}
            for m in spec.measures
        ],
    }
    if spec.true_clusters is not None:
        out["true_clusters"] = [list(c) for c in spec.true_clusters]
    return out
