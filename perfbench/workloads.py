"""The benchmark's workloads: set-up, one timed job, and the output checks.

Constructing a workload is its set-up. It imports what it needs through
`importlib`, so the runner can time a fresh import of the package, and the
job reaches every function through its module, so a wrapper the tracer
installs is seen on the next call. `job()` returns the output and the wall
time of any named stage; `check(output)` returns what is wrong with it;
`summary(output)` is what two jobs on the same inputs must agree on.
"""

from __future__ import annotations

import importlib
import math
import time
from typing import NamedTuple

import numpy as np


def _package(name: str):
    return importlib.import_module(f"shapeassoc.{name}")


class GridLong:
    """`bench.run_benchmark` on long planted series over the 12-measure grid."""

    name = "grid-long"
    why = (
        "k=30 series at n=4000 over the 12-measure grid: per-series sorts and "
        "standardizations dominate, 4 standardizations per pair and measure"
    )

    def __init__(self, seed: int, clusters: int = 10, length: int = 4000):
        b = self.bench = _package("bench")
        member = b.SyntheticCluster(3, (False, False, True))
        self.spec = b.BenchmarkSpec(
            dataset=b.SyntheticDataset(seed=seed, length=length, clusters=(member,) * clusters),
            measures=b.default_grid_measures("all"),
        )

    def job(self):
        return self.bench.run_benchmark(self.spec), {}

    def summary(self, report) -> str:
        return report.to_json()

    def check(self, report) -> list[str]:
        problems = []
        if len(report.outcomes) != len(self.spec.measures):
            problems.append(f"{len(report.outcomes)} outcomes for {len(self.spec.measures)} measures")
        if not report.passed():
            missed = [o.name for o in report.outcomes if not o.expectation_met]
            problems.append(f"expectations not met: {', '.join(missed)}")
        return problems


class WideShortOutput(NamedTuple):
    matrix_csv: str
    ids: tuple
    values: np.ndarray
    tree: object
    newick: str


class WideShort:
    """The CLI `matrix` then `cluster` commands, in process on in-memory text."""

    name = "wide-short"
    why = (
        "k=200 series at n=256 through CLI matrix and cluster: the O(k^3) single "
        "linkage and the per-pair Pearson loop dominate; no estimate is called"
    )

    def __init__(self, seed: int, clusters: int = 40, length: int = 256):
        bench = _package("bench")
        self.datasets = _package("datasets")
        self.measures = _package("measures")
        self.cluster = _package("cluster")
        member = bench.SyntheticCluster(5, (False, False, False, True, True))
        data, self.planted = bench.generate_synthetic(
            bench.SyntheticDataset(seed=seed, length=length, clusters=(member,) * clusters)
        )
        self.ids = data.ids
        self.rows = np.array([s.values for s in data])
        self.text = self.datasets.format_series_csv(data)
        self.pearson = self.measures.Pearson()

    def job(self):
        d, c = self.datasets, self.cluster
        t0 = time.perf_counter()
        # shapeassoc matrix --input data.csv --delimiter comma --ids --measure pearson
        data = d.parse_dataset_text(self.text, "comma", "auto", True)
        assoc = self.measures.association_matrix(self.pearson, data)
        matrix_csv = d.format_matrix_csv(assoc.ids, assoc.values)
        t1 = time.perf_counter()
        # shapeassoc cluster --matrix matrix.csv
        ids, values = d.parse_matrix_csv_text(matrix_csv)
        tree = c.single_linkage(c.SimilarityMatrix.from_association(ids, values))
        newick = tree.to_newick() + "\n"
        t2 = time.perf_counter()
        out = WideShortOutput(matrix_csv, ids, values, tree, newick)
        return out, {"matrix_s": t1 - t0, "cluster_s": t2 - t1}

    def summary(self, out: WideShortOutput) -> tuple:
        return out.matrix_csv, out.newick

    def check(self, out: WideShortOutput) -> list[str]:
        import networkx as nx

        problems = []
        if tuple(out.ids) != tuple(self.ids):
            return ["matrix ids differ from the input ids"]
        worst = float(np.max(np.abs(out.values - np.corrcoef(self.rows))))
        if not worst <= 1e-12:
            problems.append(f"Pearson matrix is {worst:.3e} from np.corrcoef")

        sim = np.abs(out.values)
        graph = nx.Graph()
        k = len(out.ids)
        graph.add_weighted_edges_from(
            (i, j, float(sim[i, j])) for i in range(k) for j in range(i + 1, k)
        )
        mst = sorted(
            (w for _, _, w in nx.maximum_spanning_tree(graph).edges(data="weight")),
            reverse=True,
        )
        levels = [m.level for m in out.tree.merges]
        if len(levels) != len(mst) or not np.allclose(levels, mst, rtol=0.0, atol=1e-12):
            problems.append("dendrogram levels differ from the maximum spanning tree of |A|")

        nodes = {frozenset(m.left + m.right) for m in out.tree.merges}
        lost = [sorted(c) for c in self.planted if c not in nodes]
        if lost:
            problems.append(f"{len(lost)} planted clusters are not dendrogram nodes: {lost[:3]}")
        if not out.newick.endswith(";\n") or any(i not in out.newick for i in self.ids):
            problems.append("newick output does not name every series")
        return problems


class Axioms:
    """`axioms.verify` over the 15 subjects of acceptance criterion 3."""

    name = "axioms"
    why = (
        "axioms.verify on 15 measures at 50 trials, n in 3..60: the same measure "
        "code as grid-long on tiny series, so per-call dispatch dominates"
    )

    def __init__(self, seed: int, trials: int = 50, n_range: tuple[int, int] = (3, 60)):
        sa = importlib.import_module("shapeassoc")
        self.axioms = _package("axioms")
        self.seed, self.trials, self.n_range = seed, trials, n_range
        P = sa.PropertyId
        self.props = (
            P.SYMMETRY,
            P.ASSOC_REFLEXIVITY,
            P.INVERSE_REFLEXIVITY,
            P.INVERSE_RELATIONSHIP,
            P.TRANSLATION_INVARIANCE,
            P.AFFINE_SIGN_RULE,
            P.RANGE_BOUNDS,
        )
        self.subjects = [
            ("pearson", sa.Pearson()),
            ("cosine", sa.CosineStandardized(sa.preset("unit-mean"))),
            ("gmidrange-correlation", sa.GeneralizedMidrangeCorrelation(0, 2)),
        ]
        centers = (
            ("midrange", sa.Midrange()),
            ("median", sa.Median()),
            ("truncmean2", sa.TruncatedMean(2)),
            ("gmidrange02", sa.GeneralizedMidrange(0, 2)),
            ("mean", sa.ArithmeticMean()),
            ("projection2", sa.Projection(2)),
        )
        for name, center in centers:
            dissim = sa.DissimilaritySpec(
                2.0, sa.CenterScale(center, sa.MinkowskiDeviation(2.0, center))
            )
            self.subjects.append((f"branch-{name}", sa.MinkowskiBranch(dissim, sa.RationalDecay(1.0))))
            self.subjects.append((f"contrast-{name}", sa.MinkowskiContrast(dissim, sa.PowerHalf(2.0))))
        # the branch form over the non-odd Min centering must be caught
        self.probe = sa.SimilarityBranch(
            sa.SimilarityRecipe(sa.DissimilaritySpec(2.0, sa.Center(sa.Min())), sa.RationalDecay(1.0))
        )
        self.probe_prop = P.INVERSE_RELATIONSHIP

    def _verify(self, subject, props):
        return self.axioms.verify(
            subject, props, trials=self.trials, n_range=self.n_range, seed=self.seed, tol=1e-8
        )

    def job(self):
        reports = tuple(self._verify(subject, self.props) for _, subject in self.subjects)
        return (reports, self._verify(self.probe, (self.probe_prop,))), {}

    def summary(self, out) -> tuple:
        reports, probe = out
        return tuple(r.to_json() for r in reports) + (probe.to_json(),)

    def check(self, out) -> list[str]:
        reports, probe = out
        problems = [
            f"{name} fails {[p.value for p in report.failures()]}"
            for (name, _), report in zip(self.subjects, reports)
            if not report.passed()
        ]
        result = probe.result(self.probe_prop)
        if result.status != "fail" or result.witness is None:
            problems.append("the Min-centered branch probe was not caught with a witness")
        else:
            again = self.axioms.replay(self.probe, result.witness)
            if not math.isclose(again, result.witness.violation, rel_tol=1e-12, abs_tol=0.0):
                problems.append(
                    f"replayed violation {again!r} != witness {result.witness.violation!r}"
                )
        return problems


WORKLOADS = {w.name: w for w in (GridLong, WideShort, Axioms)}
