"""Acceptance checks for the whole package, one test per criterion.

Each test prints a single `criterion N (...): PASS|FAIL` line (visible with
pytest -s or in the captured output of a failing run) and then asserts, so a
plain `pytest -v` shows exactly one pass/fail line per criterion as well.

Criterion 7 needs an externally supplied 14-series reference dataset; point
SHAPEASSOC_REALDATA at the file to enable it. Without the file the test is
skipped and the suite stays green: that check is reported, never CI-blocking.
"""

import os
import time

import networkx as nx
import numpy as np
import pytest

from shapeassoc import (
    ArithmeticMean,
    Center,
    CenterScale,
    DissimilaritySpec,
    FileDataset,
    GeneralizedMidrange,
    Median,
    Midrange,
    Min,
    MinkowskiContrast,
    MinkowskiDeviation,
    Pearson,
    PowerHalf,
    PropertyId,
    RationalDecay,
    SimilarityBranch,
    SimilarityMatrix,
    SimilarityRecipe,
    TruncatedMean,
    BenchmarkSpec,
    default_grid_measures,
    default_synthetic_spec,
    preset,
    run_benchmark,
    single_linkage,
    verify,
)
from shapeassoc.estimates import central_values
from shapeassoc.measures import associate_values
from shapeassoc.standardize import standardize_values

from axiom_cases import CRITERION_3_PROPS, CRITERION_3_SUBJECTS
from helpers import random_values


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)


def test_criterion_1_pearson_recovery():
    spec = MinkowskiContrast(DissimilaritySpec(2.0, preset("unit-mean")), PowerHalf(2.0))
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        vx, vy = random_values(rng, 50), random_values(rng, 50)
        diff = abs(associate_values(spec, vx, vy) - associate_values(Pearson(), vx, vy))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(1, "pearson recovery", ok, f"worst={worst:.3e} time={elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_cosine_recovery():
    f = preset("unit-gmidrange", r=2.0, k=0, m=2)
    spec = MinkowskiContrast(DissimilaritySpec(2.0, f), PowerHalf(2.0))
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        vx, vy = random_values(rng, 50), random_values(rng, 50)
        fx, fy = standardize_values(f, vx), standardize_values(f, vy)
        direct = float(np.dot(fx, fy) / np.sqrt(np.dot(fx, fx) * np.dot(fy, fy)))
        worst = max(worst, abs(associate_values(spec, vx, vy) - direct))
    ok = worst <= 1e-9
    _report(2, "cosine recovery", ok, f"worst={worst:.3e}")
    assert worst <= 1e-9


def test_criterion_3_axiom_suite():
    start = time.perf_counter()
    failures = []
    worst = 0.0
    for name, subject in CRITERION_3_SUBJECTS:
        for seed in (0, 7, 42):
            report = verify(subject, CRITERION_3_PROPS, trials=200, seed=seed, tol=1e-8)
            worst = max(worst, max(r.worst_violation for r in report.results))
            if not report.passed():
                failures.append((name, seed, report.failures()))

    # sensitivity: the branch form over the non-odd min-centering must be
    # caught by the harness, with a concrete replayable witness
    bad = SimilarityBranch(
        SimilarityRecipe(DissimilaritySpec(2.0, Center(Min())), RationalDecay(1.0))
    )
    bad_report = verify(bad, (PropertyId.INVERSE_RELATIONSHIP,), trials=200, seed=0, tol=1e-8)
    bad_result = bad_report.result(PropertyId.INVERSE_RELATIONSHIP)
    sensitivity_ok = bad_result.status == "fail" and bad_result.witness is not None

    elapsed = time.perf_counter() - start
    ok = not failures and sensitivity_ok and elapsed < 30.0
    _report(
        3,
        "axiom suite",
        ok,
        f"measures=15 seeds=3 worst={worst:.3e} sensitivity={'ok' if sensitivity_ok else 'MISSED'} "
        f"time={elapsed:.1f}s",
    )
    assert not failures, failures
    assert sensitivity_ok
    assert elapsed < 30.0


def test_criterion_4_estimate_identities():
    rng = np.random.default_rng(104)
    worst = 0.0
    exact = True
    for _ in range(500):
        n = int(rng.integers(5, 41))
        v = random_values(rng, n)
        am = central_values(ArithmeticMean(), v)
        for m in range(1, (n - 1) // 2 + 1):
            tm = central_values(TruncatedMean(m), v)
            gm = central_values(GeneralizedMidrange(0, m), v)
            worst = max(worst, abs(am - ((n - 2 * m) * tm + 2 * m * gm) / n))
        if central_values(GeneralizedMidrange(0, 1), v) != central_values(Midrange(), v):
            exact = False
    ok = worst <= 1e-10 and exact
    _report(4, "estimate identities", ok, f"worst={worst:.3e} midrange-exact={exact}")
    assert worst <= 1e-10
    assert exact


def test_criterion_5_standardization_suite():
    specs = (
        preset("center-mean"),
        preset("center-min"),
        preset("unit-mean"),
        preset("unit-gmidrange"),
        Center(Median()),
        CenterScale(Midrange(), MinkowskiDeviation(2.0, Midrange())),
    )
    rng = np.random.default_rng(105)
    worst = {key: 0.0 for key in ("idempotency", "zero-center", "translation", "scale", "odd", "normality")}
    for _ in range(500):
        n = int(rng.integers(5, 41))
        v = random_values(rng, n)
        q = float(rng.uniform(-10, 10))
        p = float(rng.choice((1e-3, 0.5, 2.0, 1e3)))
        for spec in specs:
            out = standardize_values(spec, v)
            worst["idempotency"] = max(
                worst["idempotency"], float(np.max(np.abs(standardize_values(spec, out) - out)))
            )
            worst["zero-center"] = max(worst["zero-center"], abs(central_values(spec.center, out)))
            worst["translation"] = max(
                worst["translation"], float(np.max(np.abs(standardize_values(spec, v + q) - out)))
            )
            if spec.scale_invariant:
                worst["scale"] = max(
                    worst["scale"], float(np.max(np.abs(standardize_values(spec, p * v) - out)))
                )
            if spec.odd:
                worst["odd"] = max(
                    worst["odd"], float(np.max(np.abs(standardize_values(spec, -v) + out)))
                )
            if spec.normality_order is not None:
                total = float(np.sum(np.abs(out) ** spec.normality_order))
                worst["normality"] = max(worst["normality"], abs(total - 1.0))
    bad = {key: val for key, val in worst.items() if val > 1e-10}
    detail = " ".join(f"{key}={val:.2e}" for key, val in worst.items())
    _report(5, "standardization suite", not bad, detail)
    assert not bad, bad


def _mst_levels(values: np.ndarray) -> tuple:
    g = nx.Graph()
    k = values.shape[0]
    for i in range(k):
        for j in range(i + 1, k):
            g.add_edge(i, j, weight=float(values[i, j]))
    tree = nx.maximum_spanning_tree(g)
    return tuple(sorted((d["weight"] for _, _, d in tree.edges(data=True)), reverse=True))


def test_criterion_6_clustering_oracle():
    rng = np.random.default_rng(106)
    oracle_ok = True
    topology_ok = True
    for _ in range(1000):
        k = int(rng.integers(4, 8))
        v = np.eye(k)
        for i in range(k):
            for j in range(i + 1, k):
                v[i, j] = v[j, i] = rng.uniform(0.0, 1.0)
        ids = tuple(f"o{i}" for i in range(k))
        tree = single_linkage(SimilarityMatrix(ids, v))
        if tree.levels() != _mst_levels(v):
            oracle_ok = False
            break
        base = set(tree.nodes())
        for transform in (lambda s: s * s, lambda s: (1.0 + s) / 2.0):
            w = transform(v.copy())
            np.fill_diagonal(w, 1.0)
            if set(single_linkage(SimilarityMatrix(ids, w)).nodes()) != base:
                topology_ok = False
                break
        if not topology_ok:
            break
    ok = oracle_ok and topology_ok
    _report(6, "clustering oracle", ok, f"levels={'ok' if oracle_ok else 'MISMATCH'} topology={'ok' if topology_ok else 'CHANGED'}")
    assert oracle_ok
    assert topology_ok


TRUE_CLUSTERS = (
    ("s1", "s4", "s9", "s10"),
    ("s2", "s3", "s5"),
    ("s6", "s7", "s8"),
    ("s11", "s12"),
    ("s13", "s14"),
)


def test_criterion_7_real_data_benchmark():
    path = os.environ.get("SHAPEASSOC_REALDATA")
    if not path:
        _report(7, "real-data benchmark", True, "skipped: set SHAPEASSOC_REALDATA to a local copy")
        pytest.skip("reference dataset not supplied; this check never blocks CI")
    spec = BenchmarkSpec(
        dataset=FileDataset(path),
        measures=default_grid_measures("real-data"),
        true_clusters=TRUE_CLUSTERS,
    )
    report = run_benchmark(spec)
    ok = report.passed()
    unmet = [o.name for o in report.outcomes if not o.expectation_met]
    _report(7, "real-data benchmark", ok, f"unmet={unmet}" if unmet else "all expectations met")
    assert ok, report.to_text()


def test_criterion_8_synthetic_benchmark():
    start = time.perf_counter()
    bad = []
    for seed in range(5):
        report = run_benchmark(default_synthetic_spec(seed))
        if not report.passed():
            bad.append((seed, [o.name for o in report.outcomes if not o.expectation_met]))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 10.0
    _report(8, "synthetic benchmark", ok, f"seeds=5 grid=12 time={elapsed:.1f}s")
    assert not bad, bad
    assert elapsed < 10.0
