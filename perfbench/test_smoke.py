"""Smoke test of the benchmark at tiny sizes: python -m pytest perfbench

Runs every workload once with tracing off and on, checks the printed
metrics against BENCHMARK.json, and checks that a corrupted output counts
as a failed job.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys

import pytest

import run
import tracing
import workloads

if str(run.SOURCE) not in sys.path:
    sys.path.insert(0, str(run.SOURCE))

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "grid-long": functools.partial(workloads.GridLong, clusters=3, length=64),
    "wide-short": functools.partial(workloads.WideShort, clusters=4, length=64),
    "axioms": functools.partial(workloads.Axioms, trials=5, n_range=(3, 12)),
}


def _run(capsys, factory, trace: bool) -> tuple[dict, list[str]]:
    record = run.benchmark(factory, seed=0, seconds=0, trace=trace)
    run.report(record)
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, lines[:-1]


def test_workloads_match_the_declaration():
    assert set(workloads.WORKLOADS) == {w["name"] for w in DECLARED["workloads"]}
    for w in DECLARED["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(capsys, name, trace):
    result, lines = _run(capsys, TINY[name], trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"]) for line in lines
        ), m["name"]
    if not trace:
        assert any(line.startswith("ops_failed_ratio 0.0 ratio") for line in lines)
        if name == "wide-short":
            for stage in ("matrix_s", "cluster_s"):
                assert any(line.startswith(stage + " ") and line.endswith(" s") for line in lines)


def test_trace_counts_repeat_and_follow_the_pipeline(capsys):
    counts = []
    for _ in range(2):
        result, _ = _run(capsys, TINY["grid-long"], trace=True)
        counts.append(
            {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
        )
    assert counts[0] == counts[1]
    k, measures = 9, 12
    assert counts[0]["standardize.standardize_values.calls"] == 4 * (k * (k - 1) // 2) * measures

    result, _ = _run(capsys, TINY["wide-short"], trace=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["estimates.central_values.calls"] == 0
    assert metrics["estimates.scale_values.calls"] == 0
    assert metrics["measures.calls_per_pair"] == 1.0


def test_tracer_rebinds_every_consumer_and_restores():
    TINY["axioms"](0)
    modules = {
        name: sys.modules[f"shapeassoc.{name}"]
        for name in ("standardize", "measures", "axioms", "bench", "cluster")
    }
    original = modules["standardize"].standardize_values
    original_from_association = modules["cluster"].SimilarityMatrix.__dict__["from_association"]
    with tracing.Tracer():
        for consumer, attr in (
            ("standardize", "standardize_values"),
            ("measures", "standardize_values"),
            ("axioms", "associate_values"),
            ("bench", "association_matrix"),
        ):
            assert hasattr(getattr(modules[consumer], attr), "__wrapped__"), (consumer, attr)
        # the package attribute is the re-exported function, not the module
        assert callable(sys.modules["shapeassoc"].standardize)
    assert modules["standardize"].standardize_values is original
    assert modules["measures"].standardize_values is original
    assert modules["cluster"].SimilarityMatrix.__dict__["from_association"] is original_from_association


class _PerturbedEntry(workloads.WideShort):
    def job(self):
        out, stages = super().job()
        values = out.values.copy()
        values[0, 1] += 1e-6
        return out._replace(values=values), stages


class _WrongLevel(workloads.WideShort):
    def job(self):
        out, stages = super().job()
        merges = out.tree.merges
        wrong = dataclasses.replace(merges[-1], level=merges[-1].level - 1e-3)
        tree = self.cluster.Dendrogram(out.tree.leaves, merges[:-1] + (wrong,))
        return out._replace(tree=tree), stages


@pytest.mark.parametrize("corrupted", [_PerturbedEntry, _WrongLevel])
def test_a_corrupted_output_is_a_failed_job(capsys, corrupted):
    factory = functools.partial(corrupted, clusters=4, length=64)
    result, _ = _run(capsys, factory, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ops_ok_ratio"]["value"] == 0.0


def test_missing_source_exits_without_a_result(capsys, monkeypatch):
    monkeypatch.setattr(run, "SOURCE", run.ROOT / "perfbench" / "no-such-src")
    assert run.main(["--workload", "axioms", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""

