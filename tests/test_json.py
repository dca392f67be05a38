"""The JSON of reports and dendrograms against hand-written reference walks.

Each `reference_*` function below spells out, field by field, the JSON form
that `verify` reports, benchmark reports and dendrograms had when each class
wrote its own. `to_json()` must equal `json.dumps(reference(obj), indent=2,
sort_keys=True)` byte for byte.
"""

from __future__ import annotations

import enum
import importlib
import json
import math
import pkgutil

import numpy as np
import pytest

import shapeassoc
from shapeassoc import (
    ArithmeticMean,
    Center,
    ComplementDecay,
    DissimilaritySpec,
    Pearson,
    PropertyId,
    SimilarityRecipe,
    default_synthetic_spec,
    run_benchmark,
    single_linkage,
    verify,
)
from shapeassoc.config import plain, to_json
from axiom_cases import coverage_suite
from test_cluster import HAND_BUILT, from_upper, random_matrix


def _float(v: float):
    return v if math.isfinite(v) else repr(v)


def reference_witness(w) -> dict:
    out = {"property": w.property.value, "trial": w.trial, "violation": _float(w.violation)}
    for key, value in w.params.items():
        out[key] = list(value) if key in ("x", "y") else value
    if w.note:
        out["note"] = w.note
    return out


def reference_result(r) -> dict:
    return {
        "property": r.property.value,
        "status": r.status,
        "trials": r.trials,
        "worst_violation": _float(r.worst_violation),
        "witness": reference_witness(r.witness) if r.witness else None,
    }


def reference_report(report) -> dict:
    return {
        "subject": report.subject,
        "kind": report.kind,
        "seed": report.seed,
        "trials": report.trials,
        "n_range": list(report.n_range),
        "tol": report.tol,
        "results": [reference_result(r) for r in report.results],
    }


def reference_outcome(o) -> dict:
    return {
        "name": o.name,
        "status": o.status,
        "expect": o.expect,
        "containment": [
            {"cluster": list(cluster), "contained": contained}
            for cluster, contained in o.containment
        ],
        "contains_all": o.contains_all,
        "expectation_met": o.expectation_met,
        "detail": o.detail,
    }


def reference_benchmark(report) -> dict:
    return {
        "dataset": report.dataset,
        "ids": list(report.ids),
        "true_clusters": [list(c) for c in report.true_clusters],
        "constant_series": list(report.constant_series),
        "measures": [reference_outcome(o) for o in report.outcomes],
        "all_expectations_met": report.passed(),
    }


def reference_dendrogram(tree) -> dict:
    return {
        "leaves": list(tree.leaves),
        "merges": [
            {"left": list(m.left), "right": list(m.right), "level": m.level}
            for m in tree.merges
        ],
    }


def _expected(reference, obj) -> str:
    return json.dumps(reference(obj), indent=2, sort_keys=True)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_reports_match_the_reference(seed):
    reports = [verify(c.subject, (c.property,), trials=60, seed=seed) for c in coverage_suite()]
    # a subject that raises DomainError, so its witness is inf with a note
    raising = SimilarityRecipe(DissimilaritySpec(2.0, Center(ArithmeticMean())), ComplementDecay())
    reports.append(verify(raising, (PropertyId.SYMMETRY,), trials=50, seed=seed))
    reports.append(verify(Pearson(), (PropertyId.SIM_REFLEXIVITY, PropertyId.SYMMETRY), trials=5))
    for report in reports:
        assert report.to_json() == _expected(reference_report, report)
    results = [r for report in reports for r in report.results]
    # the cases this oracle exists for are present
    assert any(r.witness and r.witness.violation == math.inf and r.witness.note for r in results)
    assert any(r.witness and not r.witness.note for r in results)
    assert any(r.status == "not-applicable" for r in results)


@pytest.mark.parametrize("seed", range(5))
def test_benchmark_reports_match_the_reference(seed):
    report = run_benchmark(default_synthetic_spec(seed))
    assert report.to_json() == _expected(reference_benchmark, report)


def test_dendrograms_match_the_reference():
    rng = np.random.default_rng(65)
    for step in (None, 1 / 2, 1 / 3, 1 / 5):
        for _ in range(30):
            k = int(rng.integers(2, 41))
            v = rng.uniform(0.0, 1.0, (k, k))
            if step is not None:  # tie-heavy: entries on a coarse grid
                v = np.round(v / step) * step
            tree = single_linkage(from_upper(v))
            assert tree.to_json() == _expected(reference_dendrogram, tree)
    tree = single_linkage(random_matrix(np.random.default_rng(61), 20))
    assert tree.to_json() == _expected(reference_dendrogram, tree)
    for tree, (merges, text, newick) in zip(HAND_BUILT, _HAND_BUILT_BYTES, strict=True):
        assert tuple((m.left, m.right, m.level) for m in tree.merges) == merges
        assert (tree.to_text(), tree.to_newick()) == (text, newick)
        assert tree.to_json() == _expected(reference_dendrogram, tree)


# The merges, text and Newick of each tree in HAND_BUILT, as the sides were given.
_HAND_BUILT_BYTES = (
    ((), "leaves: a\n", "a;"),
    (
        ((("c",), ("d",), 0.9), (("b",), ("a",), 0.8), (("c", "d"), ("b", "a"), 0.1)),
        "leaves: a, b, c, d\nmerge 1: {c} + {d} at 0.9\nmerge 2: {b} + {a} at 0.8\n"
        "merge 3: {c, d} + {b, a} at 0.1\n",
        "((c:0.1,d:0.1):0.9,(b:0.2,a:0.2):0.9);",
    ),
    (
        (
            (("e",), ("a",), 0.7),
            (("d",), ("e", "a"), 0.7),
            (("c",), ("b",), 0.5),
            (("c", "b"), ("a", "d", "e"), 0.5),
        ),
        "leaves: a, b, c, d, e\nmerge 1: {e} + {a} at 0.7\nmerge 2: {d} + {e, a} at 0.7\n"
        "merge 3: {c} + {b} at 0.5\nmerge 4: {c, b} + {a, d, e} at 0.5\n",
        "((c:0.5,b:0.5):0.5,(d:0.3,(e:0.3,a:0.3):0.3):0.5);",
    ),
    (
        tuple((tuple(f"o{i}" for i in range(t + 1)), (f"o{t + 1}",), 1.0 - t / 6) for t in range(5)),
        "leaves: o0, o1, o2, o3, o4, o5\nmerge 1: {o0} + {o1} at 1.0\n"
        "merge 2: {o0, o1} + {o2} at 0.8333333333333334\nmerge 3: {o0, o1, o2} + {o3} at 0.6666666666666667\n"
        "merge 4: {o0, o1, o2, o3} + {o4} at 0.5\nmerge 5: {o0, o1, o2, o3, o4} + {o5} at 0.33333333333333337\n",
        "(((((o0:0,o1:0):0.166667,o2:0.166667):0.333333,o3:0.333333):0.5,o4:0.5):0.666667,o5:0.666667);",
    ),
)


class _Color(enum.Enum):
    RED = "red"


class _Custom:
    def to_dict(self):
        return {"custom": True}


def test_plain_rules():
    assert plain(_Color.RED) == "red"
    assert plain((math.inf, -math.inf, math.nan, 0.5)) == ["inf", "-inf", "nan", 0.5]
    assert plain(np.float64(math.inf)) == "inf"
    assert plain({"a": (1, (2,)), "b": None}) == {"a": [1, [2]], "b": None}
    assert plain([_Custom()]) == [{"custom": True}]
    assert to_json({"b": (1,), "a": math.nan}) == '{\n  "a": "nan",\n  "b": [\n    1\n  ]\n}'


def test_no_enum_of_the_package_is_a_str():
    # plain returns a str before its Enum rule, which a str-mixin Enum would skip
    enums = []
    for info in pkgutil.iter_modules(shapeassoc.__path__):
        module = importlib.import_module(f"shapeassoc.{info.name}")
        enums += [c for c in vars(module).values() if isinstance(c, enum.EnumType) and c.__module__ == module.__name__]
    assert PropertyId in enums
    assert [c for c in enums if issubclass(c, str)] == []
