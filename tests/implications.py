"""Checks of the logical relationships between the reflection properties.

These relationships are facts about ANY symmetric reflexive similarity, not
about a particular measure, so they are checked on synthetic similarity
tables over signed items rather than on series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from shapeassoc.config import to_json

class _SignedTable:
    """Symmetric similarity over items (index, sign), sign in {+1, -1}."""

    def __init__(self, size: int):
        self.size = size
        self._values: dict = {}

    def keys(self):
        items = [(i, s) for i in range(self.size) for s in (1, -1)]
        for a in range(len(items)):
            for b in range(a, len(items)):
                yield items[a], items[b]

    @staticmethod
    def _key(u, v):
        return (u, v) if u <= v else (v, u)

    def set(self, u, v, value: float) -> None:
        self._values[self._key(u, v)] = float(value)

    def get(self, u, v) -> float:
        return self._values[self._key(u, v)]


def _neg(item):
    return (item[0], -item[1])


def _table_sign_independent(rng: np.random.Generator, size: int) -> _SignedTable:
    """S depends only on the unordered index pair: reflection invariant."""
    base = rng.uniform(0.0, 1.0, (size, size))
    base = (base + base.T) / 2.0
    t = _SignedTable(size)
    for u, v in t.keys():
        t.set(u, v, 1.0 if u[0] == v[0] else base[u[0], v[0]])
    return t


def _table_sign_product(rng: np.random.Generator, size: int) -> _SignedTable:
    """S flips to its complement when exactly one sign flips: complement rule."""
    base = rng.uniform(0.0, 1.0, (size, size))
    base = (base + base.T) / 2.0
    np.fill_diagonal(base, 1.0)
    t = _SignedTable(size)
    for u, v in t.keys():
        b = base[u[0], v[0]]
        t.set(u, v, b if u[1] * v[1] == 1 else 1.0 - b)
    return t


def _table_arbitrary(rng: np.random.Generator, size: int) -> _SignedTable:
    """Symmetric, reflexive, but otherwise unstructured."""
    t = _SignedTable(size)
    for u, v in t.keys():
        t.set(u, v, 1.0 if u == v else float(rng.uniform(0.0, 1.0)))
    return t


def _max_violation(t: _SignedTable, predicate) -> float:
    worst = 0.0
    for u, v in t.keys():
        worst = max(worst, predicate(t, u, v))
    return worst


def _viol_reflection_invariance(t, u, v):
    return abs(t.get(_neg(u), v) - t.get(u, v))


def _viol_complement(t, u, v):
    return abs(t.get(_neg(u), v) - (1.0 - t.get(u, v)))


def _viol_sign_permutation(t, u, v):
    return abs(t.get(_neg(u), v) - t.get(u, _neg(v)))


def _viol_sign_cancellation(t, u, v):
    return abs(t.get(_neg(u), _neg(v)) - t.get(u, v))


def _reflection_similarities(t: _SignedTable):
    return [t.get((i, 1), (i, -1)) for i in range(t.size)]


@dataclass(frozen=True)
class ImplicationResult:
    name: str
    trials: int
    status: str  # "pass" | "fail"
    detail: str


@dataclass(frozen=True)
class ImplicationReport:
    seed: int
    results: tuple[ImplicationResult, ...]

    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def to_json(self) -> str:
        return to_json(self)


def implication_checks(seed: int = 0, trials: int = 200) -> ImplicationReport:
    """Validate the logical relationships between the reflection properties.

    Each check constructs random tables on the hypothesis side and measures
    the conclusion; a single counterexample fails the check. These are
    mathematical facts, so all checks are expected to pass; a failure means
    the property encodings in shapeassoc.axioms are wrong.
    """
    checks = []

    def run(name: str, one_trial) -> None:
        worst_detail = ""
        status = "pass"
        for t in range(trials):
            rng = np.random.default_rng([seed, len(checks), t])
            size = int(rng.integers(3, 7))
            ok, detail = one_trial(rng, size)
            if not ok:
                status = "fail"
                worst_detail = f"trial {t}: {detail}"
                break
        checks.append(ImplicationResult(name, trials, status, worst_detail))

    def refl_inv_implies_similarity(rng, size):
        t = _table_sign_independent(rng, size)
        bad = max(abs(s - 1.0) for s in _reflection_similarities(t))
        return bad == 0.0, f"reflection similarity deviates by {bad!r}"

    def complement_implies_non_similarity(rng, size):
        t = _table_sign_product(rng, size)
        bad = max(abs(s) for s in _reflection_similarities(t))
        return bad == 0.0, f"reflection similarity deviates from 0 by {bad!r}"

    def refl_inv_excludes_complement(rng, size):
        t = _table_sign_independent(rng, size)
        # at a reflected pair the complement rule would force 1 == 0
        bad = _max_violation(t, _viol_complement)
        return bad >= 1.0, f"complement violation only {bad!r}"

    def non_similarity_implies_weak(rng, size):
        t = _table_sign_product(rng, size)
        bad = max(s - 1.0 for s in _reflection_similarities(t))
        return bad <= 0.0, f"weak similarity exceeded by {bad!r}"

    def permutation_matches_cancellation(rng, size):
        t = _table_arbitrary(rng, size)
        perm = _max_violation(t, _viol_sign_permutation)
        canc = _max_violation(t, _viol_sign_cancellation)
        return abs(perm - canc) < 1e-15, f"permutation {perm!r} vs cancellation {canc!r}"

    def sign_product_satisfies_both(rng, size):
        t = _table_sign_product(rng, size)
        perm = _max_violation(t, _viol_sign_permutation)
        canc = _max_violation(t, _viol_sign_cancellation)
        return perm == 0.0 and canc == 0.0, f"permutation {perm!r}, cancellation {canc!r}"

    run("reflection-invariance-implies-similarity-of-reflections", refl_inv_implies_similarity)
    run("complement-implies-non-similarity-of-reflections", complement_implies_non_similarity)
    run("reflection-invariance-excludes-complement", refl_inv_excludes_complement)
    run("non-similarity-implies-weak-similarity", non_similarity_implies_weak)
    run("sign-permutation-matches-sign-cancellation", permutation_matches_cancellation)
    run("sign-product-family-satisfies-both-sign-rules", sign_product_satisfies_both)
    return ImplicationReport(seed=seed, results=tuple(checks))
