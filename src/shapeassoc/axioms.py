"""Randomized verification of measure properties, with replayable witnesses.

`verify` throws generated series at a subject (an association measure, a
similarity recipe, or a dissimilarity spec) and checks each requested property
up to a tolerance. Failures carry a witness: the exact inputs and transform
parameters that broke the property, so the report stands on its own.

Trial generation is fully determined by (seed, property, trial index); two
runs with the same arguments produce byte-identical reports.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConstantSeriesError, DomainError, SpecError
from .config import to_dict
from .measures import (
    DissimilaritySpec,
    MeasureSpec,
    SimilarityRecipe,
    associate_values,
    dissimilarity_values,
)


class PropertyId(enum.Enum):
    """Identifiers for every property the harness can check.

    Each maps to one quantified predicate over series; see _violation for the
    exact formula. "P" below stands for whichever of A (association),
    S (similarity) or D (dissimilarity) the subject computes.
    """

    SYMMETRY = "symmetry"                                  # P(x,y) = P(y,x)
    DISSIM_SELF_ZERO = "dissim-self-zero"                  # D(x,x) = 0
    SIM_REFLEXIVITY = "sim-reflexivity"                    # S(x,x) = 1
    ASSOC_REFLEXIVITY = "assoc-reflexivity"                # A(x,x) = 1
    INVERSE_REFLEXIVITY = "inverse-reflexivity"            # A(-x,x) = -1
    INVERSE_RELATIONSHIP = "inverse-relationship"          # A(-x,y) = -A(x,y)
    TRANSLATION_INVARIANCE = "translation-invariance"      # P(x+q,y) = P(x,y)
    SCALE_INVARIANCE = "scale-invariance"                  # P(p*x,y) = P(x,y), p>0
    AFFINE_SIGN_RULE = "affine-sign-rule"                  # A(p1x+q1,p2y+q2) = sgn(p1)sgn(p2)A(x,y)
    SIGN_PERMUTATION = "sign-permutation"                  # P(-x,y) = P(x,-y)
    SIGN_CANCELLATION = "sign-cancellation"                # P(-x,-y) = P(x,y)
    COMPLEMENT_OF_REFLECTIONS = "complement-of-reflections"  # S(-x,y) = 1 - S(x,y)
    REFLECTION_INVARIANCE = "reflection-invariance"        # S(-x,y) = S(x,y)
    SIMILARITY_OF_REFLECTIONS = "similarity-of-reflections"  # S(-x,x) = 1
    WEAK_SIMILARITY_OF_REFLECTIONS = "weak-similarity-of-reflections"  # S(-x,x) <= 1
    NON_SIMILARITY_OF_REFLECTIONS = "non-similarity-of-reflections"  # S(-x,x) = 0
    CONSTANT_SERIES_SIMILARITY = "constant-series-similarity"  # S(const, const') = 1
    RANGE_BOUNDS = "range-bounds"                          # A in [-1,1]; S in [0,1]; D >= 0


_ASSOC = "association"
_SIM = "similarity"
_DISSIM = "dissimilarity"

APPLICABILITY: dict[PropertyId, frozenset[str]] = {
    PropertyId.SYMMETRY: frozenset({_ASSOC, _SIM, _DISSIM}),
    PropertyId.DISSIM_SELF_ZERO: frozenset({_DISSIM}),
    PropertyId.SIM_REFLEXIVITY: frozenset({_SIM}),
    PropertyId.ASSOC_REFLEXIVITY: frozenset({_ASSOC}),
    PropertyId.INVERSE_REFLEXIVITY: frozenset({_ASSOC}),
    PropertyId.INVERSE_RELATIONSHIP: frozenset({_ASSOC}),
    PropertyId.TRANSLATION_INVARIANCE: frozenset({_ASSOC, _SIM, _DISSIM}),
    PropertyId.SCALE_INVARIANCE: frozenset({_ASSOC, _SIM, _DISSIM}),
    PropertyId.AFFINE_SIGN_RULE: frozenset({_ASSOC}),
    PropertyId.SIGN_PERMUTATION: frozenset({_ASSOC, _SIM, _DISSIM}),
    PropertyId.SIGN_CANCELLATION: frozenset({_ASSOC, _SIM, _DISSIM}),
    PropertyId.COMPLEMENT_OF_REFLECTIONS: frozenset({_SIM}),
    PropertyId.REFLECTION_INVARIANCE: frozenset({_SIM}),
    PropertyId.SIMILARITY_OF_REFLECTIONS: frozenset({_SIM}),
    PropertyId.WEAK_SIMILARITY_OF_REFLECTIONS: frozenset({_SIM}),
    PropertyId.NON_SIMILARITY_OF_REFLECTIONS: frozenset({_SIM}),
    PropertyId.CONSTANT_SERIES_SIMILARITY: frozenset({_SIM}),
    PropertyId.RANGE_BOUNDS: frozenset({_ASSOC, _SIM, _DISSIM}),
}

# the defining axioms of a shape association measure
SAM_PROPERTIES = (
    PropertyId.SYMMETRY,
    PropertyId.RANGE_BOUNDS,
    PropertyId.ASSOC_REFLEXIVITY,
    PropertyId.INVERSE_REFLEXIVITY,
    PropertyId.INVERSE_RELATIONSHIP,
    PropertyId.TRANSLATION_INVARIANCE,
)

_SCALE_CHOICES = (1e-3, 0.5, 2.0, 1e3)
_AFFINE_SLOPES = (-3.0, -1.0, 0.5, 2.0)
_OFFSET_RANGE = 10.0


@dataclass(frozen=True)
class AbsSimilarity:
    """|A| of a measure, verified as a similarity in [0, 1]."""

    tag = "abs-similarity"
    kind = _SIM
    measure: MeasureSpec
    bounds = property(lambda self: self.measure.bounds)

    def evaluate(self, vx: np.ndarray, vy: np.ndarray) -> float:
        return abs(associate_values(self.measure, vx, vy))


@dataclass(frozen=True)
class Probe:
    """Raw callable subject for exercising the harness itself.

    Probes let tests hand the verifier a deliberately broken function without
    building a full spec for it.
    """

    kind: str
    fn: Callable[[np.ndarray, np.ndarray], float]
    name: str
    min_n: int = 2
    bounds = property(lambda self: (self.min_n, None))

    def __post_init__(self):
        if self.kind not in (_ASSOC, _SIM, _DISSIM):
            raise SpecError(f"unknown subject kind {self.kind!r}")

    def evaluate(self, vx: np.ndarray, vy: np.ndarray) -> float:
        return self.fn(vx, vy)


def subject_kind(subject) -> str:
    """What the subject computes: "association", "similarity" or "dissimilarity"."""
    return subject.kind


def _evaluator(subject) -> Callable[[np.ndarray, np.ndarray], float]:
    # measures and dissimilarities go through their module-level entry points;
    # associate_values holds the constant-series check
    if isinstance(subject, MeasureSpec):
        return lambda vx, vy: associate_values(subject, vx, vy)
    if isinstance(subject, DissimilaritySpec):
        return lambda vx, vy: dissimilarity_values(subject, vx, vy)
    return subject.evaluate


def _upper(subject) -> float | None:
    """Upper bound of a dissimilarity whose standardized vectors are unit."""
    if isinstance(subject, DissimilaritySpec) and subject.normal:
        return 2.0
    return None


def describe_subject(subject) -> dict:
    if isinstance(subject, Probe):
        return {"subject": subject.kind, "kind": "probe", "name": subject.name}
    return {"subject": subject.kind, **to_dict(subject)}


# --- deterministic input generation -------------------------------------------


def _style_for_trial(t: int) -> str:
    slot = t % 10
    if slot == 7:
        return "monotone"
    if slot == 8:
        return "near-constant"
    if slot == 9:
        return "alternating"
    return "uniform"


def _draw_series(rng: np.random.Generator, n: int, style: str) -> np.ndarray:
    if style == "uniform":
        v = rng.uniform(-10.0, 10.0, n)
    elif style == "monotone":
        steps = rng.uniform(0.05, 1.0, n)
        v = rng.uniform(-10.0, 10.0) + np.cumsum(steps)
        if rng.uniform() < 0.5:
            v = v[::-1].copy()
    elif style == "near-constant":
        v = rng.uniform(-1.0, 1.0) + rng.uniform(-0.5e-6, 0.5e-6, n)
    elif style == "alternating":
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        v = signs * rng.uniform(0.5, 5.0, n)
    else:
        raise SpecError(f"unknown trial style {style!r}")
    if np.all(v == v[0]):
        # probability-zero fallback; keep the draw non-constant
        v = v.copy()
        v[0] += max(1e-6, abs(v[0]) * 1e-6)
    return v


_PAIR_PROPS = frozenset(
    {
        PropertyId.SYMMETRY,
        PropertyId.INVERSE_RELATIONSHIP,
        PropertyId.TRANSLATION_INVARIANCE,
        PropertyId.SCALE_INVARIANCE,
        PropertyId.AFFINE_SIGN_RULE,
        PropertyId.SIGN_PERMUTATION,
        PropertyId.SIGN_CANCELLATION,
        PropertyId.COMPLEMENT_OF_REFLECTIONS,
        PropertyId.REFLECTION_INVARIANCE,
        PropertyId.RANGE_BOUNDS,
    }
)


def _draw_trial(prop: PropertyId, rng: np.random.Generator, n: int, style: str) -> dict:
    """Inputs and transform parameters for one trial, as a plain dict."""
    params: dict = {"x": _draw_series(rng, n, style)}
    if prop is PropertyId.CONSTANT_SERIES_SIMILARITY:
        q, r = rng.uniform(-10.0, 10.0, 2)
        params["x"] = np.full(n, q)
        params["y"] = np.full(n, r)
        return params
    if prop in _PAIR_PROPS:
        params["y"] = _draw_series(rng, n, style)
    if prop is PropertyId.TRANSLATION_INVARIANCE:
        params["offset"] = float(rng.uniform(-_OFFSET_RANGE, _OFFSET_RANGE))
    elif prop is PropertyId.SCALE_INVARIANCE:
        params["scale"] = float(rng.choice(_SCALE_CHOICES))
    elif prop is PropertyId.AFFINE_SIGN_RULE:
        params["scale_x"] = float(rng.choice(_AFFINE_SLOPES))
        params["scale_y"] = float(rng.choice(_AFFINE_SLOPES))
        params["offset_x"] = float(rng.uniform(-_OFFSET_RANGE, _OFFSET_RANGE))
        params["offset_y"] = float(rng.uniform(-_OFFSET_RANGE, _OFFSET_RANGE))
    return params


def _violation(prop: PropertyId, ev, kind: str, params: dict, upper: float | None) -> float:
    """Size of the property violation for one trial; 0 means it held exactly."""
    x = np.asarray(params["x"], dtype=np.float64)
    y = np.asarray(params["y"], dtype=np.float64) if "y" in params else None
    if prop is PropertyId.SYMMETRY:
        return abs(ev(x, y) - ev(y, x))
    if prop is PropertyId.DISSIM_SELF_ZERO:
        return abs(ev(x, x))
    if prop in (PropertyId.SIM_REFLEXIVITY, PropertyId.ASSOC_REFLEXIVITY):
        return abs(ev(x, x) - 1.0)
    if prop is PropertyId.INVERSE_REFLEXIVITY:
        return abs(ev(-x, x) + 1.0)
    if prop is PropertyId.INVERSE_RELATIONSHIP:
        return abs(ev(-x, y) + ev(x, y))
    if prop is PropertyId.TRANSLATION_INVARIANCE:
        return abs(ev(x + params["offset"], y) - ev(x, y))
    if prop is PropertyId.SCALE_INVARIANCE:
        return abs(ev(params["scale"] * x, y) - ev(x, y))
    if prop is PropertyId.AFFINE_SIGN_RULE:
        px, py = params["scale_x"], params["scale_y"]
        lhs = ev(px * x + params["offset_x"], py * y + params["offset_y"])
        rhs = math.copysign(1.0, px) * math.copysign(1.0, py) * ev(x, y)
        return abs(lhs - rhs)
    if prop is PropertyId.SIGN_PERMUTATION:
        return abs(ev(-x, y) - ev(x, -y))
    if prop is PropertyId.SIGN_CANCELLATION:
        return abs(ev(-x, -y) - ev(x, y))
    if prop is PropertyId.COMPLEMENT_OF_REFLECTIONS:
        return abs(ev(-x, y) - (1.0 - ev(x, y)))
    if prop is PropertyId.REFLECTION_INVARIANCE:
        return abs(ev(-x, y) - ev(x, y))
    if prop is PropertyId.SIMILARITY_OF_REFLECTIONS:
        return abs(ev(-x, x) - 1.0)
    if prop is PropertyId.WEAK_SIMILARITY_OF_REFLECTIONS:
        return max(0.0, ev(-x, x) - 1.0)
    if prop is PropertyId.NON_SIMILARITY_OF_REFLECTIONS:
        return abs(ev(-x, x))
    if prop is PropertyId.CONSTANT_SERIES_SIMILARITY:
        return abs(ev(x, y) - 1.0)
    if prop is PropertyId.RANGE_BOUNDS:
        value = ev(x, y)
        if kind == _ASSOC:
            return max(0.0, abs(value) - 1.0)
        if kind == _SIM:
            return max(0.0, -value, value - 1.0)
        v = max(0.0, -value)
        if upper is not None:
            v = max(v, value - upper)
        return v
    raise SpecError(f"unknown property {prop!r}")


# --- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """One concrete counterexample, replayable without the original rng."""

    property: PropertyId
    trial: int
    params: dict
    violation: float
    note: str = ""

    def to_dict(self) -> dict:
        out = {
            "property": self.property.value,
            "trial": self.trial,
            "violation": _json_float(self.violation),
        }
        for key, value in self.params.items():
            out[key] = list(map(float, value)) if key in ("x", "y") else value
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class PropertyResult:
    property: PropertyId
    status: str  # "pass" | "fail" | "not-applicable"
    trials: int
    worst_violation: float
    witness: Witness | None = None

    def to_dict(self) -> dict:
        return {
            "property": self.property.value,
            "status": self.status,
            "trials": self.trials,
            "worst_violation": _json_float(self.worst_violation),
            "witness": self.witness.to_dict() if self.witness else None,
        }


def _json_float(v: float):
    return v if math.isfinite(v) else repr(v)


@dataclass(frozen=True)
class PropertyReport:
    subject: dict
    kind: str
    seed: int
    trials: int
    n_range: tuple[int, int]
    tol: float
    results: tuple[PropertyResult, ...]

    def result(self, prop: PropertyId) -> PropertyResult:
        for r in self.results:
            if r.property is prop:
                return r
        raise KeyError(f"property {prop.value!r} was not checked")

    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def failures(self) -> tuple[PropertyId, ...]:
        return tuple(r.property for r in self.results if r.status == "fail")

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "kind": self.kind,
            "seed": self.seed,
            "trials": self.trials,
            "n_range": list(self.n_range),
            "tol": self.tol,
            "results": [r.to_dict() for r in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"subject: {json.dumps(self.subject, sort_keys=True)}",
            f"kind={self.kind} seed={self.seed} trials={self.trials} "
            f"n_range={self.n_range[0]}..{self.n_range[1]} tol={self.tol!r}",
        ]
        for r in self.results:
            status = {"pass": "pass", "fail": "FAIL", "not-applicable": "n/a"}[r.status]
            witness = f"witness=trial:{r.witness.trial}" if r.witness else "witness=-"
            lines.append(
                f"{r.property.value:<34} {status:<4} trials={r.trials:<4} "
                f"worst={r.worst_violation!r} {witness}"
            )
        return "\n".join(lines) + "\n"


def applicable_properties(subject) -> tuple[PropertyId, ...]:
    kind = subject_kind(subject)
    return tuple(p for p in PropertyId if kind in APPLICABILITY[p])


def verify(
    subject,
    properties: tuple[PropertyId, ...] | None = None,
    trials: int = 200,
    n_range: tuple[int, int] = (3, 60),
    seed: int = 0,
    tol: float = 1e-8,
) -> PropertyReport:
    """Check properties on randomized inputs; see module docstring.

    Properties that do not apply to the subject's kind (or that need inputs
    the subject refuses, like constants under a scale-invariant
    standardization) come back "not-applicable", never an exception.
    """
    if trials < 1:
        raise SpecError(f"trials must be >= 1, got {trials}")
    lo_req, hi_req = int(n_range[0]), int(n_range[1])
    if not 2 <= lo_req <= hi_req:
        raise SpecError(f"bad n_range {n_range!r}")
    kind = subject_kind(subject)
    if properties is None:
        props = applicable_properties(subject)
    else:
        props = tuple(properties)
        for p in props:
            if not isinstance(p, PropertyId):
                raise SpecError(f"not a PropertyId: {p!r}")
    ev = _evaluator(subject)
    min_n, exact_n = subject.bounds
    lo = max(lo_req, min_n)
    hi = max(hi_req, lo)
    upper = _upper(subject)
    prop_order = {p: i for i, p in enumerate(PropertyId)}
    results = []
    for prop in props:
        if kind not in APPLICABILITY[prop]:
            results.append(PropertyResult(prop, "not-applicable", 0, 0.0))
            continue
        worst = 0.0
        worst_witness: Witness | None = None
        ran = 0
        not_applicable = False
        for t in range(trials):
            rng = np.random.default_rng([seed, prop_order[prop], t])
            n = int(exact_n if exact_n is not None else rng.integers(lo, hi + 1))
            params = _draw_trial(prop, rng, n, _style_for_trial(t))
            try:
                v = _violation(prop, ev, kind, params, upper)
            except ConstantSeriesError:
                if prop is PropertyId.CONSTANT_SERIES_SIMILARITY:
                    not_applicable = True
                    break
                raise
            except DomainError as exc:
                ran = t + 1
                worst = math.inf
                worst_witness = _make_witness(prop, t, params, math.inf, f"raised: {exc}")
                break
            ran = t + 1
            if v > worst:
                worst = v
                worst_witness = _make_witness(prop, t, params, v)
        if not_applicable:
            results.append(PropertyResult(prop, "not-applicable", 0, 0.0))
            continue
        status = "fail" if worst > tol else "pass"
        results.append(
            PropertyResult(
                prop,
                status,
                ran,
                worst,
                worst_witness if status == "fail" else None,
            )
        )
    return PropertyReport(
        subject=describe_subject(subject),
        kind=kind,
        seed=seed,
        trials=trials,
        n_range=(lo, hi),
        tol=tol,
        results=tuple(results),
    )


def _make_witness(prop: PropertyId, t: int, params: dict, violation: float, note: str = "") -> Witness:
    stored = {}
    for key, value in params.items():
        stored[key] = tuple(map(float, value)) if key in ("x", "y") else value
    return Witness(prop, t, stored, violation, note)


def replay(subject, witness: Witness) -> float:
    """Recompute the witness violation from its stored inputs alone."""
    ev = _evaluator(subject)
    return _violation(
        witness.property,
        ev,
        subject_kind(subject),
        dict(witness.params),
        _upper(subject),
    )


# --- built-in coverage suite ------------------------------------------------------
#
# Every property gets at least one subject expected to satisfy it and one
# expected to break it, so a harness that can no longer fail is caught by the
# test suite.


@dataclass(frozen=True)
class CoverageCase:
    subject: object
    property: PropertyId
    expect: str  # "pass" | "fail" | "not-applicable"
    label: str


def _raw_euclidean_similarity(vx: np.ndarray, vy: np.ndarray) -> float:
    d = vx - vy
    return 1.0 / (1.0 + float(np.sqrt(np.dot(d, d))))


def coverage_suite() -> tuple[CoverageCase, ...]:
    """Subjects exercising every property in both directions."""
    from .estimates import ArithmeticMean, GeneralizedMidrange, Min, central_values
    from .measures import (
        ComplementDecay,
        MinkowskiBranch,
        Pearson,
        PowerHalf,
        RationalDecay,
        SimilarityBranch,
        SimilarityDifference,
    )
    from .standardize import Center, preset

    unit_mean = preset("unit-mean")
    pearson = Pearson()
    abs_pearson = AbsSimilarity(pearson)
    dissim_unit = DissimilaritySpec(2.0, unit_mean)
    dissim_center_mean = DissimilaritySpec(2.0, Center(ArithmeticMean()))
    recipe_rational = SimilarityRecipe(dissim_unit, RationalDecay(1.0))
    recipe_complement = SimilarityRecipe(dissim_unit, ComplementDecay(PowerHalf(2.0), 2.0))
    recipe_center_mean = SimilarityRecipe(dissim_center_mean, RationalDecay(1.0))
    recipe_min_center = SimilarityRecipe(DissimilaritySpec(2.0, Center(Min())), RationalDecay(1.0))
    branch_min_center = SimilarityBranch(recipe_min_center)
    branch_center_mean = MinkowskiBranch(dissim_center_mean, RationalDecay(1.0))
    difference_rational = SimilarityDifference(recipe_rational)

    def lopsided_gmdr(vx: np.ndarray, vy: np.ndarray) -> float:
        # correlation with the x-denominator reused for y: not symmetric
        est = GeneralizedMidrange(0, 2)
        fx = vx - central_values(est, vx)
        fy = vy - central_values(est, vy)
        fy_wrong = vy - central_values(est, vx)
        denom = np.sqrt(np.dot(fx, fx) * np.dot(fy_wrong, fy_wrong))
        return float(np.dot(fx, fy) / denom)

    def unit_dissim(vx, vy):
        return dissimilarity_values(dissim_unit, vx, vy)

    probe_lopsided = Probe(_ASSOC, lopsided_gmdr, "lopsided-gmidrange-correlation", min_n=5)
    probe_offset_dissim = Probe(_DISSIM, lambda vx, vy: unit_dissim(vx, vy) + 0.1, "offset-dissim")
    probe_negated_dissim = Probe(_DISSIM, lambda vx, vy: -unit_dissim(vx, vy), "negated-dissim")
    probe_raw_euclid = Probe(_SIM, _raw_euclidean_similarity, "raw-euclidean-similarity")
    probe_overscaled_sim = Probe(
        _SIM, lambda vx, vy: 1.5 - 0.2 * unit_dissim(vx, vy), "overscaled-similarity"
    )
    probe_overscaled_assoc = Probe(
        _ASSOC,
        lambda vx, vy: 1.5 * associate_values(pearson, vx, vy),
        "overscaled-association",
    )

    P = PropertyId
    cases = [
        (pearson, P.SYMMETRY, "pass"),
        (probe_lopsided, P.SYMMETRY, "fail"),
        (dissim_unit, P.DISSIM_SELF_ZERO, "pass"),
        (probe_offset_dissim, P.DISSIM_SELF_ZERO, "fail"),
        (recipe_rational, P.SIM_REFLEXIVITY, "pass"),
        (probe_overscaled_sim, P.SIM_REFLEXIVITY, "fail"),
        (pearson, P.ASSOC_REFLEXIVITY, "pass"),
        (difference_rational, P.ASSOC_REFLEXIVITY, "fail"),
        (pearson, P.INVERSE_REFLEXIVITY, "pass"),
        (difference_rational, P.INVERSE_REFLEXIVITY, "fail"),
        (pearson, P.INVERSE_RELATIONSHIP, "pass"),
        (branch_min_center, P.INVERSE_RELATIONSHIP, "fail"),
        (pearson, P.TRANSLATION_INVARIANCE, "pass"),
        (probe_raw_euclid, P.TRANSLATION_INVARIANCE, "fail"),
        (pearson, P.SCALE_INVARIANCE, "pass"),
        (branch_center_mean, P.SCALE_INVARIANCE, "fail"),
        (pearson, P.AFFINE_SIGN_RULE, "pass"),
        (branch_center_mean, P.AFFINE_SIGN_RULE, "fail"),
        (recipe_rational, P.SIGN_PERMUTATION, "pass"),
        (recipe_min_center, P.SIGN_PERMUTATION, "fail"),
        (recipe_rational, P.SIGN_CANCELLATION, "pass"),
        (recipe_min_center, P.SIGN_CANCELLATION, "fail"),
        (recipe_complement, P.COMPLEMENT_OF_REFLECTIONS, "pass"),
        (recipe_rational, P.COMPLEMENT_OF_REFLECTIONS, "fail"),
        (abs_pearson, P.REFLECTION_INVARIANCE, "pass"),
        (recipe_rational, P.REFLECTION_INVARIANCE, "fail"),
        (abs_pearson, P.SIMILARITY_OF_REFLECTIONS, "pass"),
        (recipe_complement, P.SIMILARITY_OF_REFLECTIONS, "fail"),
        (recipe_rational, P.WEAK_SIMILARITY_OF_REFLECTIONS, "pass"),
        (probe_overscaled_sim, P.WEAK_SIMILARITY_OF_REFLECTIONS, "fail"),
        (recipe_complement, P.NON_SIMILARITY_OF_REFLECTIONS, "pass"),
        (recipe_rational, P.NON_SIMILARITY_OF_REFLECTIONS, "fail"),
        (recipe_center_mean, P.CONSTANT_SERIES_SIMILARITY, "pass"),
        (probe_raw_euclid, P.CONSTANT_SERIES_SIMILARITY, "fail"),
        (recipe_rational, P.CONSTANT_SERIES_SIMILARITY, "not-applicable"),
        (pearson, P.RANGE_BOUNDS, "pass"),
        (probe_overscaled_assoc, P.RANGE_BOUNDS, "fail"),
        (probe_negated_dissim, P.RANGE_BOUNDS, "fail"),
    ]
    return tuple(
        CoverageCase(subject, prop, expect, f"{prop.value}:{expect}")
        for subject, prop, expect in cases
    )
