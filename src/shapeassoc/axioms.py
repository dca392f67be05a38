"""Randomized verification of measure properties, with replayable witnesses.

`verify` throws generated series at a subject (an association measure, a
similarity recipe, or a dissimilarity spec) and checks each requested property
up to a tolerance. A subject carries all the harness needs: its `kind`, its
length `bounds`, the `limits` its values must lie within, and
`checked(vx, vy)`, the call that evaluates it. Failures carry a witness: the
exact inputs and transform parameters that broke the property, so the report
stands on its own, and `replay` recomputes its violation through the same
trial evaluation.

Each property is defined once, on its `PropertyId` member: the subject kinds
it applies to, the inputs it draws, its transform parameters and its
violation formula.

A trial's inputs are fully determined by (seed, property, trial index) and
the length range: `n_range` raised to the subject's least length, or the
subject's exact length. Two runs with the same arguments produce
byte-identical reports, and subjects with different `bounds` see different
series. Subjects with the same range share each trial's inputs up to n = 62:
drawn once, they are kept read-only in a cache of at most 2**20 floats (8 MB).
"""

import enum
import functools
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ConstantSeriesError, DomainError, SpecError
from .config import plain, to_dict, to_json
from .estimates import Spec, _checked, _real, _unwritable
from .measures import MeasureSpec, associate_values
from .series import is_constant_values


_ASSOC = "association"
_SIM = "similarity"
_DISSIM = "dissimilarity"
_ALL = (_ASSOC, _SIM, _DISSIM)
# the value interval of each kind; a normal dissimilarity narrows its own to (0, 2)
_LIMITS = {_ASSOC: (-1.0, 1.0), _SIM: (0.0, 1.0), _DISSIM: (0.0, math.inf)}
_MAX_N = np.iinfo(np.intp).max // 8  # the most float64 values a numpy array can hold
_CACHED_N = 2**20 // (2 * 8400)  # 8,400 cached trials of two such series hold <= 2**20 floats

_SCALE_CHOICES = (1e-3, 0.5, 2.0, 1e3)
_AFFINE_SLOPES = (-3.0, -1.0, 0.5, 2.0)
_OFFSET_RANGE = 10.0


# `rng` annotations are quoted: evaluated, they would import numpy.random with the package
def _offset(rng: "np.random.Generator") -> float:
    return float(rng.uniform(-_OFFSET_RANGE, _OFFSET_RANGE))


def _affine_params(rng: "np.random.Generator") -> dict:
    return {
        "scale_x": float(rng.choice(_AFFINE_SLOPES)),
        "scale_y": float(rng.choice(_AFFINE_SLOPES)),
        "offset_x": _offset(rng),
        "offset_y": _offset(rng),
    }


def _affine_sign_rule(s, x, y, p) -> float:
    px, py = p["scale_x"], p["scale_y"]
    lhs = s.checked(px * x + p["offset_x"], py * y + p["offset_y"])
    return abs(lhs - math.copysign(1.0, px) * math.copysign(1.0, py) * s.checked(x, y))


def _range_bounds(s, x, y, p) -> float:
    lo, hi = s.limits
    v = s.checked(x, y)
    return max(0.0, lo - v, v - hi)


class PropertyId(enum.Enum):
    """Every property the harness can check, each defined on its member.

    A member's value is its string id. It also carries:

    - `kinds`: the subject kinds it applies to;
    - `inputs`: what a trial draws, "x", "xy", or "constants" (two constant
      series, drawn after an x that they replace);
    - `draw(rng)`: the transform parameters, as a dict;
    - `violation(subject, x, y, params)`: how far one trial is from the
      property, 0 when it held exactly. It evaluates the subject through
      `subject.checked` and reads any other need, like `subject.limits`, off
      the subject.

    A member's position (`index`) seeds its trials, so member order must
    never change: append new members at the end.
    """

    def __new__(cls, value, kinds, inputs, violation, draw=lambda rng: {}):
        member = object.__new__(cls)
        member._value_ = value
        member.index = len(cls.__members__)
        member.kinds, member.inputs, member.violation, member.draw = kinds, inputs, violation, draw
        return member

    SYMMETRY = "symmetry", _ALL, "xy", lambda s, x, y, *_: abs(s.checked(x, y) - s.checked(y, x))
    DISSIM_SELF_ZERO = "dissim-self-zero", (_DISSIM,), "x", lambda s, x, *_: abs(s.checked(x, x))
    SIM_REFLEXIVITY = "sim-reflexivity", (_SIM,), "x", lambda s, x, *_: abs(s.checked(x, x) - 1.0)
    ASSOC_REFLEXIVITY = (
        "assoc-reflexivity", (_ASSOC,), "x", lambda s, x, *_: abs(s.checked(x, x) - 1.0)
    )
    INVERSE_REFLEXIVITY = (
        "inverse-reflexivity", (_ASSOC,), "x", lambda s, x, *_: abs(s.checked(-x, x) + 1.0)
    )
    INVERSE_RELATIONSHIP = (
        "inverse-relationship", (_ASSOC,), "xy",
        lambda s, x, y, *_: abs(s.checked(-x, y) + s.checked(x, y)),
    )
    TRANSLATION_INVARIANCE = (
        "translation-invariance", _ALL, "xy",
        lambda s, x, y, p: abs(s.checked(x + p["offset"], y) - s.checked(x, y)),
        lambda rng: {"offset": _offset(rng)},
    )
    SCALE_INVARIANCE = (
        "scale-invariance", _ALL, "xy",
        lambda s, x, y, p: abs(s.checked(p["scale"] * x, y) - s.checked(x, y)),
        lambda rng: {"scale": float(rng.choice(_SCALE_CHOICES))},
    )
    AFFINE_SIGN_RULE = "affine-sign-rule", (_ASSOC,), "xy", _affine_sign_rule, _affine_params
    SIGN_PERMUTATION = (
        "sign-permutation", _ALL, "xy",
        lambda s, x, y, *_: abs(s.checked(-x, y) - s.checked(x, -y)),
    )
    SIGN_CANCELLATION = (
        "sign-cancellation", _ALL, "xy",
        lambda s, x, y, *_: abs(s.checked(-x, -y) - s.checked(x, y)),
    )
    COMPLEMENT_OF_REFLECTIONS = (
        "complement-of-reflections", (_SIM,), "xy",
        lambda s, x, y, *_: abs(s.checked(-x, y) - (1.0 - s.checked(x, y))),
    )
    REFLECTION_INVARIANCE = (
        "reflection-invariance", (_SIM,), "xy",
        lambda s, x, y, *_: abs(s.checked(-x, y) - s.checked(x, y)),
    )
    SIMILARITY_OF_REFLECTIONS = (
        "similarity-of-reflections", (_SIM,), "x", lambda s, x, *_: abs(s.checked(-x, x) - 1.0)
    )
    WEAK_SIMILARITY_OF_REFLECTIONS = (
        "weak-similarity-of-reflections", (_SIM,), "x",
        lambda s, x, *_: max(0.0, s.checked(-x, x) - 1.0),
    )
    NON_SIMILARITY_OF_REFLECTIONS = (
        "non-similarity-of-reflections", (_SIM,), "x", lambda s, x, *_: abs(s.checked(-x, x))
    )
    CONSTANT_SERIES_SIMILARITY = (
        "constant-series-similarity", (_SIM,), "constants",
        lambda s, x, y, *_: abs(s.checked(x, y) - 1.0),
    )
    RANGE_BOUNDS = "range-bounds", _ALL, "xy", _range_bounds


# the defining axioms of a shape association measure
SAM_PROPERTIES = (
    PropertyId.SYMMETRY,
    PropertyId.RANGE_BOUNDS,
    PropertyId.ASSOC_REFLEXIVITY,
    PropertyId.INVERSE_REFLEXIVITY,
    PropertyId.INVERSE_RELATIONSHIP,
    PropertyId.TRANSLATION_INVARIANCE,
)


@dataclass(frozen=True)
class AbsSimilarity(Spec):
    """|A| of a measure, verified as a similarity in [0, 1]."""

    tag = "abs-similarity"
    kind = _SIM
    measure: MeasureSpec
    limits = _LIMITS[_SIM]

    def evaluate(self, vx: np.ndarray, vy: np.ndarray) -> float:
        return abs(associate_values(self.measure, vx, vy))

    checked = evaluate


@dataclass(frozen=True)
class Probe(Spec):
    """A raw callable as a subject, to verify a function that has no spec."""

    kind: str
    fn: Callable  # called as fn(vx, vy) -> float
    name: str
    min_n: int = 2
    bounds = property(lambda self: (self.min_n, None))
    limits = property(lambda self: _LIMITS[self.kind])

    def _validate(self):
        if self.kind not in _ALL:
            raise SpecError(f"unknown subject kind {self.kind!r}")

    def evaluate(self, vx: np.ndarray, vy: np.ndarray) -> float:
        value = self.fn(vx, vy)
        if math.isnan(value):
            raise DomainError(f"probe {self.name!r} returned NaN")
        return value

    checked = evaluate

    def to_dict(self) -> dict:
        return {"kind": "probe", "name": self.name}


def describe_subject(subject) -> dict:
    return {"subject": subject.kind, **plain(subject)}


# --- deterministic input generation -------------------------------------------


# the input style of trial t is _STYLES[t % 10]
_STYLES = ("uniform",) * 7 + ("monotone", "near-constant", "alternating")


def _draw_series(rng: "np.random.Generator", n: int, style: str) -> np.ndarray:
    if style == "uniform":
        v = rng.uniform(-10.0, 10.0, n)
    elif style == "monotone":
        steps = rng.uniform(0.05, 1.0, n)
        v = rng.uniform(-10.0, 10.0) + np.cumsum(steps)
        if rng.uniform() < 0.5:
            v = v[::-1].copy()
    elif style == "near-constant":
        v = rng.uniform(-1.0, 1.0) + rng.uniform(-0.5e-6, 0.5e-6, n)
    else:  # alternating
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        v = signs * rng.uniform(0.5, 5.0, n)
    if is_constant_values(v):
        # probability-zero fallback; keep the draw non-constant
        v = v.copy()
        v[0] += max(1e-6, abs(v[0]) * 1e-6)
    return v


# Criterion 3 of the acceptance suite draws 3 seeds x 7 properties x 200 trials
# over 2 length ranges: 8,400 trials of n <= 60. Its subjects switch between the
# two ranges, so a key comes back after all the others: a smaller LRU bound would
# evict every draw before its reuse. `verify` caches no series past _CACHED_N.
@functools.lru_cache(maxsize=8400)
def _draw_trial(seed: int, prop: PropertyId, t: int, exact_n: int | None, lo: int, hi: int):
    """The inputs (x, y, params) of trial t of `prop`; y is None for an "x" property.

    They are shared by every subject that asks for them, so the arrays are
    read-only and params is a read-only mapping.
    """
    rng = np.random.default_rng([seed, prop.index, t])
    n = int(exact_n if exact_n is not None else rng.integers(lo, hi + 1))
    style = _STYLES[t % 10]
    x = _draw_series(rng, n, style)
    y = _draw_series(rng, n, style) if prop.inputs == "xy" else None
    if prop.inputs == "constants":
        q, r = rng.uniform(-10.0, 10.0, 2)
        x, y = np.full(n, q), np.full(n, r)
    for v in (x, y):
        if v is not None:
            v.flags.writeable = False
    return x, y, MappingProxyType(prop.draw(rng))


def _trial(prop: PropertyId, subject, x, y, params: dict):
    """(violation, note) of one trial; a DomainError or a NaN is an infinite violation."""
    try:
        v = prop.violation(subject, x, y, params)
    except DomainError as exc:
        return math.inf, f"raised: {exc}"
    return (math.inf, "violation is NaN") if math.isnan(v) else (v, "")


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
        """Fields with the params at the top level; the note only when set."""
        out = to_dict(self)
        out.update(out.pop("params"))
        if not self.note:
            del out["note"]
        return out


@dataclass(frozen=True)
class PropertyResult:
    property: PropertyId
    status: str  # "pass" | "fail" | "not-applicable"
    trials: int
    worst_violation: float
    witness: Witness | None = None


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

    def to_json(self) -> str:
        return to_json(self)

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
    return tuple(p for p in PropertyId if subject.kind in p.kinds)


def verify(
    subject,
    properties: tuple[PropertyId, ...] | None = None,
    trials: int = 200,
    n_range: tuple[int, int] = (3, 60),
    seed: int = 0,
    tol: float = 1e-8,
) -> PropertyReport:
    """Check properties on randomized inputs; see module docstring.

    By the spec field rule, `seed`, `trials` and both ends of `n_range` are
    integers and `properties` PropertyIds; `tol` is a real number (a bool is
    neither). No `n_range` end, nor the subject's least length, exceeds the
    float64 values an array can hold. The arrays a subject is called with
    are read-only, because other subjects share them: a subject that writes
    into one raises numpy's ValueError, which `verify` does not catch.

    Properties that do not apply to the subject's kind (or that need inputs
    the subject refuses, like constants under a scale-invariant
    standardization) come back "not-applicable", never an exception.
    """
    trials, seed = _checked("trials", int, trials), _checked("seed", int, seed)
    n_range = _checked("n_range", tuple[int, ...], n_range)
    if len(n_range) != 2:
        raise SpecError(f"n_range must be two integers, got {n_range!r}")
    lo_req, hi_req = n_range
    if trials < 1:
        raise SpecError(f"trials must be >= 1, got {trials}")
    tol = _real("tol", tol)
    if not tol >= 0.0:  # a NaN tol would pass every property
        raise SpecError(f"tol must be >= 0, got {_unwritable(tol) or repr(tol)}")
    tol = float(tol) if tol <= sys.float_info.max else math.inf  # an int may exceed any float
    if seed < 0:
        raise SpecError(f"seed must be >= 0, got {seed}")
    if not 2 <= lo_req <= hi_req <= _MAX_N:
        raise SpecError(f"bad n_range {n_range!r}; it needs 2 <= start <= end <= {_MAX_N}")
    kind = subject.kind
    props = _checked("properties", tuple[PropertyId, ...] | None, properties)
    if props is None:
        props = applicable_properties(subject)
    min_n, exact_n = subject.bounds
    if (lo := exact_n or max(lo_req, min_n)) > _MAX_N:
        raise SpecError(f"the subject's least length {lo} is past {_MAX_N}, the most values an array holds")
    hi = exact_n or max(hi_req, lo)
    draw = _draw_trial if hi <= _CACHED_N else _draw_trial.__wrapped__  # longer: drawn afresh

    def check(prop: PropertyId) -> PropertyResult:
        if kind not in prop.kinds:
            return PropertyResult(prop, "not-applicable", 0, 0.0)
        worst, witness = 0.0, None
        for t in range(trials):
            x, y, params = draw(seed, prop, t, exact_n, lo, hi)
            try:
                v, note = _trial(prop, subject, x, y, params)
            except ConstantSeriesError:
                if prop.inputs != "constants":
                    raise
                return PropertyResult(prop, "not-applicable", 0, 0.0)
            if note or v > worst:
                series = {"x": x} if y is None else {"x": x, "y": y}
                inputs = {key: tuple(s.tolist()) for key, s in series.items()}
                worst, witness = v, Witness(prop, t, {**inputs, **params}, v, note)
            if note:
                break
        status = "fail" if worst > tol else "pass"
        return PropertyResult(prop, status, t + 1, worst, witness if status == "fail" else None)

    return PropertyReport(
        subject=describe_subject(subject),
        kind=kind,
        seed=seed,
        trials=trials,
        n_range=(lo, hi),
        tol=tol,
        results=tuple(check(prop) for prop in props),
    )


def replay(subject, witness: Witness) -> float:
    """Recompute the witness violation from its stored inputs alone; inf when
    the subject raises DomainError, as `verify` records it."""
    params = dict(_checked("witness", Witness, witness).params)
    x = np.asarray(params.pop("x"), dtype=np.float64)
    y = np.asarray(params.pop("y"), dtype=np.float64) if "y" in params else None
    return _trial(witness.property, subject, x, y, params)[0]
