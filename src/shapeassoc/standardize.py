"""Standardizations: centering and center-plus-scale normalization.

A standardization F rewrites a series so that comparisons see shape rather
than raw level. Two families:

- Center(E):            F(x) = x - E(x)
- CenterScale(E1, E2):  F(x) = (x - E1(x)) / E2(x)

Both are idempotent (F(F(x)) = F(x)) and translation invariant. Each carries,
as attributes derived from its estimates, the traits measure constructors
rely on: `odd` (F(-x) = -F(x)), `scale_invariant` (F(p x) = F(x) for p > 0;
True for CenterScale, while Center is scale proportional instead) and
`normality_order` (r when sum_i |F(x)_i|**r == 1, which bounds the order-r
dissimilarity of standardized series by 2; else None).
"""

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConstantSeriesError, DomainError, SpecError
from .estimates import (
    ArithmeticMean,
    CentralEstimate,
    GeneralizedMidrange,
    Min,
    MinkowskiDeviation,
    ScaleEstimate,
    Spec,
    _checked,
    central_values,
    finite,
    minkowski_norm,
    scale_values,
)
from .series import TimeSeries, is_constant_values


class Standardization(Spec):
    """Family base of the standardizations."""

    scale_invariant: ClassVar[bool]
    normality_order = None


@dataclass(frozen=True)
class Center(Standardization):
    """Subtract a central estimate: F(x) = x - E(x)."""

    tag = "center"
    scale_invariant = False
    center: CentralEstimate
    odd = property(lambda self: self.center.odd)

    def evaluate(self, v: np.ndarray) -> np.ndarray:
        return v - central_values(self.center, v)


@dataclass(frozen=True)
class CenterScale(Standardization):
    """Subtract a center, divide by a spread: F(x) = (x - E1(x)) / E2(x)."""

    tag = "center-scale"
    scale_invariant = True
    center: CentralEstimate
    spread: ScaleEstimate
    odd = property(lambda self: self.center.odd and self.spread.even)

    def _validate(self):
        # r when the spread is the order-r Minkowski deviation of the same center
        s = self.spread
        r = s.r if isinstance(s, MinkowskiDeviation) and s.center == self.center else None
        object.__setattr__(self, "normality_order", r)

    def evaluate(self, v: np.ndarray) -> np.ndarray:
        if is_constant_values(v):
            raise ConstantSeriesError("cannot scale a constant series; its spread is zero")
        centered = v - central_values(self.center, v)
        r = self.normality_order
        if r is None:
            spread = scale_values(self.spread, v)
        else:  # the deviation around the center just subtracted: the norm of `centered`
            spread = finite(minkowski_norm(centered, r), self.spread.tag, "scale")
        if spread == 0.0:
            raise DomainError("spread underflows to 0; the values are too small for float64")
        return centered / spread


# id of each member array -> {id(key): (key, its result)}, while a matrix runs; holding
# the key keeps a new object from taking its id. A member is a read-only series' values,
# or an array stored here: F(v), -v, F(-v), Pearson's centered vector and squared norm.
_store: ContextVar[dict[int, dict] | None] = ContextVar("_store", default=None)


@contextmanager
def _standardized_once(arrays):
    """Within the block, per-series work is computed once per key object for each
    read-only array a, which the caller keeps alive until the block ends."""
    token = _store.set({id(a): {} for a in arrays if not a.flags.writeable})
    try:
        yield
    finally:
        _store.reset(token)


def _once(key, v: np.ndarray, compute):
    """compute(v): a new array, or a tuple led by one. Inside a matrix, for a member
    array v, computed once per key object; its array is then read-only and a member too."""
    store = _store.get()
    results = None if store is None else store.get(id(v))
    if results is None:
        return compute(v)
    held = results.get(id(key))
    if held is not None:
        return held[1]
    out = compute(v)
    results[id(key)] = key, out
    a = out[0] if type(out) is tuple else out
    a.flags.writeable = False
    store.setdefault(id(a), {})
    return out


def _negated(v: np.ndarray) -> np.ndarray:
    """-v; inside a matrix, one stored negation per member array, made on first use."""
    return _once(_negated, v, np.negative)


def standardize_values(spec: Standardization, v: np.ndarray) -> np.ndarray:
    """Apply the standardization to a raw value vector.

    Inside `association_matrix`, a member series' values and their negation are
    standardized once per standardization object, the read-only result reused."""
    return _once(spec, v, spec.evaluate)


def standardize(spec: Standardization, x: TimeSeries) -> TimeSeries:
    """Standardized copy of x, same id; an error naming x when x is constant
    under a scaling standardization or its values overflow."""
    try:
        out = standardize_values(spec, x.values)
        if not np.isfinite(out).all():
            raise DomainError("standardized values are not finite; the values overflow float64")
    except (ConstantSeriesError, DomainError) as exc:
        raise type(exc)(f"series {x.id!r}: {exc}") from exc
    return TimeSeries(x.id, out)


PRESETS = ("center-mean", "center-min", "unit-mean", "unit-gmidrange")


def preset(name: str, r: float = 2.0, k: int = 0, m: int = 2) -> Standardization:
    """Named shorthand for the most used standardizations.

    - "center-mean":     Center(ArithmeticMean())
    - "center-min":      Center(Min())
    - "unit-mean":       CenterScale(AM, MinkowskiDeviation(r, AM))
    - "unit-gmidrange":  CenterScale(GMDR(k, m), MinkowskiDeviation(r, same))

    Arguments follow the spec field rule; one the preset does not read must keep its default.
    """
    name, r = _checked("name", str, name), _checked("r", float, r)
    k, m = _checked("k", int, k), _checked("m", int, m)
    unread = {"center-mean": "rkm", "center-min": "rkm", "unit-mean": "km"}.get(name, "")
    for key, value, default in (("r", r, 2.0), ("k", k, 0), ("m", m, 2)):
        if key in unread and value != default:
            raise SpecError(f"preset {name!r} does not use {key}, got {key}={value!r}")
    if name == "center-mean":
        return Center(ArithmeticMean())
    if name == "center-min":
        return Center(Min())
    if name == "unit-mean":
        e = ArithmeticMean()
        return CenterScale(e, MinkowskiDeviation(r, e))
    if name == "unit-gmidrange":
        e = GeneralizedMidrange(k, m)
        return CenterScale(e, MinkowskiDeviation(r, e))
    raise SpecError(f"unknown preset {name!r}; expected one of {PRESETS}")
