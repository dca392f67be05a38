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

from __future__ import annotations

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
    central_values,
    finite_scale,
    minkowski_norm,
    scale_values,
)
from .series import TimeSeries, is_constant_values


class Standardization:
    """Family base of the standardizations."""

    tag: ClassVar[str]
    scale_invariant: ClassVar[bool]
    normality_order = None


@dataclass(frozen=True)
class Center(Standardization):
    """Subtract a central estimate: F(x) = x - E(x)."""

    tag = "center"
    scale_invariant = False
    center: CentralEstimate
    bounds = property(lambda self: self.center.bounds)
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

    def __post_init__(self):
        # r when the spread is the order-r Minkowski deviation of the same center
        s = self.spread
        r = s.r if isinstance(s, MinkowskiDeviation) and s.center == self.center else None
        object.__setattr__(self, "normality_order", r)

    @property
    def bounds(self) -> tuple[int, int | None]:
        (lo, exact), (lo2, exact2) = self.center.bounds, self.spread.bounds
        return max(lo, lo2), exact if exact is not None else exact2

    def evaluate(self, v: np.ndarray) -> np.ndarray:
        if is_constant_values(v):
            raise ConstantSeriesError("cannot scale a constant series; its spread is zero")
        centered = v - central_values(self.center, v)
        r = self.normality_order
        if r is None:
            spread = scale_values(self.spread, v)
        else:  # the deviation around the center just subtracted: the norm of `centered`
            spread = finite_scale(self.spread, minkowski_norm(centered, r))
        if spread == 0.0:
            raise DomainError("spread underflows to 0; the values are too small for float64")
        return centered / spread


def standardize_values(spec: Standardization, v: np.ndarray) -> np.ndarray:
    """Apply the standardization to a raw value vector."""
    return spec.evaluate(v)


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


_PRESETS = ("center-mean", "center-min", "unit-mean", "unit-gmidrange")


def preset(name: str, r: float = 2.0, k: int = 0, m: int = 2) -> Standardization:
    """Named shorthand for the most used standardizations.

    - "center-mean":     Center(ArithmeticMean())
    - "center-min":      Center(Min())
    - "unit-mean":       CenterScale(AM, MinkowskiDeviation(r, AM))
    - "unit-gmidrange":  CenterScale(GMDR(k, m), MinkowskiDeviation(r, same))
    """
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
    raise SpecError(f"unknown preset {name!r}; expected one of {_PRESETS}")
