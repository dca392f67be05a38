"""Standardizations: centering and center-plus-scale normalization.

A standardization F rewrites a series so that comparisons see shape rather
than raw level. Two families:

- Center(E):            F(x) = x - E(x)
- CenterScale(E1, E2):  F(x) = (x - E1(x)) / E2(x)

Both are idempotent (F(F(x)) = F(x)) and translation invariant. CenterScale is
additionally scale invariant; Center is only scale proportional. `flags`
derives the properties a measure constructor may rely on, from the traits of
the chosen estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConstantSeriesError, SpecError
from .estimates import (
    ArithmeticMean,
    CentralEstimate,
    GeneralizedMidrange,
    Min,
    MinkowskiDeviation,
    ScaleEstimate,
    central_values,
    scale_values,
)
from .series import TimeSeries


@dataclass(frozen=True)
class StandardizationFlags:
    """Algebraic behavior that measure constructors depend on.

    normality_order is set when the spread is the Minkowski deviation of the
    same center at order r: then sum_i |F(x)_i|**r == 1, which bounds the
    order-r dissimilarity of standardized series by 2.
    """

    translation_invariant: bool
    scale_invariant: bool
    scale_proportional: bool
    odd: bool
    normality_order: float | None


class Standardization:
    """Family base of the standardizations; `flags` is set at construction."""

    tag: ClassVar[str]


@dataclass(frozen=True)
class Center(Standardization):
    """Subtract a central estimate: F(x) = x - E(x)."""

    tag = "center"
    center: CentralEstimate
    bounds = property(lambda self: self.center.bounds)

    def __post_init__(self):
        f = StandardizationFlags(
            translation_invariant=True,
            scale_invariant=False,
            scale_proportional=True,
            odd=self.center.odd,
            normality_order=None,
        )
        object.__setattr__(self, "flags", f)

    def evaluate(self, v: np.ndarray) -> np.ndarray:
        return v - central_values(self.center, v)


@dataclass(frozen=True)
class CenterScale(Standardization):
    """Subtract a center, divide by a spread: F(x) = (x - E1(x)) / E2(x)."""

    tag = "center-scale"
    center: CentralEstimate
    spread: ScaleEstimate

    def __post_init__(self):
        normality = None
        if isinstance(self.spread, MinkowskiDeviation) and self.spread.center == self.center:
            normality = self.spread.r
        f = StandardizationFlags(
            translation_invariant=True,
            scale_invariant=True,
            scale_proportional=False,
            odd=self.center.odd and self.spread.even,
            normality_order=normality,
        )
        object.__setattr__(self, "flags", f)

    @property
    def bounds(self) -> tuple[int, int | None]:
        (lo, exact), (lo2, exact2) = self.center.bounds, self.spread.bounds
        return max(lo, lo2), exact if exact is not None else exact2

    def evaluate(self, v: np.ndarray) -> np.ndarray:
        if np.all(v == v[0]):
            raise ConstantSeriesError(
                "cannot scale a constant series; its spread is zero"
            )
        centered = v - central_values(self.center, v)
        return centered / scale_values(self.spread, v)


def flags(spec: Standardization) -> StandardizationFlags:
    """Algebraic behavior of a standardization, from its estimates' traits."""
    return spec.flags


def standardize_values(spec: Standardization, v: np.ndarray) -> np.ndarray:
    """Apply the standardization to a raw value vector."""
    return spec.evaluate(v)


def standardize(spec: Standardization, x: TimeSeries) -> TimeSeries:
    """Standardized copy of x, same id."""
    return TimeSeries(x.id, standardize_values(spec, x.values))


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
