"""Central (location) and scale estimates used by standardizations.

Every central estimate maps a series to a single number lying between its
minimum and maximum. Estimates are small frozen spec objects; each class
carries its JSON tag, its evaluation (`evaluate`), its length bounds and the
algebraic traits that standardizations and measures rely on. `Spec`, the
base of every spec family here and in the modules above, checks each field
against its annotation, derives a composite's `bounds` from its parts, and
only then runs the class's own rule, `_validate`. `central_values` and
`scale_values` evaluate them on a value vector, with their length checks and
`finite`, the one overflow rule. `minkowski_norm` is the one order-r norm, used by
MinkowskiDeviation, CenterScale and the Minkowski dissimilarity of `measures`.

- translation additive:  E(x + q) = E(x) + q
- scale proportional:    E(p * x) = p * E(x) for p > 0
- odd:                   E(-x) = -E(x)
"""

import math
import sys
from dataclasses import dataclass, fields
from types import GenericAlias, UnionType
from typing import ClassVar, get_type_hints

import numpy as np

from .errors import DomainError, SpecError


def _check_weights(spec) -> None:
    w = spec.weights
    if len(w) < 2:
        raise SpecError(f"need at least two weights, got {len(w)}: a series has at least two samples")
    if any(v < 0.0 for v in w):
        raise SpecError("weights must be nonnegative")
    total = float(np.sum(w))
    if abs(total - 1.0) > 1e-9:
        raise SpecError(f"weights must sum to 1 within 1e-9, got {total!r}")
    _set_bounds(spec, len(w), len(w))


def _set_bounds(spec, lo: int, exact: int | None = None) -> None:
    # every series has at least two samples
    object.__setattr__(spec, "bounds", (max(2, lo), exact))


def _unwritable(value) -> str:
    """For an int too long for `repr`, `str` and `json`, "an integer of N digits"; else "".
    They write at most `sys.get_int_max_str_digits()` digits; before Python 3.10.7, any number."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not isinstance(value, int) or not 0 < 3 * limit < value.bit_length():  # 8**limit < 10**limit
        return ""
    d = int(value.bit_length() * math.log10(2)) + 1  # the count, or one more
    d -= abs(value) < 10 ** (d - 1)
    return f"an integer of {d} digits" if d > limit else ""


def _real(name: str, value) -> int | float:
    # a bool is no number; a Python number is kept as given, a numpy one made JSON-writable
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise SpecError(f"{name} must be a real number, got {value!r}")
    return value.item() if isinstance(value, np.generic) else value


def _checked(what: str, kind, value):
    """`value` as a field of type `kind` holds it, or SpecError "`what` must be ...".

    For spec fields and public functions' arguments: an int also takes a numpy integer; a
    float `_real`, finite, stored as a float; a bool a numpy bool; `X | None` None or an X;
    `tuple[X, ...]` any iterable of X's but a str or a dict; a family an instance."""
    if shown := _unwritable(value):  # first: an int no refusal below could write
        raise SpecError(f"{what} must have at most {sys.get_int_max_str_digits()} digits, got {shown}")
    if kind is float:  # before the shortcut below, which a float nan would pass
        value = _real(what, value)
        if not abs(value) <= sys.float_info.max:
            raise SpecError(f"{what} must be a finite real number, got {value!r}")
        return float(value)
    if type(value) is kind:  # already as the field holds it
        return value
    if kind is int:  # a bool or float is no index; int() makes a numpy integer JSON-writable
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise SpecError(f"{what} must be an integer, got {value!r}")
        return int(value)
    if kind is bool or kind is str:
        if not isinstance(value, (bool, np.bool_) if kind is bool else str):
            raise SpecError(f"{what} must be a {'boolean' if kind is bool else 'string'}, got {value!r}")
        return kind(value)
    if isinstance(kind, UnionType):  # X | None
        return None if value is None else _checked(what, kind.__args__[0], value)
    if isinstance(kind, GenericAlias):  # tuple[X, ...]
        if isinstance(value, (str, dict)) or not hasattr(value, "__iter__"):
            raise SpecError(f"{what} must be a tuple, got {value!r}")
        return tuple([_checked(what, kind.__args__[0], v) for v in value])
    if not isinstance(value, kind):
        raise SpecError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")
    return value


class Spec:
    """Base of every spec: a JSON `tag` and length `bounds` (least, exact or None).

    `__post_init__`, the one construction path, stores each field as `_checked` by its
    annotation, sets `bounds` from its Spec-typed fields' lengths, then calls `_validate`."""

    tag: ClassVar[str]
    bounds = (2, None)

    def __post_init__(self):
        parts = []
        for f in fields(self):
            # a str annotation is from a subclass whose module postpones annotations
            kind = get_type_hints(type(self))[f.name] if isinstance(f.type, str) else f.type
            value = _checked(f"{type(self).__name__}.{f.name}", kind, getattr(self, f.name))
            object.__setattr__(self, f.name, value)
            if isinstance(kind, type) and issubclass(kind, Spec):
                parts.append((f.name, *value.bounds))
        if parts:  # else bounds stay (2, None)
            lo = max(n for _, n, _ in parts)
            exact = {e for _, _, e in parts if e is not None}
            if len(exact) > 1 or any(e < lo for e in exact):
                sides = (f"the {name} (length {f'>= {n}' if e is None else e})" for name, n, e in parts)
                raise SpecError(f"no length meets both {' and '.join(sides)}")
            object.__setattr__(self, "bounds", (lo, exact.pop() if exact else None))
        self._validate()

    def _validate(self):
        """The class's own construction rule; the base has none."""


class CentralEstimate(Spec):
    """Family base of the central estimates.

    Every catalog estimate is translation additive and scale proportional.
    `odd` holds for the symmetric ones; Min/Max/OrderStatistic swap under
    negation instead (OS_k(-x) = -OS_{n+1-k}(x)), and ordered weighted means
    are only odd for palindromic weights, which we do not claim.
    """

    odd: ClassVar[bool] = False


@dataclass(frozen=True)
class Min(CentralEstimate):
    tag = "min"

    def evaluate(self, v: np.ndarray) -> float:
        return float(v.min())


@dataclass(frozen=True)
class Max(CentralEstimate):
    tag = "max"

    def evaluate(self, v: np.ndarray) -> float:
        return float(v.max())


@dataclass(frozen=True)
class Midrange(CentralEstimate):
    """(min + max) / 2."""

    tag = "midrange"
    odd = True

    def evaluate(self, v: np.ndarray) -> float:
        return float((v.min() + v.max()) / 2.0)


@dataclass(frozen=True)
class Projection(CentralEstimate):
    """The k-th sample in original order (1-based)."""

    tag = "projection"
    odd = True
    k: int

    def _validate(self):
        if self.k < 1:
            raise SpecError(f"projection index must be >= 1, got {self.k}")
        _set_bounds(self, self.k)

    def evaluate(self, v: np.ndarray) -> float:
        return float(v[self.k - 1])


@dataclass(frozen=True)
class OrderStatistic(CentralEstimate):
    """The k-th smallest sample (1-based)."""

    tag = "order-statistic"
    k: int

    def _validate(self):
        if self.k < 1:
            raise SpecError(f"order statistic index must be >= 1, got {self.k}")
        _set_bounds(self, self.k)

    def evaluate(self, v: np.ndarray) -> float:
        return float(np.sort(v)[self.k - 1])


@dataclass(frozen=True)
class Median(CentralEstimate):
    tag = "median"
    odd = True

    def evaluate(self, v: np.ndarray) -> float:
        s = np.sort(v)
        mid = v.size // 2
        if v.size % 2:
            return float(s[mid])
        return float((s[mid - 1] + s[mid]) / 2.0)


@dataclass(frozen=True)
class TruncatedMean(CentralEstimate):
    """Mean after dropping the m smallest and m largest samples.

    m = 0 gives the arithmetic mean.
    """

    tag = "truncated-mean"
    odd = True
    m: int

    def _validate(self):
        if self.m < 0:
            raise SpecError(f"truncation count must be >= 0, got {self.m}")
        _set_bounds(self, 2 * self.m + 1)

    def evaluate(self, v: np.ndarray) -> float:
        return float(np.sort(v)[self.m : v.size - self.m].mean())


@dataclass(frozen=True)
class GeneralizedMidrange(CentralEstimate):
    """Mean of the m-k smallest and m-k largest samples, skipping k extremes.

    With k=0, m=1 this is the plain midrange.
    """

    tag = "generalized-midrange"
    odd = True
    k: int
    m: int

    def _validate(self):
        if not 0 <= self.k < self.m:
            raise SpecError(f"need 0 <= k < m, got k={self.k}, m={self.m}")
        _set_bounds(self, 2 * self.m + 1)

    def evaluate(self, v: np.ndarray) -> float:
        s = np.sort(v)
        n = v.size
        low = s[self.k : self.m]
        high = s[n - self.m : n - self.k]
        return float((low.sum() + high.sum()) / (2.0 * (self.m - self.k)))


@dataclass(frozen=True)
class ArithmeticMean(CentralEstimate):
    tag = "mean"
    odd = True

    def evaluate(self, v: np.ndarray) -> float:
        return float(v.sum() / v.size)  # ndarray.mean bit for bit, without its Python wrapper


@dataclass(frozen=True)
class WeightedMean(CentralEstimate):
    """Dot product with a fixed nonnegative weight vector summing to 1.

    The weight length pins the series length; weights are never renormalized.
    """

    tag = "weighted-mean"
    odd = True
    weights: tuple[float, ...]

    _validate = _check_weights

    def evaluate(self, v: np.ndarray) -> float:
        return float(np.dot(self.weights, v))


@dataclass(frozen=True)
class OrderedWeightedMean(CentralEstimate):
    """Weighted mean applied to the ascending sort of the samples."""

    tag = "ordered-weighted-mean"
    weights: tuple[float, ...]

    _validate = _check_weights

    def evaluate(self, v: np.ndarray) -> float:
        return float(np.dot(self.weights, np.sort(v)))


class ScaleEstimate(Spec):
    """Family base of the scale estimates.

    Every one is translation invariant and scale proportional; `even` means
    S(-x) = S(x).
    """


@dataclass(frozen=True)
class Range(ScaleEstimate):
    """max - min. Even: Range(-x) = Range(x)."""

    tag = "range"
    even = True

    def evaluate(self, v: np.ndarray) -> float:
        return float(v.max() - v.min())


@dataclass(frozen=True)
class MinkowskiDeviation(ScaleEstimate):
    """(sum_i |x_i - E(x)|**r) ** (1/r) around a central estimate E.

    Even exactly when its center is odd (then the deviations of -x are the
    negated deviations of x).
    """

    tag = "minkowski-deviation"
    r: float
    center: CentralEstimate

    def _validate(self):
        if self.r < 1.0:
            raise SpecError(f"deviation order must be >= 1, got {self.r!r}")

    @property
    def even(self) -> bool:
        return self.center.odd

    def evaluate(self, v: np.ndarray) -> float:
        return minkowski_norm(v - central_values(self.center, v), self.r)


def minkowski_norm(d: np.ndarray, r: float) -> float:
    """(sum_i |d_i|**r) ** (1/r), with an exact fast path at r = 2."""
    if r == 2.0:  # d_i * d_i is |d_i| * |d_i| bit for bit
        return float(np.sqrt(np.dot(d, d)))
    return float((np.abs(d) ** r).sum() ** (1.0 / r))


def central_values(spec: CentralEstimate, v: np.ndarray) -> float:
    """Evaluate a central estimate on a raw value vector."""
    lo, exact = spec.bounds
    if exact is not None and v.size != exact:
        raise SpecError(f"{type(spec).__name__} weights fix the length to {exact}, got {v.size}")
    if v.size < lo:
        raise SpecError(f"{type(spec).__name__} needs length >= {lo}, got {v.size}")
    return spec.evaluate(v)


def scale_values(spec: ScaleEstimate, v: np.ndarray) -> float:
    """Evaluate a scale estimate on a raw value vector."""
    return finite(spec.evaluate(v), spec.tag, "scale")


def finite(x: float, *what: str) -> float:
    """x, or DomainError naming it by the words `what` when it overflowed to inf (or
    is NaN), rather than let a later step turn it into a silent 0.0 or NaN."""
    if not math.isfinite(x):
        raise DomainError(f"{' '.join(what)} is not finite ({x}); the values overflow float64")
    return x
