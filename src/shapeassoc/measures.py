"""Dissimilarities, similarity transforms, and association measures.

The pipeline: standardize both series with F, take the Minkowski distance of
order r, then turn distances into similarities or signed associations.

    D(x, y) = (sum_i |F(x)_i - F(y)_i| ** r) ** (1/r)

D is `estimates.minkowski_norm` of F(x) - F(y). Signed association can be
built two ways:

- branch form: compare D(x, y) against D(x, -y); report the decayed
  similarity of the closer orientation, with the sign of that orientation.
  Sound whenever F is odd (`F.odd`: F(-y) = -F(y)); every standardization
  is translation invariant.
- contrast form: W(D(x, -y)) - W(D(x, y)) for an increasing W with
  W(0) = 0 and W(2) = 1. Sound when F is additionally r-normal
  (`F.normality_order == r`: sum |F(x)_i|**r = 1), which caps D at 2.

Validated constructors (MinkowskiBranch, MinkowskiContrast) refuse
standardizations that break these preconditions. The Similarity* constructors
accept any recipe without them; the axiom harness exists to catch bad ones.
Pearson and CosineStandardized share one cosine formula: Pearson is the
cosine of the mean-centered vectors, and GeneralizedMidrangeCorrelation
builds the cosine over a generalized-midrange centering.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConstantSeriesError, DomainError, ShapeError, SpecError
from .estimates import GeneralizedMidrange, Spec, finite, minkowski_norm
from .series import SeriesSet, TimeSeries, is_constant, is_constant_values
from .standardize import Center, Standardization, _negated, _once, _standardized_once, standardize_values

_BRANCH_TIE_TOL = 1e-12


@dataclass(frozen=True)
class DissimilaritySpec(Spec):
    """Minkowski distance of order r between standardized series."""

    tag = "minkowski"
    kind = "dissimilarity"
    r: float
    standardization: Standardization
    limits = property(lambda self: (0.0, 2.0 if self.normal else math.inf))

    def _validate(self):
        if self.r < 1.0:
            raise SpecError(f"Minkowski order must be >= 1, got {self.r!r}")

    @property
    def normal(self) -> bool:
        """Standardized vectors are unit at order r, so D <= 2."""
        return self.standardization.normality_order == self.r

    def evaluate(self, vx: np.ndarray, vy: np.ndarray) -> float:
        fx = standardize_values(self.standardization, vx)
        fy = standardize_values(self.standardization, vy)
        return minkowski_norm(fx - fy, self.r)

    def checked(self, vx: np.ndarray, vy: np.ndarray) -> float:
        return dissimilarity_values(self, vx, vy)


# --- transforms between dissimilarity and similarity ------------------------


class DecayTransform(Spec):
    """Family base: similarity from dissimilarity, 1 at 0, strictly decreasing."""


class GrowthTransform(Spec):
    """Family base: increasing map used by the contrast form; 0 at 0, 1 at 2."""


@dataclass(frozen=True)
class RationalDecay(DecayTransform):
    """S = k / (d + k): slow rational decay from 1 toward 0."""

    tag = "rational-decay"
    k: float = 1.0

    def _validate(self):
        if self.k <= 0.0:
            raise SpecError(f"decay constant must be > 0, got {self.k!r}")

    def evaluate(self, d: float) -> float:
        return self.k / (d + self.k)


@dataclass(frozen=True)
class ExpDecay(DecayTransform):
    """S = exp(-d)."""

    tag = "exp-decay"

    def evaluate(self, d: float) -> float:
        return float(np.exp(-d))


@dataclass(frozen=True)
class PowerHalf(GrowthTransform):
    """Increasing map W(d) = (d / 2) ** p with W(0) = 0 and W(2) = 1."""

    tag = "power-half"
    p: float = 2.0

    def _validate(self):
        if self.p <= 0.0:
            raise SpecError(f"power must be > 0, got {self.p!r}")

    def evaluate(self, d: float) -> float:
        return float((d / 2.0) ** self.p)


@dataclass(frozen=True)
class ComplementDecay(DecayTransform):
    """S = 1 - W(d) for d in [0, 2], the range of a normal dissimilarity; exact 0 at 2.

    Unlike the strictly positive decays, this one reaches similarity 0, which
    is what the difference-form association needs for reflected pairs.
    """

    tag = "complement-decay"
    growth: GrowthTransform = PowerHalf(2.0)

    def evaluate(self, d: float) -> float:
        if d > 2.0 * (1.0 + 1e-12):
            raise DomainError(f"dissimilarity {d!r} exceeds the transform cap 2.0")
        return 1.0 - grow(self.growth, min(d, 2.0))


def decay(spec: DecayTransform, d: float) -> float:
    """Similarity from dissimilarity; strictly decreasing with value 1 at 0."""
    if d < 0.0:
        raise DomainError(f"dissimilarity must be >= 0, got {d!r}")
    return spec.evaluate(d)


def grow(spec: GrowthTransform, d: float) -> float:
    """Increasing map used by the contrast form; 0 at 0, 1 at 2."""
    if d < 0.0:
        raise DomainError(f"dissimilarity must be >= 0, got {d!r}")
    return spec.evaluate(d)


# --- dissimilarity and similarity evaluation ---------------------------------


def _on_pair(spec, x: TimeSeries, y: TimeSeries) -> float:
    """spec.checked(x.values, y.values); an error names the pair."""
    try:
        if x.n != y.n:
            raise ShapeError(f"series {x.id!r} (n={x.n}) and {y.id!r} (n={y.n}) differ in length")
        return spec.checked(x.values, y.values)
    except (ConstantSeriesError, DomainError, SpecError, ShapeError) as exc:
        raise type(exc)(f"pair ({x.id!r}, {y.id!r}): {exc}") from exc


def dissimilarity_values(spec: DissimilaritySpec, vx: np.ndarray, vy: np.ndarray) -> float:
    return finite(spec.evaluate(vx, vy), "dissimilarity")


def dissimilarity(spec: DissimilaritySpec, x: TimeSeries, y: TimeSeries) -> float:
    """D(x, y) >= 0, zero exactly for identically standardized series."""
    return _on_pair(spec, x, y)


@dataclass(frozen=True)
class SimilarityRecipe(Spec):
    """Similarity S(x, y) = decay(D(x, y)). Unvalidated building block."""

    tag = "similarity-recipe"
    kind = "similarity"
    dissimilarity: DissimilaritySpec
    decay: DecayTransform
    limits = (0.0, 1.0)

    def evaluate(self, vx: np.ndarray, vy: np.ndarray) -> float:
        return decay(self.decay, dissimilarity_values(self.dissimilarity, vx, vy))

    checked = evaluate


def similarity(spec: SimilarityRecipe, x: TimeSeries, y: TimeSeries) -> float:
    return _on_pair(spec, x, y)


# --- association constructors -------------------------------------------------


class MeasureSpec(Spec):
    """Family base of the association measures, A(x, y) in [-1, 1].

    `verified` is True when construction-time validation already guarantees
    soundness. Similarity-route constructors are intentionally unchecked; run
    the axiom harness on them before trusting results.
    """

    kind: ClassVar[str] = "association"
    verified = True
    limits = (-1.0, 1.0)

    def checked(self, vx: np.ndarray, vy: np.ndarray) -> float:
        # a module global, so a rebinding of associate_values is seen here
        return associate_values(self, vx, vy)


def _require_branch_preconditions(dissim: DissimilaritySpec, what: str) -> None:
    if not dissim.standardization.odd:
        raise SpecError(
            f"{what} needs an odd standardization (center and spread estimates "
            "that commute with negation); got a non-odd one"
        )


def _both_orientations(dissim: DissimilaritySpec, vx: np.ndarray, vy: np.ndarray) -> tuple[float, float]:
    return dissimilarity_values(dissim, vx, vy), dissimilarity_values(dissim, vx, _negated(vy))


def _branch_value(d_same: float, d_reflected: float, s_spec: DecayTransform) -> float:
    tol = _BRANCH_TIE_TOL * max(1.0, d_same, d_reflected)
    if abs(d_same - d_reflected) <= tol:
        return 0.0
    if d_same < d_reflected:
        return decay(s_spec, d_same)
    return -decay(s_spec, d_reflected)


@dataclass(frozen=True)
class MinkowskiBranch(MeasureSpec):
    """Signed association by orientation branch on Minkowski distances.

    A(x, y) = decay(D(x, y)) when x is closer to y than to -y, the negated
    value for the reflected orientation, and 0 on a tie.
    """

    tag = "minkowski-branch"
    dissimilarity: DissimilaritySpec
    decay: DecayTransform = RationalDecay(1.0)

    def _validate(self):
        _require_branch_preconditions(self.dissimilarity, "branch association")

    def evaluate(self, vx: np.ndarray, vy: np.ndarray) -> float:
        return _branch_value(*_both_orientations(self.dissimilarity, vx, vy), self.decay)


@dataclass(frozen=True)
class MinkowskiContrast(MeasureSpec):
    """Signed association by contrast of grown distances.

    A(x, y) = grow(D(x, -y)) - grow(D(x, y)). Needs an r-normal odd
    standardization so both terms stay in [0, 1].
    """

    tag = "minkowski-contrast"
    dissimilarity: DissimilaritySpec
    growth: GrowthTransform = PowerHalf(2.0)

    def _validate(self):
        _require_branch_preconditions(self.dissimilarity, "contrast association")
        if not self.dissimilarity.normal:
            raise SpecError(
                "contrast association needs the standardization to be normal at the "
                f"distance order {self.dissimilarity.r!r} (spread = Minkowski deviation of the "
                "same center at that order)"
            )

    def evaluate(self, vx: np.ndarray, vy: np.ndarray) -> float:
        d_same, d_reflected = _both_orientations(self.dissimilarity, vx, vy)
        return grow(self.growth, d_reflected) - grow(self.growth, d_same)


@dataclass(frozen=True)
class SimilarityBranch(MeasureSpec):
    """Branch association driven by a similarity recipe, preconditions unchecked."""

    tag = "similarity-branch"
    verified = False
    recipe: SimilarityRecipe

    def evaluate(self, vx: np.ndarray, vy: np.ndarray) -> float:
        d_same, d_reflected = _both_orientations(self.recipe.dissimilarity, vx, vy)
        return _branch_value(d_same, d_reflected, self.recipe.decay)


@dataclass(frozen=True)
class SimilarityDifference(MeasureSpec):
    """A(x, y) = S(x, y) - S(x, -y), preconditions unchecked.

    Sound only when reflected pairs reach similarity exactly 0; with decays
    that never reach 0 the result fails reflexivity.
    """

    tag = "similarity-difference"
    verified = False
    recipe: SimilarityRecipe

    def evaluate(self, vx: np.ndarray, vy: np.ndarray) -> float:
        d_same, d_reflected = _both_orientations(self.recipe.dissimilarity, vx, vy)
        return decay(self.recipe.decay, d_same) - decay(self.recipe.decay, d_reflected)


@dataclass(frozen=True)
class SimilarityComplement(MeasureSpec):
    """A(x, y) = 2 * S(x, y) - 1, preconditions unchecked.

    Sound only when S satisfies the complement rule S(-x, y) = 1 - S(x, y).
    """

    tag = "similarity-complement"
    verified = False
    recipe: SimilarityRecipe

    def evaluate(self, vx: np.ndarray, vy: np.ndarray) -> float:
        return 2.0 * self.recipe.evaluate(vx, vy) - 1.0


def _cosine(fx: np.ndarray, fy: np.ndarray, xx: float, yy: float) -> float:
    """fx . fy / sqrt(xx * yy), where xx and yy are the squared norms of fx and fy."""
    # Python floats and math.sqrt: correctly rounded like numpy's, without the scalar
    # overhead; an overflowing norm product would turn the ratio into a silent 0.0
    denom = finite(math.sqrt(xx * yy), "norm product")
    if denom == 0.0:
        if fx.any() and fy.any():
            raise DomainError("norm product underflows to 0; the values are too small for float64")
        raise ConstantSeriesError("cosine is undefined when a standardized series is zero")
    return float(np.dot(fx, fy)) / denom


@dataclass(frozen=True)
class Pearson(MeasureSpec):
    """Product-moment correlation of the raw samples: the cosine of the
    mean-centered vectors."""

    tag = "pearson"

    def evaluate(self, vx: np.ndarray, vy: np.ndarray) -> float:
        fx, xx = _once(_mean_centered, vx, _mean_centered)
        fy, yy = _once(_mean_centered, vy, _mean_centered)
        return _cosine(fx, fy, xx, yy)


def _mean_centered(v: np.ndarray) -> tuple[np.ndarray, float]:
    """v less its mean, and the squared norm of that."""
    # sum / size is ndarray.mean bit for bit, without its Python wrapper
    f = v - v.sum() / v.size
    return f, float(np.dot(f, f))


@dataclass(frozen=True)
class CosineStandardized(MeasureSpec):
    """Cosine of the standardized vectors; verified when the standardization is odd."""

    tag = "cosine"
    standardization: Standardization
    verified = property(lambda self: self.standardization.odd)

    def evaluate(self, vx: np.ndarray, vy: np.ndarray) -> float:
        fx = standardize_values(self.standardization, vx)
        fy = standardize_values(self.standardization, vy)
        return _cosine(fx, fy, float(np.dot(fx, fx)), float(np.dot(fy, fy)))


def GeneralizedMidrangeCorrelation(k: int = 0, m: int = 2) -> CosineStandardized:
    """Correlation with GMDR(k, m) in place of the mean: the cosine of the
    GMDR-centered vectors. With k=0, m=1 the center is the midrange."""
    return CosineStandardized(Center(GeneralizedMidrange(k, m)))


def associate_values(spec: MeasureSpec, vx: np.ndarray, vy: np.ndarray) -> float:
    if is_constant_values(vx) or is_constant_values(vy):
        raise ConstantSeriesError("association is undefined for constant series")
    return finite(spec.evaluate(vx, vy), "association")


def associate(spec: MeasureSpec, x: TimeSeries, y: TimeSeries) -> float:
    """Signed association in [-1, 1]; positive for similar shapes, negative
    for reflected ones."""
    return _on_pair(spec, x, y)


@dataclass(frozen=True, eq=False)
class AssociationMatrix:
    """Symmetric association matrix over a series set, unit diagonal."""

    ids: tuple[str, ...]
    values: np.ndarray


def association_matrix(spec: MeasureSpec, data: SeriesSet) -> AssociationMatrix:
    """Pairwise associations; symmetric by construction, diagonal exactly 1.

    Each series, and its negation, is standardized once per standardization object,
    and mean-centered once for Pearson, not once per pair."""
    series = data.series
    k = len(series)
    out = np.ones((k, k))
    with _standardized_once(s.values for s in series):
        for i, x in enumerate(series):
            for j in range(i + 1, k):
                out[i, j] = out[j, i] = associate(spec, x, series[j])
    out.flags.writeable = False
    return AssociationMatrix(data.ids, out)


def constant_ids(data: SeriesSet) -> tuple[str, ...]:
    """Ids of constant series; these poison association matrices."""
    return tuple(s.id for s in data if is_constant(s))
