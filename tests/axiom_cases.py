"""Subjects the test suite verifies: the harness's self-test and the measures
of acceptance criterion 3.

`coverage_suite` gives every property at least one subject expected to
satisfy it and one expected to break it, so a harness that can no longer fail
is caught by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from shapeassoc import (
    AbsSimilarity,
    ArithmeticMean,
    Center,
    CenterScale,
    ComplementDecay,
    CosineStandardized,
    DissimilaritySpec,
    GeneralizedMidrange,
    GeneralizedMidrangeCorrelation,
    Median,
    Midrange,
    Min,
    MinkowskiBranch,
    MinkowskiContrast,
    MinkowskiDeviation,
    Pearson,
    PowerHalf,
    Probe,
    Projection,
    PropertyId,
    RationalDecay,
    SimilarityBranch,
    SimilarityDifference,
    SimilarityRecipe,
    TruncatedMean,
    preset,
)
from shapeassoc.estimates import central_values, minkowski_norm
from shapeassoc.measures import associate_values, dissimilarity_values


def _criterion_3_subjects():
    subjects = [
        ("pearson", Pearson()),
        ("cosine", CosineStandardized(preset("unit-mean"))),
        ("gmidrange-correlation", GeneralizedMidrangeCorrelation(0, 2)),
    ]
    centers = (
        ("midrange", Midrange()),
        ("median", Median()),
        ("truncmean2", TruncatedMean(2)),
        ("gmidrange02", GeneralizedMidrange(0, 2)),
        ("mean", ArithmeticMean()),
        ("projection2", Projection(2)),
    )
    for name, center in centers:
        dissim = DissimilaritySpec(2.0, CenterScale(center, MinkowskiDeviation(2.0, center)))
        subjects.append((f"branch-{name}", MinkowskiBranch(dissim, RationalDecay(1.0))))
        subjects.append((f"contrast-{name}", MinkowskiContrast(dissim, PowerHalf(2.0))))
    return tuple(subjects)


# the 15 (name, measure) pairs of acceptance criterion 3: the three
# correlations and the 6 x 2 benchmark grid
CRITERION_3_SUBJECTS = _criterion_3_subjects()

# the association axioms criterion 3 checks on each of them
CRITERION_3_PROPS = (
    PropertyId.SYMMETRY,
    PropertyId.ASSOC_REFLEXIVITY,
    PropertyId.INVERSE_REFLEXIVITY,
    PropertyId.INVERSE_RELATIONSHIP,
    PropertyId.TRANSLATION_INVARIANCE,
    PropertyId.AFFINE_SIGN_RULE,
    PropertyId.RANGE_BOUNDS,
)


@dataclass(frozen=True)
class CoverageCase:
    subject: object
    property: PropertyId
    expect: str  # "pass" | "fail" | "not-applicable"
    label: str


def coverage_suite() -> tuple[CoverageCase, ...]:
    """Subjects exercising every property in both directions."""
    unit_mean = preset("unit-mean")
    pearson = Pearson()
    abs_pearson = AbsSimilarity(pearson)
    dissim_unit = DissimilaritySpec(2.0, unit_mean)
    dissim_center_mean = DissimilaritySpec(2.0, Center(ArithmeticMean()))
    recipe_rational = SimilarityRecipe(dissim_unit, RationalDecay(1.0))
    recipe_complement = SimilarityRecipe(dissim_unit, ComplementDecay(PowerHalf(2.0)))
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

    probe_lopsided = Probe("association", lopsided_gmdr, "lopsided-gmidrange-correlation", min_n=5)
    probe_offset_dissim = Probe(
        "dissimilarity", lambda vx, vy: unit_dissim(vx, vy) + 0.1, "offset-dissim"
    )
    probe_negated_dissim = Probe(
        "dissimilarity", lambda vx, vy: -unit_dissim(vx, vy), "negated-dissim"
    )
    probe_raw_euclid = Probe(
        "similarity",
        lambda vx, vy: 1.0 / (1.0 + minkowski_norm(vx - vy, 2.0)),
        "raw-euclidean-similarity",
    )
    probe_overscaled_sim = Probe(
        "similarity", lambda vx, vy: 1.5 - 0.2 * unit_dissim(vx, vy), "overscaled-similarity"
    )
    probe_overscaled_assoc = Probe(
        "association",
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
