import json

import pytest

from shapeassoc import (
    ArithmeticMean,
    Center,
    CenterScale,
    ComplementDecay,
    CosineStandardized,
    DissimilaritySpec,
    ExpDecay,
    GeneralizedMidrange,
    GeneralizedMidrangeCorrelation,
    Median,
    Midrange,
    Min,
    MinkowskiBranch,
    MinkowskiContrast,
    MinkowskiDeviation,
    OrderStatistic,
    OrderedWeightedMean,
    Pearson,
    PowerHalf,
    Projection,
    Range,
    RationalDecay,
    SimilarityComplement,
    SimilarityDifference,
    SimilarityRecipe,
    SpecError,
    TruncatedMean,
    WeightedMean,
    preset,
)
from shapeassoc.axioms import describe_subject
from shapeassoc.config import from_dict, to_dict
from shapeassoc.estimates import CentralEstimate, ScaleEstimate
from shapeassoc.measures import DecayTransform, MeasureSpec
from shapeassoc.standardize import Standardization

CENTRALS = (
    Min(),
    Midrange(),
    Median(),
    ArithmeticMean(),
    Projection(3),
    OrderStatistic(2),
    TruncatedMean(2),
    GeneralizedMidrange(1, 3),
    WeightedMean((0.25, 0.75)),
    OrderedWeightedMean((0.5, 0.5)),
)

MEASURES = (
    Pearson(),
    CosineStandardized(preset("unit-mean")),
    GeneralizedMidrangeCorrelation(0, 2),
    MinkowskiBranch(DissimilaritySpec(2.0, preset("unit-mean")), RationalDecay(1.0)),
    MinkowskiContrast(DissimilaritySpec(2.0, preset("unit-gmidrange")), PowerHalf(2.0)),
    SimilarityDifference(
        SimilarityRecipe(
            DissimilaritySpec(2.0, preset("unit-mean")), ComplementDecay(PowerHalf(2.0), 2.0)
        )
    ),
    SimilarityComplement(
        SimilarityRecipe(DissimilaritySpec(1.0, Center(Median())), ExpDecay())
    ),
)


class TestRoundTrips:
    def test_central_estimates(self):
        for spec in CENTRALS:
            d = to_dict(spec)
            json.dumps(d)
            assert from_dict(d, CentralEstimate) == spec

    def test_scale_estimates(self):
        for spec in (Range(), MinkowskiDeviation(2.0, ArithmeticMean()), MinkowskiDeviation(1.5, Median())):
            assert from_dict(to_dict(spec), ScaleEstimate) == spec

    def test_standardizations(self):
        for spec in (
            Center(Median()),
            CenterScale(Midrange(), Range()),
            preset("unit-mean"),
            preset("unit-gmidrange", r=3.0, k=1, m=3),
        ):
            assert from_dict(to_dict(spec), Standardization) == spec

    def test_decays_and_transforms(self):
        for spec in (RationalDecay(2.5), ExpDecay(), ComplementDecay(PowerHalf(1.5), 2.0)):
            assert from_dict(to_dict(spec), DecayTransform) == spec

    def test_dissimilarity_and_recipe(self):
        dis = DissimilaritySpec(3.0, preset("unit-mean", r=3.0))
        assert from_dict(to_dict(dis), DissimilaritySpec) == dis
        recipe = SimilarityRecipe(dis, RationalDecay(0.5))
        assert from_dict(to_dict(recipe), SimilarityRecipe) == recipe

    def test_measures(self):
        for spec in MEASURES:
            d = to_dict(spec)
            json.dumps(d)
            assert from_dict(d, MeasureSpec) == spec

    def test_round_trip_survives_json(self):
        for spec in MEASURES:
            again = from_dict(json.loads(json.dumps(to_dict(spec))), MeasureSpec)
            assert again == spec


class TestShorthands:
    def test_preset_names(self):
        assert from_dict("unit-mean", Standardization) == preset("unit-mean")
        assert from_dict(
            {"kind": "preset", "name": "unit-gmidrange", "m": 3}, Standardization
        ) == preset("unit-gmidrange", m=3)

    def test_measure_shorthands(self):
        assert from_dict("pearson", MeasureSpec) == Pearson()
        assert from_dict("cosine", MeasureSpec) == CosineStandardized(preset("unit-mean"))
        assert from_dict("gmidrange-correlation", MeasureSpec) == GeneralizedMidrangeCorrelation(0, 2)
        with pytest.raises(SpecError):
            from_dict("spearman", MeasureSpec)

    def test_default_parameters(self):
        spec = from_dict(
            {
                "kind": "minkowski-branch",
                "dissimilarity": {"r": 2.0, "standardization": "unit-mean"},
            },
            MeasureSpec,
        )
        assert spec.decay == RationalDecay(1.0)


class TestStrictness:
    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown keys"):
            from_dict({"kind": "median", "extra": 1}, CentralEstimate)
        with pytest.raises(SpecError, match="unknown keys"):
            from_dict({"kind": "pearson", "bogus": True}, MeasureSpec)
        with pytest.raises(SpecError, match="unknown keys"):
            from_dict({"kind": "center", "center": {"kind": "median"}, "x": 0}, Standardization)

    def test_unknown_kinds_rejected(self):
        with pytest.raises(SpecError):
            from_dict({"kind": "mode"}, CentralEstimate)
        with pytest.raises(SpecError):
            from_dict({"kind": "spearman"}, MeasureSpec)
        with pytest.raises(SpecError):
            from_dict({"kind": "gaussian"}, DecayTransform)

    def test_missing_keys_rejected(self):
        with pytest.raises(SpecError, match="missing required key"):
            from_dict({"kind": "cosine"}, MeasureSpec)
        with pytest.raises(SpecError, match="missing required key"):
            from_dict({"standardization": "unit-mean"}, DissimilaritySpec)

    def test_wrong_container_types(self):
        with pytest.raises(SpecError):
            from_dict(["median"], CentralEstimate)
        with pytest.raises(SpecError):
            from_dict(42, MeasureSpec)

    def test_malformed_values_name_the_key(self):
        with pytest.raises(SpecError, match="'k'"):
            from_dict({"kind": "gmidrange-correlation", "k": None}, MeasureSpec)
        with pytest.raises(SpecError, match="'weights'"):
            from_dict({"kind": "weighted-mean", "weights": 5}, CentralEstimate)
        with pytest.raises(SpecError, match="'r'"):
            from_dict({"r": "two", "standardization": "unit-mean"}, DissimilaritySpec)

    def test_key_omitted_only_when_field_has_a_default(self):
        assert from_dict({"kind": "rational-decay"}, DecayTransform) == RationalDecay(1.0)
        for kind in ("projection", "order-statistic", "truncated-mean", "generalized-midrange"):
            with pytest.raises(SpecError, match="missing required key"):
                from_dict({"kind": kind}, CentralEstimate)

    def test_invalid_parameters_propagate(self):
        # construction rules still apply on the parse path
        with pytest.raises(SpecError):
            from_dict(
                {
                    "kind": "minkowski-contrast",
                    "dissimilarity": {"r": 2.0, "standardization": "center-mean"},
                },
                MeasureSpec,
            )


class TestSubjectDescription:
    def test_subjects(self):
        assert describe_subject(Pearson())["subject"] == "association"
        dis = DissimilaritySpec(2.0, preset("unit-mean"))
        assert describe_subject(dis)["subject"] == "dissimilarity"
        recipe = SimilarityRecipe(dis, RationalDecay(1.0))
        assert describe_subject(recipe)["subject"] == "similarity"
