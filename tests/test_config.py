import json
import types
from pathlib import Path

import numpy as np
import pytest

import shapeassoc
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
from shapeassoc.bench import DatasetSpec, SyntheticCluster, SyntheticDataset
from shapeassoc.config import MEASURE_SHORTHANDS, from_dict, to_dict, to_json
from shapeassoc.estimates import CentralEstimate, ScaleEstimate
from shapeassoc.measures import DecayTransform, MeasureSpec
from shapeassoc.standardize import PRESETS, Standardization

CENTER_MEAN = preset("center-mean")
UNIT_MEAN = preset("unit-mean")

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
            DissimilaritySpec(2.0, preset("unit-mean")), ComplementDecay(PowerHalf(2.0))
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
        for spec in (RationalDecay(2.5), ExpDecay(), ComplementDecay(PowerHalf(1.5))):
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
        with pytest.raises(SpecError, match="expected one of .*'pearson'"):
            from_dict("spearman", MeasureSpec)

    def test_gmidrange_correlation_decodes_to_and_writes_the_cosine(self):
        spec = from_dict({"kind": "gmidrange-correlation", "k": "1", "m": 2}, MeasureSpec)
        assert spec == GeneralizedMidrangeCorrelation(1, 2)
        assert from_dict({"kind": "gmidrange-correlation"}, MeasureSpec) == GeneralizedMidrangeCorrelation()
        assert to_dict(spec) == {
            "kind": "cosine",
            "standardization": {"kind": "center", "center": {"kind": "generalized-midrange", "k": 1, "m": 2}},
        }

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
        # the cap of a complement decay was always 2, the range of a normal dissimilarity
        with pytest.raises(SpecError, match=r"unknown keys for complement-decay: \['cap'\]"):
            from_dict({"kind": "complement-decay", "cap": 2.0}, DecayTransform)

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

    def test_bool_and_int_fields_are_not_coerced(self):
        for k in (2.7, 2.0, True, "2.7"):
            with pytest.raises(SpecError, match="projection.*'k'"):
                from_dict({"kind": "projection", "k": k}, CentralEstimate)
        for flag in ("false", 0, 1, None):
            with pytest.raises(SpecError, match="file.*'has_ids'"):
                from_dict({"kind": "file", "path": "x.txt", "has_ids": flag}, DatasetSpec)
        for r in (True, False, None, [2.0], {"r": 2.0}):
            with pytest.raises(SpecError, match="minkowski.*'r'"):
                from_dict({"r": r, "standardization": "unit-mean"}, DissimilaritySpec)
        for path in (5, 5.0, True, ["x.txt"]):
            with pytest.raises(SpecError, match="file.*'path'"):
                from_dict({"kind": "file", "path": path}, DatasetSpec)
        for weights in ("1", {"1": 0}, 1.0):
            with pytest.raises(SpecError, match="weighted-mean.*'weights'"):
                from_dict({"kind": "weighted-mean", "weights": weights}, CentralEstimate)
        for k in (2, "2"):
            assert from_dict({"kind": "projection", "k": k}, CentralEstimate) == Projection(2)
        for r in (2, 2.0, "2"):
            spec = from_dict({"r": r, "standardization": "unit-mean"}, DissimilaritySpec)
            assert spec == DissimilaritySpec(2.0, preset("unit-mean"))
        for weights in ([1, 0], (1.0, 0.0)):
            spec = from_dict({"kind": "weighted-mean", "weights": weights}, CentralEstimate)
            assert spec == WeightedMean((1.0, 0.0))
        spec = from_dict({"kind": "file", "path": "x.txt", "has_ids": False}, DatasetSpec)
        assert spec.has_ids is False

    def test_key_omitted_only_when_field_has_a_default(self):
        assert from_dict({"kind": "rational-decay"}, DecayTransform) == RationalDecay(1.0)
        for kind in ("projection", "order-statistic", "truncated-mean", "generalized-midrange"):
            with pytest.raises(SpecError, match="missing required key"):
                from_dict({"kind": kind}, CentralEstimate)

    @pytest.mark.parametrize("kind", ["weighted-mean", "ordered-weighted-mean"])
    def test_one_weight_is_refused(self, kind):
        with pytest.raises(SpecError) as exc:
            from_dict({"kind": kind, "weights": [1]}, CentralEstimate)
        assert str(exc.value) == "need at least two weights, got 1: a series has at least two samples"

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


class TestNumberFields:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: DissimilaritySpec(True, CENTER_MEAN), "DissimilaritySpec.r must be a real number, got True"),
            (lambda: DissimilaritySpec("2", UNIT_MEAN), "DissimilaritySpec.r must be a real number, got '2'"),
            (lambda: RationalDecay(True), "RationalDecay.k must be a real number, got True"),
            (lambda: PowerHalf(True), "PowerHalf.p must be a real number, got True"),
            (lambda: MinkowskiDeviation(True, Min()), "MinkowskiDeviation.r must be a real number, got True"),
            (lambda: SyntheticDataset(seed=True), "SyntheticDataset.seed must be an integer, got True"),
            (lambda: SyntheticDataset(seed=1.5), "SyntheticDataset.seed must be an integer, got 1.5"),
            (
                lambda: SyntheticDataset(noise_scale=False),
                "SyntheticDataset.noise_scale must be a real number, got False",
            ),
            (lambda: SyntheticCluster(2.5), "SyntheticCluster.size must be an integer, got 2.5"),
        ],
        ids=[
            "bool-r", "str-r", "bool-k", "bool-p", "bool-deviation-r",
            "bool-seed", "float-seed", "bool-noise", "float-size",
        ],
    )
    def test_a_bool_or_non_number_is_refused(self, build, message):
        with pytest.raises(SpecError) as exc:
            build()
        assert str(exc.value) == message

    def test_numpy_integers_write_json_that_reads_back_equal(self):
        spec = SyntheticDataset(seed=np.int64(1), clusters=(SyntheticCluster(np.int64(2)),))
        assert type(spec.seed) is int and type(spec.clusters[0].size) is int
        assert from_dict(json.loads(to_json(spec)), SyntheticDataset) == spec

    def test_a_float_field_keeps_a_python_int(self):
        assert '"r": 2,' in to_json(DissimilaritySpec(2, UNIT_MEAN))

    @pytest.mark.parametrize("value", [np.float32(1.5), np.int64(3), np.float64(2.5)])
    def test_a_float_field_stores_a_numpy_scalar_as_a_python_number(self, value):
        spec = DissimilaritySpec(value, CENTER_MEAN)
        assert type(spec.r) in (int, float) and spec.r == value
        assert from_dict(json.loads(to_json(spec)), DissimilaritySpec) == spec


class TestSubjectDescription:
    def test_subjects(self):
        assert describe_subject(Pearson())["subject"] == "association"
        dis = DissimilaritySpec(2.0, preset("unit-mean"))
        assert describe_subject(dis)["subject"] == "dissimilarity"
        recipe = SimilarityRecipe(dis, RationalDecay(1.0))
        assert describe_subject(recipe)["subject"] == "similarity"


class TestDocs:
    def test_readme_names_every_shorthand_and_preset(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        missing = [name for name in (*MEASURE_SHORTHANDS, *PRESETS) if f"`{name}`" not in readme]
        assert not missing

    def test_readme_names_every_export(self):
        # a public name is documented API, or it should not be exported
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        exports = [
            name
            for name, value in vars(shapeassoc).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        ]
        assert {"SAM_PROPERTIES", "Dendrogram", "verify"} <= set(exports)
        missing = [name for name in exports if f"`{name}`" not in readme]
        assert not missing
