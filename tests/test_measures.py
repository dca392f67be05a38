import dataclasses
import importlib
import math
import sys
import threading
import types
import typing
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shapeassoc import (
    ArithmeticMean,
    Center,
    CenterScale,
    ComplementDecay,
    ConstantSeriesError,
    CosineStandardized,
    DissimilaritySpec,
    DomainError,
    ExpDecay,
    GeneralizedMidrange,
    GeneralizedMidrangeCorrelation,
    Min,
    MinkowskiBranch,
    MinkowskiContrast,
    MinkowskiDeviation,
    Pearson,
    PowerHalf,
    Range,
    RationalDecay,
    ShapeError,
    SimilarityBranch,
    SimilarityComplement,
    SimilarityDifference,
    SimilarityRecipe,
    SpecError,
    TimeSeries,
    associate,
    association_matrix,
    constant_series,
    decay,
    dissimilarity,
    grow,
    load_set,
    preset,
    similarity,
    standardize,
)
from shapeassoc.bench import BenchmarkMeasure, BenchmarkSpec, SyntheticDataset, default_grid_measures
from shapeassoc.config import from_dict
from shapeassoc.errors import ShapeAssocError
from shapeassoc.estimates import Median, Spec, central_values, scale_values
from shapeassoc.measures import (
    DecayTransform,
    GrowthTransform,
    MeasureSpec,
    _mean_centered,
    associate_values,
    constant_ids,
    dissimilarity_values,
)
from shapeassoc.standardize import _negated, _once, standardize_values

from helpers import random_values, ts
from test_golden import _spec_of_every_kind

UNIT_MEAN = preset("unit-mean")
CENTER_MEAN = preset("center-mean")
D2_UNIT = DissimilaritySpec(2.0, UNIT_MEAN)
D2_CENTER = DissimilaritySpec(2.0, CENTER_MEAN)


def _composites() -> list[tuple[object, dict[str, type]]]:
    """(spec, {field: family}) of every spec with a family-typed field that is
    reachable from one spec of every kind, one benchmark measure and one
    benchmark spec. Families come from the resolved type hints."""
    out = []

    def walk(value):
        if isinstance(value, tuple):
            for v in value:
                walk(v)
        if not dataclasses.is_dataclass(value):
            return
        hints = typing.get_type_hints(type(value))
        fields = [(f.name, hints[f.name]) for f in dataclasses.fields(value)]
        families = {name: t for name, t in fields if isinstance(t, type) and issubclass(t, Spec)}
        if families:
            out.append((value, families))
        for name, _ in fields:
            walk(getattr(value, name))

    bench = BenchmarkSpec(SyntheticDataset(), (BenchmarkMeasure("p", Pearson()),))
    for spec in (*_spec_of_every_kind().values(), bench):
        walk(spec)
    return out


# (class name, field) -> (an instance, the field's family), once per class and field
_FAMILY_FIELDS = {
    (type(spec).__name__, name): (spec, family)
    for spec, families in _composites()
    for name, family in families.items()
}


class TestTransforms:
    def test_rational_decay(self):
        assert decay(RationalDecay(1.0), 0.0) == 1.0
        assert decay(RationalDecay(1.0), 1.0) == 0.5
        assert decay(RationalDecay(3.0), 1.0) == 0.75

    def test_exp_decay(self):
        assert decay(ExpDecay(), 0.0) == 1.0
        assert decay(ExpDecay(), math.log(2.0)) == pytest.approx(0.5, abs=1e-15)

    def test_complement_decay(self):
        c = ComplementDecay(PowerHalf(2.0))
        assert decay(c, 0.0) == 1.0
        assert decay(c, 1.0) == 0.75
        assert decay(c, 2.0) == 0.0
        with pytest.raises(DomainError, match=r"^dissimilarity 2\.1 exceeds the transform cap 2\.0$"):
            decay(c, 2.1)
        # float fuzz just above the cap is clamped, not an error
        assert decay(c, 2.0 + 1e-14) == 0.0

    def test_decay_rejects_negative_distance(self):
        with pytest.raises(DomainError):
            decay(RationalDecay(1.0), -0.1)

    def test_grow(self):
        assert grow(PowerHalf(2.0), 0.0) == 0.0
        assert grow(PowerHalf(2.0), 2.0) == 1.0
        assert grow(PowerHalf(2.0), 1.0) == 0.25
        assert grow(PowerHalf(1.0), 1.0) == 0.5
        with pytest.raises(DomainError):
            grow(PowerHalf(2.0), -1.0)

    def test_parameter_validation(self):
        with pytest.raises(SpecError):
            RationalDecay(0.0)
        with pytest.raises(SpecError):
            PowerHalf(-1.0)


class TestDissimilarity:
    def test_worked_examples(self):
        x, y = ts([1, 2, 3]), ts([3, 2, 1], "y")
        assert dissimilarity(D2_CENTER, x, y) == pytest.approx(math.sqrt(8.0), abs=1e-12)
        assert dissimilarity(DissimilaritySpec(1.0, CENTER_MEAN), x, y) == pytest.approx(
            4.0, abs=1e-12
        )

    def test_translation_collapses_distance(self):
        assert dissimilarity(D2_CENTER, ts([1, 2, 3]), ts([6, 7, 8], "y")) == 0.0

    def test_self_distance_zero(self):
        x = ts([1, 5, 2, 4])
        assert dissimilarity(D2_UNIT, x, x) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            vx, vy = random_values(rng, 13), random_values(rng, 13)
            assert dissimilarity_values(D2_UNIT, vx, vy) == dissimilarity_values(
                D2_UNIT, vy, vx
            )

    def test_normal_standardization_bounds_distance_by_two(self):
        rng = np.random.default_rng(42)
        spec = DissimilaritySpec(3.0, preset("unit-mean", r=3.0))
        for _ in range(100):
            n = int(rng.integers(3, 40))
            d = dissimilarity_values(spec, random_values(rng, n), random_values(rng, n))
            assert 0.0 <= d <= 2.0 + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            dissimilarity(D2_UNIT, ts([1, 2, 3]), ts([1, 2], "y"))

    def test_order_below_one_rejected(self):
        with pytest.raises(SpecError):
            DissimilaritySpec(0.5, UNIT_MEAN)

    def test_sign_permutation_for_odd_standardization(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            vx, vy = random_values(rng, 11), random_values(rng, 11)
            assert dissimilarity_values(D2_UNIT, -vx, vy) == pytest.approx(
                dissimilarity_values(D2_UNIT, vx, -vy), abs=1e-12
            )


class TestSimilarityRecipe:
    def test_similarity_in_unit_interval(self):
        recipe = SimilarityRecipe(D2_UNIT, RationalDecay(1.0))
        rng = np.random.default_rng(44)
        for _ in range(50):
            x = ts(random_values(rng, 9))
            y = ts(random_values(rng, 9), "y")
            s = similarity(recipe, x, y)
            assert 0.0 <= s <= 1.0
            assert similarity(recipe, x, x) == 1.0

    def test_constant_pair_is_fully_similar_under_center_only(self):
        recipe = SimilarityRecipe(D2_CENTER, RationalDecay(1.0))
        a, b = constant_series(3.0, 6, "a"), constant_series(-7.5, 6, "b")
        assert similarity(recipe, a, b) == 1.0

    def test_decays_agree_on_ordering(self):
        # any strictly decreasing transform preserves the distance ranking
        rng = np.random.default_rng(45)
        series = [ts(random_values(rng, 12), f"s{i}") for i in range(6)]
        pairs = [(a, b) for i, a in enumerate(series) for b in series[i + 1 :]]
        transforms = (RationalDecay(1.0), RationalDecay(5.0), ExpDecay(), ComplementDecay())
        rankings = []
        for tr in transforms:
            recipe = SimilarityRecipe(D2_UNIT, tr)
            sims = [similarity(recipe, a, b) for a, b in pairs]
            rankings.append(np.argsort(np.argsort(sims)).tolist())
        assert all(r == rankings[0] for r in rankings)


class TestConstructorValidation:
    def test_branch_requires_odd_standardization(self):
        with pytest.raises(SpecError):
            MinkowskiBranch(DissimilaritySpec(2.0, preset("center-min")))
        with pytest.raises(SpecError):
            MinkowskiBranch(DissimilaritySpec(2.0, CenterScale(Min(), Range())))

    def test_branch_accepts_odd_center_only_standardization(self):
        MinkowskiBranch(D2_CENTER)

    def test_contrast_requires_matching_normality(self):
        with pytest.raises(SpecError):
            MinkowskiContrast(D2_CENTER)  # no spread at all
        with pytest.raises(SpecError):
            # spread order 2 but distance order 3
            MinkowskiContrast(DissimilaritySpec(3.0, UNIT_MEAN))
        with pytest.raises(SpecError):
            # spread around a different center
            f = CenterScale(ArithmeticMean(), MinkowskiDeviation(2.0, Min()))
            MinkowskiContrast(DissimilaritySpec(2.0, f))
        MinkowskiContrast(DissimilaritySpec(3.0, preset("unit-mean", r=3.0)))

    @pytest.mark.parametrize(
        "ctor, args, field, family, got",
        [
            (ComplementDecay, (1.9,), "growth", "GrowthTransform", "float"),
            (MinkowskiBranch, (D2_UNIT, 1.0), "decay", "DecayTransform", "float"),
            (MinkowskiBranch, (UNIT_MEAN,), "dissimilarity", "DissimilaritySpec", "CenterScale"),
            (MinkowskiContrast, (D2_UNIT, 2.0), "growth", "GrowthTransform", "float"),
            (MinkowskiContrast, (D2_UNIT, ExpDecay()), "growth", "GrowthTransform", "ExpDecay"),
            (SimilarityRecipe, (D2_UNIT, 1.0), "decay", "DecayTransform", "float"),
            (SimilarityRecipe, (2.0, ExpDecay()), "dissimilarity", "DissimilaritySpec", "float"),
            (DissimilaritySpec, (2.0, "unit-mean"), "standardization", "Standardization", "str"),
            (CosineStandardized, (Median(),), "standardization", "Standardization", "Median"),
        ],
    )
    def test_a_field_outside_its_family_is_refused_at_construction(self, ctor, args, field, family, got):
        with pytest.raises(SpecError) as exc:
            ctor(*args)
        assert str(exc.value) == f"{ctor.__name__}.{field} must be a {family}, got {got}"

    @pytest.mark.parametrize("cls, field", sorted(_FAMILY_FIELDS))
    def test_every_family_field_is_refused_outside_its_family(self, cls, field):
        spec, family = _FAMILY_FIELDS[cls, field]
        with pytest.raises(SpecError) as exc:
            dataclasses.replace(spec, **{field: 1.0})
        assert str(exc.value) == f"{cls}.{field} must be a {family.__name__}, got float"

    def test_a_subclass_in_another_module_keeps_its_fields_checked(self, monkeypatch):
        # that module names none of the families its inherited fields hold
        monkeypatch.setitem(sys.modules, "elsewhere", types.ModuleType("elsewhere"))
        branch = type("Branch", (MinkowskiBranch,), {"__module__": "elsewhere"})
        assert branch(DissimilaritySpec(2.0, preset("unit-gmidrange"))).bounds == (5, None)
        with pytest.raises(SpecError) as exc:
            branch(D2_UNIT, 1.0)
        assert str(exc.value) == "Branch.decay must be a DecayTransform, got float"

    def test_the_family_fields_span_every_composite_class(self):
        assert len(_FAMILY_FIELDS) == 19
        assert len({cls for cls, _ in _FAMILY_FIELDS}) == 15

    @pytest.mark.parametrize(
        "d, family, message",
        [
            (
                {"kind": "complement-decay", "growth": 1.9},
                DecayTransform,
                "GrowthTransform must be an object, got 1.9",
            ),
            (
                {"kind": "minkowski-branch", "dissimilarity": {"r": 2, "standardization": "unit-mean"}, "decay": 1},
                MeasureSpec,
                "DecayTransform must be an object, got 1",
            ),
            (
                {"kind": "cosine", "standardization": 2.0},
                MeasureSpec,
                "Standardization must be an object, got 2.0",
            ),
            (
                {"kind": "power-half"},
                DecayTransform,
                "unknown DecayTransform kind 'power-half'",
            ),
        ],
    )
    def test_from_dict_refuses_with_its_own_message(self, d, family, message):
        with pytest.raises(SpecError) as exc:
            from_dict(d, family)
        assert str(exc.value) == message

    def test_gmdr_correlation_parameters(self):
        with pytest.raises(SpecError):
            GeneralizedMidrangeCorrelation(2, 2)

    def test_is_verified(self):
        assert Pearson().verified
        assert MinkowskiBranch(D2_UNIT).verified
        assert MinkowskiContrast(D2_UNIT).verified
        assert GeneralizedMidrangeCorrelation(0, 2).verified
        assert CosineStandardized(UNIT_MEAN).verified
        assert not CosineStandardized(preset("center-min")).verified
        assert not SimilarityBranch(SimilarityRecipe(D2_UNIT, RationalDecay(1.0))).verified

    def test_length_bounds(self):
        assert Pearson().bounds == (2, None)
        assert GeneralizedMidrangeCorrelation(0, 2).bounds == (5, None)
        branch = MinkowskiBranch(DissimilaritySpec(2.0, preset("unit-gmidrange")))
        assert branch.bounds == (5, None)

    def test_a_composite_accepts_the_lengths_all_its_parts_accept(self):
        seen = set()
        for spec, families in _composites():
            parts = [getattr(spec, name).bounds for name in families]
            exact = {e for _, e in parts if e is not None}
            assert len(exact) <= 1, spec
            want = (max(n for n, _ in parts), exact.pop() if exact else None)
            assert spec.bounds == want, spec
            seen.add(want)
        # the walk meets a raised least length and an exact length
        assert any(n > 2 for n, _ in seen) and any(e is not None for _, e in seen)


class TestAssociate:
    def test_pearson_examples(self):
        assert associate(Pearson(), ts([1, 2, 3]), ts([1, 3, 2], "y")) == 0.5
        assert associate(Pearson(), ts([1, 2, 3]), ts([3, 2, 1], "y")) == -1.0

    def test_branch_example(self):
        spec = MinkowskiBranch(D2_CENTER, RationalDecay(1.0))
        assert associate(spec, ts([1, 2, 3]), ts([3, 2, 1], "y")) == -1.0

    def test_contrast_example_matches_pearson(self):
        spec = MinkowskiContrast(D2_UNIT, PowerHalf(2.0))
        x, y = ts([1, 2, 3]), ts([1, 3, 2], "y")
        assert associate(spec, x, y) == pytest.approx(0.5, abs=1e-9)

    def test_cosine_reflexive(self):
        spec = CosineStandardized(UNIT_MEAN)
        x = ts([4, 1, 7, 2])
        assert associate(spec, x, x) == 1.0

    def test_branch_tie_maps_to_zero(self):
        spec = MinkowskiBranch(D2_CENTER, RationalDecay(1.0))
        # both orientations equally far: orthogonal centered patterns
        x = ts([1, -1, 1, -1])
        y = ts([1, 1, -1, -1], "y")
        assert associate(spec, x, y) == 0.0

    def test_reflection_gives_minus_one(self):
        rng = np.random.default_rng(46)
        for spec in (
            Pearson(),
            MinkowskiBranch(D2_UNIT),
            MinkowskiContrast(D2_UNIT),
            CosineStandardized(UNIT_MEAN),
            GeneralizedMidrangeCorrelation(0, 2),
        ):
            x = ts(random_values(rng, 12))
            assert associate(spec, TimeSeries(x.id, -x.values), x) == pytest.approx(-1.0, abs=1e-9)
            assert associate(spec, x, x) == pytest.approx(1.0, abs=1e-9)

    def test_constant_inputs_rejected(self):
        c = constant_series(2.0, 5)
        x = ts([1, 2, 3, 4, 5], "y")
        for spec in (
            Pearson(),
            MinkowskiBranch(D2_CENTER),
            MinkowskiContrast(D2_UNIT),
            CosineStandardized(UNIT_MEAN),
            GeneralizedMidrangeCorrelation(0, 2),
            SimilarityDifference(SimilarityRecipe(D2_CENTER, RationalDecay(1.0))),
        ):
            with pytest.raises(ConstantSeriesError):
                associate(spec, c, x)
            with pytest.raises(ConstantSeriesError):
                associate(spec, x, c)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            associate(Pearson(), ts([1, 2, 3]), ts([1, 2], "y"))

    @pytest.mark.parametrize(
        "evaluate, spec",
        [
            (associate, Pearson()),
            (dissimilarity, D2_UNIT),
            (similarity, SimilarityRecipe(D2_UNIT, RationalDecay(1.0))),
        ],
    )
    def test_errors_name_the_pair(self, evaluate, spec):
        x = ts([1, 2, 4])
        with pytest.raises(ConstantSeriesError, match=r"^pair \('x', 'flat'\): "):
            evaluate(spec, x, constant_series(3.0, 3, "flat"))
        with pytest.raises(ShapeError, match=r"^pair \('x', 'short'\): "):
            evaluate(spec, x, ts([1, 2], "short"))


class TestCrossRouteEquivalences:
    def test_contrast_equals_pearson(self):
        spec = MinkowskiContrast(D2_UNIT, PowerHalf(2.0))
        rng = np.random.default_rng(47)
        for _ in range(200):
            n = int(rng.integers(3, 50))
            vx, vy = random_values(rng, n), random_values(rng, n)
            assert abs(associate_values(spec, vx, vy) - associate_values(Pearson(), vx, vy)) <= 1e-9

    def test_contrast_equals_cosine_for_any_normal_standardization(self):
        f = preset("unit-gmidrange")
        contrast = MinkowskiContrast(DissimilaritySpec(2.0, f), PowerHalf(2.0))
        cosine = CosineStandardized(f)
        rng = np.random.default_rng(48)
        for _ in range(200):
            n = int(rng.integers(5, 50))
            vx, vy = random_values(rng, n), random_values(rng, n)
            assert abs(associate_values(contrast, vx, vy) - associate_values(cosine, vx, vy)) <= 1e-9

    def test_pearson_is_cosine_of_mean_centered(self):
        cosine = CosineStandardized(preset("center-mean"))
        rng = np.random.default_rng(52)
        for _ in range(200):
            n = int(rng.integers(3, 50))
            x, y = ts(random_values(rng, n)), ts(random_values(rng, n), "y")
            assert associate(Pearson(), x, y) == associate(cosine, x, y)

    def test_gmidrange_correlation_is_cosine_of_gmidrange_centered(self):
        # the formula of the former class: the reference cosine of the two centered vectors
        assert not isinstance(GeneralizedMidrangeCorrelation, type)
        rng = np.random.default_rng(53)
        for k, m in ((0, 2), (1, 3), (0, 1)):
            centering = Center(GeneralizedMidrange(k, m))
            spec = GeneralizedMidrangeCorrelation(k, m)
            assert spec == CosineStandardized(centering)
            for _ in range(100):
                n = int(rng.integers(2 * m + 1, 50))
                vx, vy = random_values(rng, n), random_values(rng, n)
                old = _ref_cosine(centering.evaluate(vx), centering.evaluate(vy))
                assert associate(spec, ts(vx), ts(vy, "y")) == old

    def test_cosine_route_matches_explicit_standardize(self):
        f = preset("unit-mean")
        rng = np.random.default_rng(49)
        x, y = ts(random_values(rng, 20)), ts(random_values(rng, 20), "y")
        fx, fy = standardize(f, x).values, standardize(f, y).values
        direct = float(np.dot(fx, fy) / np.sqrt(np.dot(fx, fx) * np.dot(fy, fy)))
        assert associate(CosineStandardized(f), x, y) == pytest.approx(direct, abs=1e-12)

    def test_similarity_branch_matches_validated_branch(self):
        recipe = SimilarityRecipe(D2_UNIT, RationalDecay(1.0))
        checked = MinkowskiBranch(D2_UNIT, RationalDecay(1.0))
        unchecked = SimilarityBranch(recipe)
        rng = np.random.default_rng(50)
        for _ in range(50):
            vx, vy = random_values(rng, 15), random_values(rng, 15)
            assert associate_values(unchecked, vx, vy) == associate_values(checked, vx, vy)

    def test_difference_and_complement_forms(self):
        recipe = SimilarityRecipe(D2_UNIT, ComplementDecay(PowerHalf(2.0)))
        diff = SimilarityDifference(recipe)
        comp = SimilarityComplement(recipe)
        rng = np.random.default_rng(51)
        for _ in range(50):
            x = ts(random_values(rng, 10))
            y = ts(random_values(rng, 10), "y")
            s_same = similarity(recipe, x, y)
            s_refl = similarity(recipe, x, TimeSeries(y.id, -y.values))
            assert associate(diff, x, y) == pytest.approx(s_same - s_refl, abs=1e-15)
            assert associate(comp, x, y) == pytest.approx(2.0 * s_same - 1.0, abs=1e-15)

    def test_difference_complement_and_contrast_coincide_when_normal(self):
        # 1 - (d/2)^p turns the contrast form into a similarity difference
        recipe = SimilarityRecipe(D2_UNIT, ComplementDecay(PowerHalf(2.0)))
        contrast = MinkowskiContrast(D2_UNIT, PowerHalf(2.0))
        rng = np.random.default_rng(52)
        for _ in range(50):
            vx, vy = random_values(rng, 14), random_values(rng, 14)
            a = associate_values(SimilarityDifference(recipe), vx, vy)
            b = associate_values(contrast, vx, vy)
            assert abs(a - b) <= 1e-12


class TestAbsSimilarity:
    def test_examples(self):
        assert abs(associate(Pearson(), ts([1, 2, 3]), ts([3, 2, 1], "y"))) == 1.0
        assert abs(associate(Pearson(), ts([1, 2, 3]), ts([1, 3, 2], "y"))) == 0.5
        x = ts([2, 9, 4])
        assert abs(associate(Pearson(), x, x)) == 1.0

    def test_reflection_invariance(self):
        rng = np.random.default_rng(53)
        for spec in (Pearson(), MinkowskiBranch(D2_UNIT), MinkowskiContrast(D2_UNIT)):
            x = ts(random_values(rng, 16))
            y = ts(random_values(rng, 16), "y")
            assert abs(associate(spec, TimeSeries(x.id, -x.values), y)) == pytest.approx(
                abs(associate(spec, x, y)), abs=1e-12
            )


class TestAssociationMatrix:
    def test_affine_family(self):
        x = np.array([5.0, 1.0, 3.0, 2.0])
        data = load_set([x, x + 5.0, -x], ids=["a", "b", "c"])
        m = association_matrix(Pearson(), data)
        expected = np.array([[1, 1, -1], [1, 1, -1], [-1, -1, 1]], dtype=float)
        assert m.ids == ("a", "b", "c")
        assert m.values == pytest.approx(expected, abs=1e-12)

    def test_singleton(self):
        m = association_matrix(Pearson(), load_set([(1.0, 2.0, 4.0)]))
        assert np.array_equal(m.values, [[1.0]])

    def test_pairwise_oracle(self):
        m = association_matrix(Pearson(), load_set([(1, 2, 3), (1, 3, 2)]))
        assert m.values == pytest.approx(np.array([[1.0, 0.5], [0.5, 1.0]]), abs=1e-15)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(54)
        data = load_set([random_values(rng, 10) for _ in range(6)])
        m = association_matrix(MinkowskiContrast(D2_UNIT), data)
        assert np.array_equal(m.values, m.values.T)
        assert np.array_equal(np.diag(m.values), np.ones(6))
        assert not m.values.flags.writeable

    def test_constant_member_reported_with_ids(self):
        data = load_set([(1.0, 2.0), (4.0, 4.0)], ids=["good", "flat"])
        with pytest.raises(ConstantSeriesError, match="flat"):
            association_matrix(Pearson(), data)
        assert constant_ids(data) == ("flat",)

    def test_overflow_reported_with_ids(self):
        x = np.array([1e200, -1e200, 3e200, 2e200])
        data = load_set([x, x[::-1]], ids=["huge", "rev"])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError, match="'huge', 'rev'"):
                association_matrix(Pearson(), data)


class TestOverflow:
    """Values whose squares overflow float64 raise DomainError, never NaN or 0.0."""

    X = np.array([1e200, -1e200, 3e200, 2e200])

    @pytest.mark.parametrize(
        "spec",
        [
            Pearson(),
            MinkowskiContrast(D2_UNIT),
            MinkowskiBranch(D2_CENTER),
            CosineStandardized(UNIT_MEAN),
        ],
    )
    def test_associate_raises(self, spec):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError, match="not finite"):
                associate(spec, ts(self.X), ts(self.X[::-1]))

    def test_scale_raises(self):
        with np.errstate(over="ignore"):
            with pytest.raises(DomainError, match="minkowski-deviation scale"):
                scale_values(MinkowskiDeviation(2.0, ArithmeticMean()), self.X)

    def test_dissimilarity_raises(self):
        with np.errstate(over="ignore"):
            with pytest.raises(DomainError, match="dissimilarity"):
                dissimilarity_values(D2_CENTER, self.X, self.X[::-1])

    @pytest.mark.parametrize("spec", [Pearson(), CosineStandardized(CENTER_MEAN)])
    def test_norm_product_overflow_raises(self, spec):
        # each norm is finite, their product is not: the ratio would read -0.0
        x = self.X * 1e-50
        with np.errstate(over="ignore"):
            with pytest.raises(DomainError, match="norm product"):
                associate(spec, ts(x), ts(x[::-1]))

    def test_large_but_safe_values_still_work(self):
        x = self.X * 1e-140
        assert associate(Pearson(), ts(x), ts(x[::-1])) == pytest.approx(
            float(np.corrcoef(x, x[::-1])[0, 1]), abs=1e-12
        )


# --- the pre-change formulas, kept as the oracle of the faster ones ------------


def _ref_is_constant(v):
    return bool(np.all(v == v[0]))


def _ref_cosine(fx, fy):
    denom = np.sqrt(np.dot(fx, fx) * np.dot(fy, fy))
    if denom == 0.0:
        if fx.any() and fy.any():
            raise DomainError("norm product underflows to 0; the values are too small for float64")
        raise ConstantSeriesError("cosine is undefined when a standardized series is zero")
    if not math.isfinite(denom):
        raise DomainError(f"norm product is not finite ({denom}); the values overflow float64")
    return float(np.dot(fx, fy) / denom)


def _ref_center_mean(v):
    return v - v.mean()


def _ref_unit_mean(v):
    if _ref_is_constant(v):
        raise ConstantSeriesError("cannot scale a constant series; its spread is zero")
    centered = v - float(v.mean())
    a = np.abs(centered)
    spread = float(np.sqrt(np.dot(a, a)))
    if not math.isfinite(spread):
        raise DomainError(f"minkowski-deviation scale is not finite ({spread}); the values overflow float64")
    if spread == 0.0:
        raise DomainError("spread underflows to 0; the values are too small for float64")
    return centered / spread


def _ref_associate(standardize, vx, vy):
    if _ref_is_constant(vx) or _ref_is_constant(vy):
        raise ConstantSeriesError("association is undefined for constant series")
    return _ref_cosine(standardize(vx), standardize(vy))


def _outcome(f, *args):
    """f(*args), or the type and text of the error it raises."""
    with np.errstate(all="ignore"):
        try:
            return f(*args)
        except (ConstantSeriesError, DomainError) as exc:
            return type(exc), str(exc)


def _value_sets(n):
    """Seeded 5-row sets at magnitudes 1e-150 .. 1e150, then one of mixed magnitudes."""
    rng = np.random.default_rng(n)
    for e in (-150, -100, -50, -8, 0, 8, 50, 100, 150):
        yield (rng.standard_normal((5, n)) + rng.uniform(-3.0, 3.0)) * 10.0**e
    yield rng.standard_normal((5, n)) * 10.0 ** rng.integers(-150, 151, size=(5, 1))


_COSINE_ROUTES = [(Pearson(), _ref_center_mean), (CosineStandardized(UNIT_MEAN), _ref_unit_mean)]


class TestBitIdenticalToReference:
    """The fast formulas return the very bits, and raise the very errors, of the reference."""

    @pytest.mark.parametrize("n", [2, 3, 256, 4000])
    @pytest.mark.parametrize("spec, standardize", _COSINE_ROUTES, ids=["pearson", "cosine-unit-mean"])
    def test_matrix_equals_per_pair_reference(self, spec, standardize, n):
        finite_sets = 0
        for rows in _value_sets(n):
            data = load_set(rows)
            expected = np.ones((5, 5))
            all_finite = True
            for i in range(5):
                for j in range(i + 1, 5):
                    vx, vy = data[i].values, data[j].values
                    want = _outcome(_ref_associate, standardize, vx, vy)
                    assert _outcome(associate_values, spec, vx, vy) == want
                    if isinstance(want, float):
                        expected[i, j] = expected[j, i] = want
                    else:
                        all_finite = False
            if all_finite:
                finite_sets += 1
                assert np.array_equal(association_matrix(spec, data).values, expected)
        assert finite_sets >= 5  # Pearson's norm product leaves float64 beyond ~1e±77

    def test_arithmetic_mean_equals_ndarray_mean(self):
        rng = np.random.default_rng(61)
        for n in (2, 3, 7, 256, 4000, 100_003):
            for e in (-150, -50, 0, 50, 150):
                v = (rng.standard_normal(n) + rng.uniform(-5.0, 5.0)) * 10.0**e
                for w in (v, v[::-1], v[::3]) if n > 3 else (v, v[::-1]):
                    assert ArithmeticMean().evaluate(w) == float(w.mean())
                    assert central_values(ArithmeticMean(), w) == float(w.mean())

    @pytest.mark.parametrize("spec, standardize", _COSINE_ROUTES, ids=["pearson", "cosine-unit-mean"])
    @pytest.mark.parametrize("scale", [1e200, 1e-310], ids=["overflow", "underflow"])
    def test_same_domain_error_as_reference(self, spec, standardize, scale):
        vx = scale * np.array([1.0, -1.0, 1.0, -1.0])
        vy = scale * np.array([-1.0, 1.0, 1.0, -1.0])
        want = _outcome(_ref_associate, standardize, vx, vy)
        assert want[0] is DomainError
        assert _outcome(associate_values, spec, vx, vy) == want


# --- association_matrix standardizes each series once -----------------------


def _reference_matrix(spec, data):
    """The per-pair `associate` double loop that association_matrix replaced."""
    k = len(data)
    out = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            out[i, j] = out[j, i] = associate(spec, data[i], data[j])
    return out


def _matrix_outcome(f, spec, data):
    """The int64 view of f(spec, data), or the type and text of the error it raises."""
    with np.errstate(all="ignore"):
        try:
            values = f(spec, data)
        except ShapeAssocError as exc:
            return type(exc), str(exc)
    return np.asarray(values).view(np.int64).tolist()


_CENTER_MIN_RECIPE = SimilarityRecipe(DissimilaritySpec(2.0, preset("center-min")), RationalDecay(1.0))
_COMPLEMENT_RECIPE = SimilarityRecipe(D2_UNIT, ComplementDecay())
_GRID = {m.name: m.measure for m in default_grid_measures()}
_ONCE_MEASURES = [pytest.param(spec, id=name) for name, spec in _GRID.items()] + [
    pytest.param(Pearson(), id="pearson"),
    pytest.param(CosineStandardized(UNIT_MEAN), id="cosine-unit-mean"),
    pytest.param(GeneralizedMidrangeCorrelation(0, 2), id="gmidrange-correlation"),
    pytest.param(SimilarityBranch(_CENTER_MIN_RECIPE), id="similarity-branch"),
    pytest.param(SimilarityDifference(_COMPLEMENT_RECIPE), id="similarity-difference"),
    pytest.param(SimilarityComplement(_COMPLEMENT_RECIPE), id="similarity-complement"),
]


class _OnEachPair(MeasureSpec):
    """A measure that calls `f(vx)` on each pair and returns 0.5."""

    tag = "on-each-pair"

    def __init__(self, f):
        self.f = f

    def evaluate(self, vx: np.ndarray, vy: np.ndarray) -> float:
        self.f(vx)
        return 0.5


def _once_set(rng, n, scale=1.0):
    """Five seeded rows, an equal-valued copy of the first and the second negated."""
    rows = (rng.standard_normal((5, n)) + rng.uniform(-3.0, 3.0, size=(5, 1))) * scale
    return load_set([*rows, rows[0], -rows[1]])


def _tie_set(rng, n):
    """Three rows x with x[s] == x and three rows y with y[s] == -y, for a swap s of
    index pairs that fixes the second index (Projection(2)'s sample). A standardization
    that commutes with permutations, odd or not, puts each x as far from y as from -y:
    the branch form's tie."""
    rest = [i for i in range(n) if i != 1]
    left, right = rest[0 : len(rest) - 1 : 2], rest[1::2]
    s = np.arange(n)
    s[left], s[right] = right, left
    x = rng.standard_normal((3, n)) + rng.uniform(-3.0, 3.0, size=(3, 1))
    y = rng.standard_normal((3, n))
    return load_set([*((x + x[:, s]) / 2.0), *((y - y[:, s]) / 2.0)])


# each per-series result the store holds: (route, evaluations of F per call)
_ROUTES = {
    "F(v)": (lambda f, v: standardize_values(f, v), 1),
    "-v": (lambda f, v: _negated(v), 0),
    "F(-v)": (lambda f, v: standardize_values(f, _negated(v)), 1),
    "centered": (lambda f, v: _once(_mean_centered, v, _mean_centered)[0], 0),
}
_STANDARDIZED = ["F(v)", "F(-v)"]


class TestStandardizedOnce:
    """Within association_matrix each series, and its negation, is standardized
    once per standardization, and mean-centered once."""

    @pytest.mark.parametrize("n", [3, 7, 256, 4000])
    @pytest.mark.parametrize("spec", _ONCE_MEASURES)
    def test_matrix_bits_equal_the_per_pair_loop(self, spec, n):
        data = _once_set(np.random.default_rng(n), n)
        assert data[0].values is not data[5].values
        want = _matrix_outcome(_reference_matrix, spec, data)
        assert _matrix_outcome(lambda *a: association_matrix(*a).values, spec, data) == want
        if n >= 5:
            assert isinstance(want, list)

    @pytest.mark.parametrize("n", [6, 7, 256])
    @pytest.mark.parametrize("spec", _ONCE_MEASURES)
    def test_matrix_bits_equal_the_per_pair_loop_on_ties(self, spec, n):
        data = _tie_set(np.random.default_rng(n), n)
        want = _matrix_outcome(_reference_matrix, spec, data)
        assert _matrix_outcome(lambda *a: association_matrix(*a).values, spec, data) == want
        if isinstance(spec, (MinkowskiBranch, SimilarityBranch)):
            # every x-y pair ties, and a tie reads exactly +0.0
            assert [row[3:] for row in want[:3]] == [[0] * 3] * 3

    @pytest.mark.parametrize("spec", _ONCE_MEASURES)
    @pytest.mark.parametrize("case", ["constant", "huge"])
    def test_matrix_errors_equal_the_per_pair_loop(self, spec, case):
        rng = np.random.default_rng(7)
        if case == "constant":
            rows = [*(rng.standard_normal((3, 7))), np.full(7, 2.5), rng.standard_normal(7)]
            data = load_set(rows)
        else:
            data = _once_set(rng, 7, scale=1e200)
        want = _matrix_outcome(_reference_matrix, spec, data)
        assert want[0] in (ConstantSeriesError, DomainError)
        assert _matrix_outcome(lambda *a: association_matrix(*a).values, spec, data) == want

    @staticmethod
    def _count_evaluations(monkeypatch):
        """Record each array Center.evaluate is called on."""
        seen = []
        original = Center.evaluate

        def counted(self, v):
            seen.append(v)
            return original(self, v)

        monkeypatch.setattr(Center, "evaluate", counted)
        return seen

    @pytest.mark.parametrize("route", _ROUTES)
    def test_outside_a_matrix_every_call_computes_a_new_writeable_array(self, monkeypatch, route):
        f = Center(Median())
        compute, evaluations = _ROUTES[route]
        good = _once_set(np.random.default_rng(3), 9)
        bad = load_set([*(s.values for s in good), np.zeros(9)])
        association_matrix(MinkowskiBranch(DissimilaritySpec(2.0, f)), good)
        with pytest.raises(ConstantSeriesError):
            association_matrix(MinkowskiBranch(DissimilaritySpec(2.0, f)), bad)
        seen = self._count_evaluations(monkeypatch)
        for data in (good, bad):
            v = data[0].values
            first, second = compute(f, v), compute(f, v)
            assert first is not second and first.flags.writeable and second.flags.writeable
            assert np.array_equal(first, second)
            if route == "-v":
                assert np.array_equal(first, -v)
        assert len(seen) == 4 * evaluations

    @pytest.mark.parametrize("route", _ROUTES)
    def test_inside_a_matrix_only_member_arrays_are_stored_read_only(self, monkeypatch, route):
        f = Center(Median())
        compute, evaluations = _ROUTES[route]
        results = []

        def compute_three_ways(vx):
            copy, negated = vx.copy(), -vx
            results.append((vx, *(compute(f, v) for v in (vx, copy, negated))))

        data = _once_set(np.random.default_rng(4), 9)
        seen = self._count_evaluations(monkeypatch)
        association_matrix(_OnEachPair(compute_three_ways), data)
        k = len(data)
        pairs = k * (k - 1) // 2
        assert len(results) == pairs
        # one evaluation per distinct first-of-pair series, and one per fresh copy or negation
        assert len(seen) == evaluations * ((k - 1) + 2 * pairs)
        stored = {}
        for vx, fx, f_copy, f_neg in results:
            assert stored.setdefault(id(vx), fx) is fx
            assert not fx.flags.writeable
            assert f_copy.flags.writeable and f_neg.flags.writeable
            assert np.array_equal(f_copy, fx)

    @pytest.mark.parametrize("route", _STANDARDIZED)
    def test_an_error_is_raised_again_and_never_stored(self, route):
        f = CenterScale(ArithmeticMean(), MinkowskiDeviation(2.0, ArithmeticMean()))
        compute, _ = _ROUTES[route]
        errors = []

        def compute_twice(vx):
            for _ in range(2):
                with pytest.raises(DomainError) as exc:
                    compute(f, vx)
                errors.append(str(exc.value))

        tiny = 1e-310 * np.array([1.0, -1.0, 2.0, -2.0])
        association_matrix(_OnEachPair(compute_twice), load_set([tiny, -tiny]))
        assert errors == ["spread underflows to 0; the values are too small for float64"] * 2

    @pytest.mark.parametrize("route", _ROUTES)
    def test_another_thread_sees_no_store(self, route):
        f = Center(Median())
        compute, _ = _ROUTES[route]
        outs = []

        def compute_in_a_thread_then_here(vx):
            worker = threading.Thread(target=lambda: outs.append(compute(f, vx)))
            worker.start()
            worker.join()
            outs.append(compute(f, vx))

        association_matrix(_OnEachPair(compute_in_a_thread_then_here), load_set([[1, 2, 4], [3, 1, 2]]))
        assert outs[0].flags.writeable and not outs[1].flags.writeable

    @pytest.mark.parametrize("route", _STANDARDIZED)
    def test_an_unhashable_standardization_is_computed_per_call(self, route):
        class Unhashable(Center):
            __hash__ = None

        f = Unhashable(Median())
        compute, _ = _ROUTES[route]
        outs = []
        data = load_set([[1, 2, 4], [3, 1, 2], [2, 2, 1]])
        association_matrix(_OnEachPair(lambda vx: outs.append(compute(f, vx))), data)
        assert all(out.flags.writeable for out in outs)

    @pytest.mark.parametrize(
        "spec, standardizations, centers, centerings",
        [
            # 4 per pair as the perfbench pin has it. The store holds F(v) per series and
            # F(-v) per series ever a y, which all but the first are: 9 + 8 centers.
            pytest.param(_GRID["branch-median"], 4 * 36, 9 + 8, 0, id="branch-median"),
            pytest.param(_GRID["contrast-median"], 4 * 36, 9 + 8, 0, id="contrast-median"),
            pytest.param(CosineStandardized(UNIT_MEAN), 2 * 36, 9, 0, id="cosine-unit-mean"),
            # Pearson centers each series once, and calls no estimate
            pytest.param(Pearson(), 0, 0, 9, id="pearson"),
        ],
    )
    def test_the_store_engages(self, monkeypatch, spec, standardizations, centers, centerings):
        calls = {"standardize_values": 0, "central_values": 0, "_mean_centered": 0}

        def counting(module, attr):
            original = getattr(module, attr)

            def wrapper(*args):
                calls[attr] += 1
                return original(*args)

            monkeypatch.setattr(module, attr, wrapper)

        # the module, not the function that the package re-exports under its name
        measures = importlib.import_module("shapeassoc.measures")
        counting(measures, "standardize_values")
        counting(measures, "_mean_centered")
        counting(importlib.import_module("shapeassoc.standardize"), "central_values")
        data = load_set(np.random.default_rng(6).standard_normal((9, 40)))
        association_matrix(spec, data)
        assert calls == {"standardize_values": standardizations, "central_values": centers, "_mean_centered": centerings}


# --- exact values on integer series -------------------------------------------


def _decimal(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


def _exact_rho(x, y) -> Decimal:
    """Pearson's correlation of integer series from exact sums, rounded only
    at the current decimal precision."""
    mx, my = Fraction(sum(x), len(x)), Fraction(sum(y), len(y))
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    # the root of rho^2, so |rho| = 1 comes out exactly 1
    return _decimal(sxy**2 / (sxx * syy)).sqrt().copy_sign(_decimal(sxy))


def _exact_branch(rho: Decimal) -> Decimal:
    """1 / (1 + sqrt(2 - 2|rho|)) with the sign of rho: RationalDecay(1) of the
    nearer of D(x, y)^2 = 2 - 2 rho and D(x, -y)^2 = 2 + 2 rho; 0 on the tie."""
    if rho == 0:
        return Decimal(0)
    value = 1 / (1 + (2 - 2 * abs(rho)).sqrt())
    return value if rho > 0 else -value


# every route is rho itself but the branch; the contrast is
# ((D(x, -y) / 2)^2 - (D(x, y) / 2)^2) = rho at r = 2 on unit vectors
_EXACT_ROUTES = [
    (Pearson(), lambda rho: rho),
    (CosineStandardized(UNIT_MEAN), lambda rho: rho),
    (MinkowskiContrast(D2_UNIT, PowerHalf(2.0)), lambda rho: rho),
    (MinkowskiBranch(D2_UNIT, RationalDecay(1.0)), _exact_branch),
]
_EXACT_TOL = 8 * 2.0**-52  # 8 eps, absolute

integer_pairs = st.integers(3, 40).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(-99, 99), min_size=n, max_size=n)] * 2)
)


@given(integer_pairs)
@example(([3, -7, 0, 12, 5], [2 * a + 3 for a in [3, -7, 0, 12, 5]]))  # rho = 1
@example(([3, -7, 0, 12, 5], [-a for a in [3, -7, 0, 12, 5]]))  # rho = -1
@example(([1, 2, 3], [1, -2, 1]))  # rho = 0, the branch tie
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_values_lie_within_8_eps_of_the_exact_ones(pair):
    x, y = pair
    assume(len(set(x)) > 1 and len(set(y)) > 1)
    vx, vy = np.array(x, dtype=np.float64), np.array(y, dtype=np.float64)
    with localcontext() as ctx:
        ctx.prec = 60
        rho = _exact_rho(x, y)
        for spec, exact in _EXACT_ROUTES:
            error = abs(Decimal(associate_values(spec, vx, vy)) - exact(rho))
            assert error <= Decimal(_EXACT_TOL), (type(spec).__name__, float(error / Decimal(2.0**-52)))


class _Returns(MeasureSpec):
    """A measure that returns a fixed value, whatever the series."""

    tag = "returns"

    def __init__(self, value: float):
        self.value = value

    def evaluate(self, vx: np.ndarray, vy: np.ndarray) -> float:
        return self.value


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_non_finite_association_is_refused(value):
    x, y = np.array([1.0, 2.0, 4.0]), np.array([3.0, 1.0, 2.0])
    with pytest.raises(DomainError) as exc:
        associate_values(_Returns(value), x, y)
    assert str(exc.value) == f"association is not finite ({value}); the values overflow float64"
