import math

import numpy as np
import pytest

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
    abs_similarity,
    associate,
    association_matrix,
    constant_series,
    decay,
    dissimilarity,
    grow,
    load_set,
    preset,
    reflect,
    similarity,
    standardize,
)
from shapeassoc.estimates import central_values, scale_values
from shapeassoc.measures import (
    associate_values,
    constant_ids,
    dissimilarity_values,
)

from helpers import random_values, ts

UNIT_MEAN = preset("unit-mean")
CENTER_MEAN = preset("center-mean")
D2_UNIT = DissimilaritySpec(2.0, UNIT_MEAN)
D2_CENTER = DissimilaritySpec(2.0, CENTER_MEAN)


class TestTransforms:
    def test_rational_decay(self):
        assert decay(RationalDecay(1.0), 0.0) == 1.0
        assert decay(RationalDecay(1.0), 1.0) == 0.5
        assert decay(RationalDecay(3.0), 1.0) == 0.75

    def test_exp_decay(self):
        assert decay(ExpDecay(), 0.0) == 1.0
        assert decay(ExpDecay(), math.log(2.0)) == pytest.approx(0.5, abs=1e-15)

    def test_complement_decay(self):
        c = ComplementDecay(PowerHalf(2.0), 2.0)
        assert decay(c, 0.0) == 1.0
        assert decay(c, 1.0) == 0.75
        assert decay(c, 2.0) == 0.0
        with pytest.raises(DomainError):
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
        with pytest.raises(SpecError):
            ComplementDecay(PowerHalf(2.0), 0.0)
        with pytest.raises(SpecError):
            # (3/2)^2 > 1: growth exceeds 1 before the cap
            ComplementDecay(PowerHalf(2.0), 3.0)


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
            assert associate(spec, reflect(x), x) == pytest.approx(-1.0, abs=1e-9)
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
        recipe = SimilarityRecipe(D2_UNIT, ComplementDecay(PowerHalf(2.0), 2.0))
        diff = SimilarityDifference(recipe)
        comp = SimilarityComplement(recipe)
        rng = np.random.default_rng(51)
        for _ in range(50):
            x = ts(random_values(rng, 10))
            y = ts(random_values(rng, 10), "y")
            s_same = similarity(recipe, x, y)
            s_refl = similarity(recipe, x, reflect(y))
            assert associate(diff, x, y) == pytest.approx(s_same - s_refl, abs=1e-15)
            assert associate(comp, x, y) == pytest.approx(2.0 * s_same - 1.0, abs=1e-15)

    def test_difference_complement_and_contrast_coincide_when_normal(self):
        # 1 - (d/2)^p turns the contrast form into a similarity difference
        recipe = SimilarityRecipe(D2_UNIT, ComplementDecay(PowerHalf(2.0), 2.0))
        contrast = MinkowskiContrast(D2_UNIT, PowerHalf(2.0))
        rng = np.random.default_rng(52)
        for _ in range(50):
            vx, vy = random_values(rng, 14), random_values(rng, 14)
            a = associate_values(SimilarityDifference(recipe), vx, vy)
            b = associate_values(contrast, vx, vy)
            assert abs(a - b) <= 1e-12


class TestAbsSimilarity:
    def test_examples(self):
        assert abs_similarity(Pearson(), ts([1, 2, 3]), ts([3, 2, 1], "y")) == 1.0
        assert abs_similarity(Pearson(), ts([1, 2, 3]), ts([1, 3, 2], "y")) == 0.5
        x = ts([2, 9, 4])
        assert abs_similarity(Pearson(), x, x) == 1.0

    def test_reflection_invariance(self):
        rng = np.random.default_rng(53)
        for spec in (Pearson(), MinkowskiBranch(D2_UNIT), MinkowskiContrast(D2_UNIT)):
            x = ts(random_values(rng, 16))
            y = ts(random_values(rng, 16), "y")
            assert abs_similarity(spec, reflect(x), y) == pytest.approx(
                abs_similarity(spec, x, y), abs=1e-12
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
