import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeassoc import (
    ArithmeticMean,
    GeneralizedMidrange,
    Max,
    Median,
    Midrange,
    Min,
    MinkowskiDeviation,
    OrderStatistic,
    OrderedWeightedMean,
    Projection,
    Range,
    SpecError,
    TruncatedMean,
    WeightedMean,
)
from shapeassoc.estimates import central_values, minkowski_norm, scale_values

from helpers import random_values, ts


class TestWorkedExamples:
    def test_min_max_midrange(self):
        x = ts([1, 2, 3, 6])
        assert central_values(Min(), x.values) == 1.0
        assert central_values(Max(), x.values) == 6.0
        assert central_values(Midrange(), x.values) == 3.5

    def test_median(self):
        assert central_values(Median(), ts([1, 2, 3, 10]).values) == 2.5
        assert central_values(Median(), ts([5, 1, 3]).values) == 3.0

    def test_projection_uses_original_order(self):
        assert central_values(Projection(2), ts([5, 1, 3]).values) == 1.0
        assert central_values(Projection(1), ts([5, 1, 3]).values) == 5.0

    def test_order_statistic_sorts(self):
        assert central_values(OrderStatistic(2), ts([5, 1, 3]).values) == 3.0
        assert central_values(OrderStatistic(1), ts([5, 1, 3]).values) == 1.0

    def test_truncated_mean(self):
        assert central_values(TruncatedMean(1), ts([5, 1, 3, 2, 4]).values) == 3.0

    def test_truncated_mean_m0_is_mean(self):
        # same value up to summation order
        v = random_values(np.random.default_rng(5), 9)
        assert central_values(TruncatedMean(0), v) == pytest.approx(
            central_values(ArithmeticMean(), v), abs=1e-12
        )

    def test_generalized_midrange(self):
        assert central_values(GeneralizedMidrange(0, 2), ts([5, 1, 3, 2, 4]).values) == 3.0
        assert central_values(GeneralizedMidrange(1, 2), ts([5, 1, 3, 2, 4]).values) == 3.0

    def test_arithmetic_mean(self):
        assert central_values(ArithmeticMean(), ts([1, 2, 3, 6]).values) == 3.0

    def test_weighted_means(self):
        assert central_values(WeightedMean((0.5, 0.5)), ts([1, 3]).values) == 2.0
        assert central_values(WeightedMean((1.0, 0.0)), ts([5, 1]).values) == 5.0
        # OWA weights apply to the ascending sort, not original order
        assert central_values(OrderedWeightedMean((1.0, 0.0)), ts([5, 1]).values) == 1.0

    def test_range(self):
        assert scale_values(Range(), ts([1, 2, 3, 6]).values) == 5.0

    def test_minkowski_deviation(self):
        x = ts([1, 2, 3])
        assert scale_values(MinkowskiDeviation(2.0, ArithmeticMean()), x.values) == pytest.approx(
            math.sqrt(2), abs=1e-15
        )
        assert scale_values(MinkowskiDeviation(1.0, ArithmeticMean()), x.values) == 2.0


class TestMinkowskiNorm:
    def test_order_two_equals_the_absolute_value_form_bit_for_bit(self):
        rng = np.random.default_rng(68)
        for t in range(300):
            n = int(np.exp(rng.uniform(np.log(2), np.log(100_003))))
            if t % 3 == 0:  # magnitudes from 1e-150 to 1e150 within one vector
                magnitude = 10.0 ** rng.integers(-150, 151, n)
            else:
                magnitude = 10.0 ** rng.choice((-150, -8, 0, 8, 150))
            d = rng.standard_normal(n) * magnitude
            a = np.abs(d)
            assert minkowski_norm(d, 2.0) == float(np.sqrt(np.dot(a, a)))


class TestParameterValidation:
    def test_index_bounds(self):
        with pytest.raises(SpecError):
            Projection(0)
        with pytest.raises(SpecError):
            OrderStatistic(0)
        with pytest.raises(SpecError):
            TruncatedMean(-1)

    def test_gmdr_bounds(self):
        with pytest.raises(SpecError):
            GeneralizedMidrange(2, 2)
        with pytest.raises(SpecError):
            GeneralizedMidrange(-1, 1)

    def test_deviation_order(self):
        with pytest.raises(SpecError):
            MinkowskiDeviation(0.5, ArithmeticMean())
        with pytest.raises(SpecError):
            MinkowskiDeviation(float("nan"), ArithmeticMean())

    def test_weight_vectors(self):
        with pytest.raises(SpecError):
            WeightedMean(())
        with pytest.raises(SpecError):
            WeightedMean((0.5, -0.5, 1.0))
        with pytest.raises(SpecError):
            WeightedMean((0.5, 0.4))  # sums to 0.9, never renormalized
        with pytest.raises(SpecError):
            OrderedWeightedMean((0.5, float("nan")))

    def test_weight_sum_tolerance(self):
        WeightedMean((0.5, 0.5 + 5e-10))
        with pytest.raises(SpecError):
            WeightedMean((0.5, 0.5 + 5e-9))


class TestLengthRules:
    def test_constraints(self):
        assert ArithmeticMean().bounds == (2, None)
        assert Projection(7).bounds == (7, None)
        assert OrderStatistic(1).bounds == (2, None)
        assert TruncatedMean(2).bounds == (5, None)
        assert GeneralizedMidrange(0, 2).bounds == (5, None)
        assert WeightedMean((0.25, 0.25, 0.5)).bounds == (3, 3)
        assert MinkowskiDeviation(2.0, TruncatedMean(3)).bounds == (7, None)
        assert Range().bounds == (2, None)

    def test_too_short_series_rejected(self):
        with pytest.raises(SpecError):
            central_values(TruncatedMean(2), ts([1, 2, 3]).values)
        with pytest.raises(SpecError):
            central_values(GeneralizedMidrange(0, 2), ts([1, 2, 3, 4]).values)
        with pytest.raises(SpecError):
            central_values(Projection(4), ts([1, 2, 3]).values)

    def test_weight_length_must_match_exactly(self):
        with pytest.raises(SpecError):
            central_values(WeightedMean((0.5, 0.5)), ts([1, 2, 3]).values)
        with pytest.raises(SpecError):
            central_values(OrderedWeightedMean((0.25, 0.25, 0.5)), ts([1, 2]).values)


class TestTraits:
    def test_catalog_traits(self):
        assert not Min().odd and not Max().odd
        assert Median().odd
        assert not OrderStatistic(2).odd
        assert not OrderedWeightedMean((0.5, 0.5)).odd
        assert WeightedMean((0.5, 0.5)).odd
        for spec in (Midrange(), Projection(2), TruncatedMean(1), GeneralizedMidrange(0, 2), ArithmeticMean()):
            assert spec.odd

    def test_scale_traits(self):
        assert Range().even
        assert MinkowskiDeviation(2.0, ArithmeticMean()).even
        assert not MinkowskiDeviation(2.0, Min()).even


_CENTRALS = (
    Min(),
    Max(),
    Midrange(),
    Projection(3),
    OrderStatistic(2),
    Median(),
    TruncatedMean(2),
    GeneralizedMidrange(0, 2),
    GeneralizedMidrange(1, 3),
    ArithmeticMean(),
)


def _weighted_pair(n: int):
    w = np.linspace(1.0, 2.0, n)
    w = tuple(w / w.sum())
    return WeightedMean(w), OrderedWeightedMean(w)


class TestInvariants:
    def test_bounded_by_min_and_max(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(7, 40))
            v = random_values(rng, n)
            specs = _CENTRALS + _weighted_pair(n)
            for spec in specs:
                e = central_values(spec, v)
                assert v.min() <= e <= v.max(), spec

    def test_translation_additivity(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(rng.integers(7, 40))
            v = random_values(rng, n)
            q = float(rng.uniform(-10, 10))
            for spec in _CENTRALS + _weighted_pair(n):
                assert abs(central_values(spec, v + q) - (central_values(spec, v) + q)) <= 1e-10

    def test_scale_proportionality(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(7, 40))
            v = random_values(rng, n)
            p = float(rng.uniform(0.1, 10.0))
            for spec in _CENTRALS + _weighted_pair(n):
                e = central_values(spec, v)
                assert abs(central_values(spec, p * v) - p * e) <= 1e-10 * max(1.0, abs(p * e))

    def test_oddness_of_flagged_estimates(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            n = int(rng.integers(7, 40))
            v = random_values(rng, n)
            wam, _ = _weighted_pair(n)
            for spec in _CENTRALS + (wam,):
                if not spec.odd:
                    continue
                assert abs(central_values(spec, -v) + central_values(spec, v)) <= 1e-12

    def test_order_statistic_reflection_exact(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            v = random_values(rng, n)
            k = int(rng.integers(1, n + 1))
            assert central_values(OrderStatistic(k), -v) == -central_values(
                OrderStatistic(n + 1 - k), v
            )

    def test_aggregation_identity(self):
        # n * AM recovers (n - 2m) * TM_m + 2m * GMDR_{0,m}
        rng = np.random.default_rng(26)
        for _ in range(300):
            n = int(rng.integers(5, 41))
            v = random_values(rng, n)
            am = central_values(ArithmeticMean(), v)
            for m in range(1, (n - 1) // 2 + 1):
                tm = central_values(TruncatedMean(m), v)
                gm = central_values(GeneralizedMidrange(0, m), v)
                assert abs(am - ((n - 2 * m) * tm + 2 * m * gm) / n) <= 1e-10

    def test_gmdr_01_is_midrange_exact(self):
        rng = np.random.default_rng(27)
        for _ in range(300):
            v = random_values(rng, int(rng.integers(3, 40)))
            assert central_values(GeneralizedMidrange(0, 1), v) == central_values(Midrange(), v)

    def test_scale_estimates_translation_invariant(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            v = random_values(rng, 19)
            q = float(rng.uniform(-10, 10))
            for spec in (Range(), MinkowskiDeviation(2.0, ArithmeticMean()), MinkowskiDeviation(1.0, Median())):
                assert abs(scale_values(spec, v + q) - scale_values(spec, v)) <= 1e-10

    def test_scale_estimates_proportional_and_even(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            v = random_values(rng, 19)
            p = float(rng.uniform(0.1, 10.0))
            for spec in (Range(), MinkowskiDeviation(2.0, ArithmeticMean())):
                s = scale_values(spec, v)
                assert abs(scale_values(spec, p * v) - p * s) <= 1e-10 * max(1.0, p * s)
                assert abs(scale_values(spec, -v) - s) <= 1e-12


bounded_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@given(st.lists(bounded_floats, min_size=7, max_size=30), st.floats(min_value=-50, max_value=50))
@settings(max_examples=60, deadline=None)
def test_translation_additivity_hypothesis(values, q):
    v = np.asarray(values)
    for spec in (Midrange(), Median(), TruncatedMean(2), GeneralizedMidrange(1, 3)):
        assert abs(central_values(spec, v + q) - (central_values(spec, v) + q)) <= 1e-10


@given(st.lists(bounded_floats, min_size=7, max_size=30))
@settings(max_examples=60, deadline=None)
def test_oddness_hypothesis(values):
    v = np.asarray(values)
    for spec in (Midrange(), Median(), ArithmeticMean(), GeneralizedMidrange(0, 3)):
        assert abs(central_values(spec, -v) + central_values(spec, v)) <= 1e-12
