import numpy as np
import pytest

from shapeassoc import (
    ArithmeticMean,
    Center,
    CenterScale,
    ConstantSeriesError,
    GeneralizedMidrange,
    Median,
    Midrange,
    Min,
    MinkowskiDeviation,
    Range,
    SpecError,
    constant_series,
    is_constant,
    preset,
    standardize,
)
from shapeassoc.config import from_dict, to_dict
from shapeassoc.estimates import (
    CentralEstimate,
    Max,
    OrderedWeightedMean,
    OrderStatistic,
    Projection,
    TruncatedMean,
    WeightedMean,
    central_values,
    scale_values,
)
from shapeassoc.standardize import Standardization, standardize_values

from helpers import random_values, ts

UNIT = 1.0 / np.sqrt(2.0)


class TestWorkedExamples:
    def test_center_mean(self):
        out = standardize(preset("center-mean"), ts([1, 2, 3]))
        assert np.array_equal(out.values, [-1, 0, 1])
        assert out.id == "x"

    def test_center_min(self):
        out = standardize(preset("center-min"), ts([1, 2, 3]))
        assert np.array_equal(out.values, [0, 1, 2])

    def test_unit_mean(self):
        out = standardize(preset("unit-mean"), ts([1, 2, 3]))
        assert out.values == pytest.approx([-UNIT, 0.0, UNIT], abs=1e-12)

    def test_center_of_constant_is_zero(self):
        out = standardize(Center(Median()), constant_series(4.2, 5))
        assert np.array_equal(out.values, np.zeros(5))


class TestPresets:
    def test_preset_structure(self):
        assert preset("center-mean") == Center(ArithmeticMean())
        assert preset("center-min") == Center(Min())
        am = ArithmeticMean()
        assert preset("unit-mean") == CenterScale(am, MinkowskiDeviation(2.0, am))
        g = GeneralizedMidrange(0, 2)
        assert preset("unit-gmidrange") == CenterScale(g, MinkowskiDeviation(2.0, g))
        g13 = GeneralizedMidrange(1, 3)
        assert preset("unit-gmidrange", r=3.0, k=1, m=3) == CenterScale(
            g13, MinkowskiDeviation(3.0, g13)
        )

    def test_unknown_preset(self):
        with pytest.raises(SpecError):
            preset("zscore")

    def test_bad_preset_parameters(self):
        with pytest.raises(SpecError):
            preset("unit-gmidrange", k=2, m=2)
        with pytest.raises(SpecError):
            preset("unit-mean", r=0.5)


class TestFlags:
    def test_unit_mean_flags(self):
        spec = preset("unit-mean")
        assert spec.scale_invariant
        assert spec.odd
        assert spec.normality_order == 2.0

    def test_center_mean_flags(self):
        spec = preset("center-mean")
        assert spec.odd
        assert not spec.scale_invariant
        assert spec.normality_order is None

    def test_center_min_not_odd(self):
        assert not preset("center-min").odd

    def test_mismatched_deviation_center_loses_normality(self):
        spec = CenterScale(Median(), MinkowskiDeviation(2.0, ArithmeticMean()))
        assert spec.normality_order is None
        assert spec.scale_invariant

    def test_range_scaled_has_no_normality(self):
        spec = CenterScale(Midrange(), Range())
        assert spec.normality_order is None
        assert spec.scale_invariant
        assert spec.odd

    def test_even_spread_with_non_odd_center(self):
        assert not CenterScale(Min(), Range()).odd

    def test_normality_order_follows_the_spread_rule(self):
        centers = (
            Min(), Max(), Midrange(), Projection(3), OrderStatistic(2), Median(), TruncatedMean(2),
            GeneralizedMidrange(1, 3), ArithmeticMean(), WeightedMean((0.25, 0.75)),
            OrderedWeightedMean((0.5, 0.5)),
        )
        assert {type(c) for c in centers} == set(CentralEstimate.__subclasses__())
        for i, center in enumerate(centers):
            other = centers[(i + 1) % len(centers)]
            for r in (1.0, 2.0, 3.0):
                for spread in (MinkowskiDeviation(r, center), MinkowskiDeviation(r, other), Range()):
                    spec = CenterScale(center, spread)
                    s = spec.spread
                    rule = s.r if isinstance(s, MinkowskiDeviation) and s.center == spec.center else None
                    assert spec.normality_order == rule
                    d = to_dict(spec)
                    assert list(d) == ["kind", "center", "spread"]
                    back = from_dict(d, Standardization)
                    assert back == spec and to_dict(back) == d
                    assert back.normality_order == rule


class TestLengthBounds:
    def test_bounds(self):
        assert preset("unit-mean").bounds == (2, None)
        assert preset("unit-gmidrange").bounds == (5, None)
        assert preset("unit-gmidrange", m=3).bounds == (7, None)
        assert Center(Min()).bounds == (2, None)
        spread = MinkowskiDeviation(2.0, WeightedMean((0.25,) * 4))
        assert CenterScale(Projection(3), spread).bounds == (4, 4)
        assert CenterScale(Median(), spread).bounds == (4, 4)

    @pytest.mark.parametrize(
        "center, spread, wanted",
        [
            (WeightedMean((0.5, 0.5)), WeightedMean((1 / 3,) * 3), "the center (length 2) and the spread (length 3)"),
            (Projection(5), WeightedMean((0.25,) * 4), "the center (length >= 5) and the spread (length 4)"),
        ],
        ids=["two-fixed-lengths", "fixed-length-below-minimum"],
    )
    def test_lengths_no_series_can_meet_are_refused(self, center, spread, wanted):
        with pytest.raises(SpecError) as exc:
            CenterScale(center, MinkowskiDeviation(2.0, spread))
        assert str(exc.value) == f"no length meets both {wanted}"


_SPECS = (
    preset("center-mean"),
    preset("center-min"),
    preset("unit-mean"),
    preset("unit-gmidrange"),
    Center(Median()),
    Center(Midrange()),
    CenterScale(Midrange(), Range()),
    CenterScale(Median(), MinkowskiDeviation(3.0, Median())),
)


class TestInvariants:
    def test_idempotent(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            v = random_values(rng, int(rng.integers(5, 40)))
            for spec in _SPECS:
                f = standardize_values(spec, v)
                assert np.max(np.abs(standardize_values(spec, f) - f)) <= 1e-10, spec

    def test_center_estimate_of_result_is_zero(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            v = random_values(rng, int(rng.integers(5, 40)))
            for spec in _SPECS:
                out = standardize_values(spec, v)
                assert abs(central_values(spec.center, ts(out).values)) <= 1e-10

    def test_translation_invariance(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            v = random_values(rng, int(rng.integers(5, 40)))
            q = float(rng.uniform(-10, 10))
            for spec in _SPECS:
                delta = standardize_values(spec, v + q) - standardize_values(spec, v)
                assert np.max(np.abs(delta)) <= 1e-10, spec

    def test_scale_invariance_of_center_scale(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            v = random_values(rng, int(rng.integers(5, 40)))
            for p in (1e-3, 0.5, 2.0, 1e3):
                for spec in _SPECS:
                    if not spec.scale_invariant:
                        continue
                    delta = standardize_values(spec, p * v) - standardize_values(spec, v)
                    assert np.max(np.abs(delta)) <= 1e-10, spec

    def test_scale_proportionality_of_center(self):
        # F(p x) = p F(x) for p > 0 when F only subtracts a center
        rng = np.random.default_rng(38)
        for _ in range(100):
            v = random_values(rng, int(rng.integers(5, 40)))
            for p in (1e-3, 0.5, 2.0, 1e3):
                for spec in _SPECS:
                    if spec.scale_invariant:
                        continue
                    delta = standardize_values(spec, p * v) - p * standardize_values(spec, v)
                    assert np.max(np.abs(delta)) <= 1e-10, spec

    def test_oddness_of_flagged_specs(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            v = random_values(rng, int(rng.integers(5, 40)))
            for spec in _SPECS:
                if not spec.odd:
                    continue
                delta = standardize_values(spec, -v) + standardize_values(spec, v)
                assert np.max(np.abs(delta)) <= 1e-12, spec

    def test_r_normality(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            v = random_values(rng, int(rng.integers(5, 40)))
            for spec in _SPECS:
                r = spec.normality_order
                if r is None:
                    continue
                out = standardize_values(spec, v)
                assert abs(np.sum(np.abs(out) ** r) - 1.0) <= 1e-10, spec

    def test_non_degeneracy(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            v = random_values(rng, 11)
            for spec in _SPECS:
                assert not is_constant(ts(standardize_values(spec, v)))


class TestErrors:
    def test_center_scale_rejects_constant(self):
        for spec in (preset("unit-mean"), CenterScale(Midrange(), Range())):
            with pytest.raises(ConstantSeriesError):
                standardize(spec, constant_series(3.0, 6))

    def test_near_constant_is_allowed(self):
        out = standardize(preset("unit-mean"), ts([1.0, 1.0 + 1e-12, 1.0]))
        assert np.isfinite(out.values).all()


class TestCenterEvaluations:
    @pytest.mark.parametrize(
        "spec, calls",
        [
            (preset("unit-mean"), 1),
            (CenterScale(Median(), MinkowskiDeviation(1.0, Median())), 1),
            (CenterScale(ArithmeticMean(), MinkowskiDeviation(2.0, Median())), 2),
        ],
    )
    def test_a_normal_spread_reuses_the_center(self, spec, calls, monkeypatch):
        v = np.array([1.0, 4.0, 2.0, 8.0, -3.5])
        expected = (v - central_values(spec.center, v)) / scale_values(spec.spread, v)
        counted = []
        for cls in (ArithmeticMean, Median):
            evaluate = cls.evaluate
            monkeypatch.setattr(cls, "evaluate", lambda self, v, f=evaluate: counted.append(1) or f(self, v))
        out = standardize_values(spec, v)
        assert len(counted) == calls
        assert np.array_equal(out, expected)
