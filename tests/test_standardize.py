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
    central,
    constant_series,
    flags,
    is_constant,
    preset,
    standardize,
)
from shapeassoc.standardize import standardize_values

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
        f = flags(preset("unit-mean"))
        assert f.translation_invariant
        assert f.scale_invariant
        assert f.odd
        assert f.normality_order == 2.0
        assert not f.scale_proportional

    def test_center_mean_flags(self):
        f = flags(preset("center-mean"))
        assert f.translation_invariant
        assert f.scale_proportional
        assert f.odd
        assert not f.scale_invariant
        assert f.normality_order is None

    def test_center_min_not_odd(self):
        assert not flags(preset("center-min")).odd

    def test_mismatched_deviation_center_loses_normality(self):
        spec = CenterScale(Median(), MinkowskiDeviation(2.0, ArithmeticMean()))
        f = flags(spec)
        assert f.normality_order is None
        assert f.scale_invariant

    def test_range_scaled_has_no_normality(self):
        f = flags(CenterScale(Midrange(), Range()))
        assert f.normality_order is None
        assert f.scale_invariant
        assert f.odd

    def test_even_spread_with_non_odd_center(self):
        f = flags(CenterScale(Min(), Range()))
        assert not f.odd


class TestLengthBounds:
    def test_bounds(self):
        assert preset("unit-mean").bounds == (2, None)
        assert preset("unit-gmidrange").bounds == (5, None)
        assert preset("unit-gmidrange", m=3).bounds == (7, None)
        assert Center(Min()).bounds == (2, None)


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
                assert abs(central(spec.center, ts(out))) <= 1e-10

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
                    if not flags(spec).scale_invariant:
                        continue
                    delta = standardize_values(spec, p * v) - standardize_values(spec, v)
                    assert np.max(np.abs(delta)) <= 1e-10, spec

    def test_oddness_of_flagged_specs(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            v = random_values(rng, int(rng.integers(5, 40)))
            for spec in _SPECS:
                if not flags(spec).odd:
                    continue
                delta = standardize_values(spec, -v) + standardize_values(spec, v)
                assert np.max(np.abs(delta)) <= 1e-12, spec

    def test_r_normality(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            v = random_values(rng, int(rng.integers(5, 40)))
            for spec in _SPECS:
                r = flags(spec).normality_order
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
