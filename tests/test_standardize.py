import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestPresetParameters:
    @pytest.mark.parametrize(
        "name, kwargs, message",
        [
            ("center-mean", {"r": 3.0}, "preset 'center-mean' does not use r, got r=3.0"),
            ("center-mean", {"k": 5}, "preset 'center-mean' does not use k, got k=5"),
            ("center-min", {"m": 3}, "preset 'center-min' does not use m, got m=3"),
            ("unit-mean", {"k": 7, "m": 9}, "preset 'unit-mean' does not use k, got k=7"),
            ("unit-mean", {"m": 9}, "preset 'unit-mean' does not use m, got m=9"),
        ],
    )
    def test_a_parameter_the_preset_does_not_use_is_refused(self, name, kwargs, message):
        with pytest.raises(SpecError) as exc:
            preset(name, **kwargs)
        assert str(exc.value) == message

    def test_a_typoed_parameter_in_a_preset_dict_is_refused(self):
        with pytest.raises(SpecError) as exc:
            from_dict({"kind": "preset", "name": "center-mean", "r": 3}, Standardization)
        assert str(exc.value) == "preset 'center-mean' does not use r, got r=3.0"

    def test_an_unread_parameter_at_its_default_is_accepted(self):
        assert preset("center-min", r=2.0, k=0, m=2) == Center(Min())
        am = ArithmeticMean()
        assert preset("unit-mean", r=3, k=0, m=2) == CenterScale(am, MinkowskiDeviation(3, am))


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


_WEIGHTS = st.lists(st.integers(1, 8), min_size=2, max_size=6).map(lambda w: tuple(np.array(w) / sum(w)))
# a strategy for each catalog center
_CENTERS = {
    Min: st.just(Min()),
    Max: st.just(Max()),
    Midrange: st.just(Midrange()),
    Median: st.just(Median()),
    ArithmeticMean: st.just(ArithmeticMean()),
    Projection: st.builds(Projection, st.integers(1, 6)),
    OrderStatistic: st.builds(OrderStatistic, st.integers(1, 6)),
    TruncatedMean: st.builds(TruncatedMean, st.integers(0, 3)),
    GeneralizedMidrange: st.integers(0, 2).flatmap(
        lambda k: st.builds(GeneralizedMidrange, st.just(k), st.integers(k + 1, 3))
    ),
    WeightedMean: st.builds(WeightedMean, _WEIGHTS),
    OrderedWeightedMean: st.builds(OrderedWeightedMean, _WEIGHTS),
}


@st.composite
def _drawn(draw):
    """A catalog center as Center, range-scaled or scaled by its own order-r
    deviation, and a uniform series of a length the standardization allows."""
    center = draw(st.one_of(*_CENTERS.values()))
    spread = draw(st.sampled_from([None, Range(), *(MinkowskiDeviation(r, center) for r in (1, 1.5, 2, 3))]))
    spec = Center(center) if spread is None else CenterScale(center, spread)
    lo, exact = spec.bounds
    n = exact or draw(st.integers(lo, lo + 20))
    v = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, n)
    return spec, v


def _ulps(spec, v, other) -> float:
    """|other - F(v)|, the most over the samples, in ulps of max |F(v)|."""
    f = standardize_values(spec, v)
    return float(np.max(np.abs(other - f)) / np.spacing(np.max(np.abs(f))))


# Bounds in ulps of max |F(v)|, and the norm's in ulps of 1, its value: a sum of n
# terms rounds on the scale of the sum, not of its largest term. Oddness and the norm
# are off only by rounding in a sort order or a sum; a power-of-two scaling is exact
# but for |x|**r at a fractional r. Over 3,000 draws the most was 3, 1.5 and 9 ulps.
_ODD_ULPS, _NORM_ULPS, _SCALE_ULPS = 8.0, 4.0, 16.0
_DRAWS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestTraitsOnDrawnStandardizations:
    """Each trait a standardization claims holds on drawn series, within a stated bound."""

    def test_every_catalog_center_is_drawn(self):
        assert set(_CENTERS) == set(CentralEstimate.__subclasses__())

    @_DRAWS
    @given(_drawn())
    def test_an_odd_one_is_odd(self, drawn):
        spec, v = drawn
        if spec.odd:
            assert _ulps(spec, v, -standardize_values(spec, -v)) <= _ODD_ULPS

    @_DRAWS
    @given(_drawn())
    def test_a_normal_one_has_unit_norm(self, drawn):
        spec, v = drawn
        r = spec.normality_order
        if r is not None:
            f = standardize_values(spec, v)
            norm = np.sum(np.abs(f) ** r) ** (1.0 / r)
            assert abs(norm - 1.0) / np.spacing(1.0) <= _NORM_ULPS

    @_DRAWS
    @given(_drawn())
    def test_a_scale_invariant_one_ignores_a_power_of_two(self, drawn):
        spec, v = drawn
        if spec.scale_invariant:
            for j in range(-20, 21):
                assert _ulps(spec, v, standardize_values(spec, np.ldexp(v, j))) <= _SCALE_ULPS, j


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
