import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shapeassoc import (
    DomainError,
    LengthError,
    SeriesSet,
    ShapeError,
    SpecError,
    TimeSeries,
    constant_series,
    is_constant,
    load_set,
)
from shapeassoc.errors import ShapeAssocError
from shapeassoc.series import is_constant_values

from helpers import random_series, ts


class TestTimeSeries:
    def test_values_are_copied_and_frozen(self):
        raw = np.array([1.0, 2.0, 3.0])
        x = TimeSeries("a", raw)
        raw[0] = 99.0
        assert x.values[0] == 1.0
        with pytest.raises(ValueError):
            x.values[0] = 5.0

    def test_length_and_n(self):
        x = ts([1, 2, 3])
        assert len(x) == 3
        assert x.n == 3

    def test_repr_shows_id_and_length(self):
        assert repr(ts([1, 2, 3], "a")) == "TimeSeries(id='a', n=3)"

    def test_rejects_short_series(self):
        with pytest.raises(LengthError):
            ts([1.0])

    def test_rejects_non_1d(self):
        with pytest.raises(ShapeError):
            TimeSeries("a", np.zeros((2, 2)))

    def test_rejects_non_finite_with_position(self):
        with pytest.raises(ValueError, match="position 1"):
            ts([1.0, float("nan"), 3.0])
        with pytest.raises(ValueError):
            ts([1.0, float("inf")])


class TestAffine:
    def test_reflection(self):
        x = ts([1, 2, 3])
        assert np.array_equal(TimeSeries(x.id, -x.values).values, [-1, -2, -3])

    def test_reflection_involution_exact(self):
        rng = np.random.default_rng(12)
        x = random_series(rng, 17)
        reflected = TimeSeries(x.id, -x.values)
        assert np.array_equal(TimeSeries(x.id, -reflected.values).values, x.values)


class TestConstant:
    def test_constant_series(self):
        assert np.array_equal(constant_series(0.0, 3).values, [0, 0, 0])
        assert np.array_equal(constant_series(2.5, 2).values, [2.5, 2.5])
        assert is_constant(constant_series(7.0, 4))

    def test_constant_series_too_short(self):
        with pytest.raises(LengthError):
            constant_series(1.0, 1)

    def test_is_constant(self):
        assert is_constant(ts([3, 3, 3]))
        assert not is_constant(ts([1, 2, 3]))

    def test_constancy_is_exact(self):
        # near-constant is not constant
        assert not is_constant(ts([1.0, 1.0 + 1e-15, 1.0]))

    def test_translated_constant_stays_constant(self):
        q = constant_series(4.0, 5)
        assert is_constant(TimeSeries(q.id, q.values + 3.7))


class TestSeriesSet:
    def test_load_set_basic(self):
        s = load_set([(1, 2), (3, 4)])
        assert s.n == 2
        assert len(s) == 2
        assert s.ids == ("s1", "s2")

    def test_load_set_explicit_ids(self):
        s = load_set([(1, 2), (3, 4)], ids=["a", "b"])
        assert s.ids == ("a", "b")
        assert np.array_equal(s["b"].values, [3, 4])

    def test_mismatched_lengths(self):
        with pytest.raises(ShapeError):
            load_set([(1, 2), (3, 4, 5)])

    def test_non_finite_value(self):
        with pytest.raises(ValueError):
            load_set([(1.0, float("nan"))])

    def test_too_short(self):
        with pytest.raises(LengthError):
            load_set([(1.0,)])

    def test_empty_set_rejected(self):
        with pytest.raises(SpecError):
            SeriesSet(())

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SpecError):
            SeriesSet((ts([1, 2], "a"), ts([3, 4], "a")))

    @pytest.mark.parametrize(
        "members, error, message",
        [
            ((([1, 2], "a"), ([3, 4], "a"), ([5, 6, 7], "b")), SpecError, "duplicate series id 'a'"),
            (
                (([1, 2], "a"), ([3, 4, 5], "b"), ([6, 7], "a")),
                ShapeError,
                "series 'b' has length 3, expected 2 like 'a'",
            ),
        ],
        ids=["duplicate-first", "length-first"],
    )
    def test_the_first_member_at_fault_is_named(self, members, error, message):
        with pytest.raises(error) as exc:
            SeriesSet(tuple(ts(values, id) for values, id in members))
        assert str(exc.value) == message

    def test_lookup_by_index_and_id(self):
        s = load_set([(1, 2), (3, 4)])
        assert s[0] is s["s1"]
        assert "s2" in s
        assert "s9" not in s
        assert [x.id for x in s] == ["s1", "s2"]
        with pytest.raises(KeyError):
            s["missing"]


# few distinct values, so draws are often constant or equal at both ends
_few_floats = st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.5])
_float_lists = st.one_of(
    st.lists(st.floats(), min_size=1, max_size=50),
    st.lists(_few_floats, min_size=1, max_size=50),
    st.lists(_few_floats, min_size=1, max_size=49).map(lambda v: v + [v[0]]),
)


@given(_float_lists)
@example([1.0, 2.0, 1.0])
@example([0.0, -0.0, 0.0])
@example([-0.0, 0.0])
@example([3.0, 3.0, 3.0])
@example([float("nan"), 1.0, float("nan")])
@example([7.0])
@settings(max_examples=300, deadline=None)
def test_is_constant_values_matches_the_full_comparison(values):
    v = np.asarray(values, dtype=np.float64)
    got = is_constant_values(v)
    assert type(got) is bool
    assert got == bool(np.all(v == v[0]))


@pytest.mark.parametrize(
    "act, error, message",
    [
        (lambda: TimeSeries("", [1.0, 2.0]), SpecError, "series id must be a non-empty string"),
        (lambda: TimeSeries(5, [1.0, 2.0]), SpecError, "series id must be a non-empty string"),
        (lambda: SeriesSet(s for s in ()), SpecError, "series set must not be empty"),
        (lambda: load_set([(1, 2), (3, 4)], ids=["a"]), ShapeError, "got 1 ids for 2 rows"),
        (lambda: load_set([(1, 2)], ids=["a", "b"]), ShapeError, "got 2 ids for 1 rows"),
    ],
)
def test_refusals(act, error, message):
    with pytest.raises(error) as exc:
        act()
    assert str(exc.value) == message


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_value_is_a_domain_error(value):
    with pytest.raises(DomainError) as exc:
        TimeSeries("a", [1.0, value])
    assert str(exc.value) == "series contains a non-finite value at position 1"
    assert isinstance(exc.value, ValueError) and isinstance(exc.value, ShapeAssocError)
    with pytest.raises(DomainError):
        load_set([(2.0, 3.0), (value, 1.0)])
