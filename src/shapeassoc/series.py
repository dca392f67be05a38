"""Time series containers.

A series is an ordered vector of float64 samples with a string id. Values are
validated once at construction (finite, length >= 2) and frozen, so every
downstream computation can assume clean input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, LengthError, ShapeError, SpecError
from .estimates import _checked


def _as_values(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"series values must be one-dimensional, got shape {arr.shape}")
    if arr.size < 2:
        raise LengthError(f"series needs at least 2 samples, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise DomainError(f"series contains a non-finite value at position {bad}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Immutable, finite, float64 series of length >= 2."""

    id: str
    values: np.ndarray

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise SpecError("series id must be a non-empty string")
        object.__setattr__(self, "values", _as_values(self.values))

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"TimeSeries(id={self.id!r}, n={self.n})"


def constant_series(value: float, n: int, id: str = "const") -> TimeSeries:
    """Series of n copies of value."""
    if (n := _checked("n", int, n)) < 2:
        raise LengthError(f"series needs at least 2 samples, got {n}")
    return TimeSeries(id, np.full(n, float(value)))


def is_constant_values(v: np.ndarray) -> bool:
    """True when every value equals the first, by exact comparison."""
    return bool(v[0] == v[-1] and (v == v[0]).all())


def is_constant(x: TimeSeries) -> bool:
    """True when every sample equals the first, by exact comparison.

    Near-constant series are deliberately not constant: any spread, however
    small, carries shape information.
    """
    return is_constant_values(x.values)


@dataclass(frozen=True, eq=False)
class SeriesSet:
    """Ordered collection of series with unique ids and a common length."""

    series: tuple[TimeSeries, ...]
    _index: dict = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "series", tuple(self.series))
        if not self.series:
            raise SpecError("series set must not be empty")
        first = self.series[0]
        index: dict[str, int] = {}
        for i, s in enumerate(self.series):  # the first member at fault is named
            if s.n != first.n:
                raise ShapeError(f"series {s.id!r} has length {s.n}, expected {first.n} like {first.id!r}")
            if s.id in index:
                raise SpecError(f"duplicate series id {s.id!r}")
            index[s.id] = i
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return self.series[0].n

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.series)

    def __len__(self) -> int:
        return len(self.series)

    def __iter__(self) -> Iterator[TimeSeries]:
        return iter(self.series)

    def __getitem__(self, key) -> TimeSeries:
        if isinstance(key, str):
            try:
                return self.series[self._index[key]]
            except KeyError:
                raise KeyError(f"no series with id {key!r}") from None
        return self.series[key]

    def __contains__(self, id: str) -> bool:
        return id in self._index


def load_set(rows: Iterable[Sequence[float]], ids: Sequence[str] | None = None) -> SeriesSet:
    """Build a SeriesSet from row vectors.

    Ids default to "s1", "s2", ... in input order.
    """
    rows = list(rows)
    ids = [f"s{i + 1}" for i in range(len(rows))] if ids is None else _checked("ids", tuple[str, ...], ids)
    if len(ids) != len(rows):
        raise ShapeError(f"got {len(ids)} ids for {len(rows)} rows")
    return SeriesSet(tuple(TimeSeries(i, r) for i, r in zip(ids, rows)))
