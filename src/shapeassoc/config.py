"""Lossless dict <-> spec conversion for every configurable object.

`to_dict` writes a spec as `{"kind": <its tag>}` followed by its dataclass
fields, under their own names. `from_dict(d, family)` reverses it: the
"kind" picks the class among the family's subclasses (optional when the
family is a single tagged class), each value is coerced to its field's type
hint, and a key may be omitted exactly when its field has a default.
Unknown keys are rejected rather than ignored so a typoed parameter cannot
silently fall back to a default. A string names a standardization preset or
a measure shorthand. These dict forms are what the CLI reads from JSON files.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import types
import typing

from .errors import SpecError
from .measures import CosineStandardized, GeneralizedMidrangeCorrelation, MeasureSpec, Pearson
from .standardize import Standardization, preset

MEASURE_SHORTHANDS = {
    "pearson": lambda: Pearson(),
    "cosine": lambda: CosineStandardized(preset("unit-mean")),
    "gmidrange-correlation": lambda: GeneralizedMidrangeCorrelation(0, 2),
}


def to_dict(spec) -> dict:
    """JSON-ready form of a spec: its tag as "kind", then its fields."""
    out = {"kind": spec.tag} if hasattr(spec, "tag") else {}
    for f in dataclasses.fields(spec):
        out[f.name] = _plain(getattr(spec, f.name))
    return out


def _plain(value):
    if dataclasses.is_dataclass(value):
        return to_dict(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def from_dict(d, family):
    """A spec of `family` (a family base class or one spec class) from its dict form.

    A spec that is already an instance of the family passes through.
    """
    if isinstance(d, family):
        return d
    if isinstance(d, str) and family is Standardization:
        return preset(d)
    if isinstance(d, str) and family is MeasureSpec:
        if d not in MEASURE_SHORTHANDS:
            raise SpecError(f"unknown measure shorthand {d!r}")
        return MEASURE_SHORTHANDS[d]()
    if not isinstance(d, dict):
        raise SpecError(f"{family.__name__} must be an object, got {d!r}")
    d = dict(d)
    kinds = {cls.tag: cls for cls in family.__subclasses__()}
    if family is Standardization:
        kinds["preset"] = preset  # {"kind": "preset", "name": ..., "r": ...}
    if not kinds:
        tag = getattr(family, "tag", None)
        kinds = {tag: family}
        d.setdefault("kind", tag)
    if "kind" not in d:
        raise SpecError(f"missing required key 'kind' for {family.__name__}")
    kind = d.pop("kind")
    try:
        ctor = kinds[kind]
    except (KeyError, TypeError):
        raise SpecError(f"unknown {family.__name__} kind {kind!r}") from None
    return _build(ctor, d, kind or family.__name__)


@functools.cache
def _parameters(ctor) -> tuple[tuple[str, object, bool], ...]:
    """(name, type hint, required) of each constructor argument, resolved on first use."""
    hints = typing.get_type_hints(ctor)
    return tuple(
        (p.name, hints[p.name], p.default is p.empty)
        for p in inspect.signature(ctor).parameters.values()
    )


def _build(ctor, d: dict, what: str):
    kwargs = {}
    for name, hint, required in _parameters(ctor):
        if name in d:
            kwargs[name] = _coerce(d.pop(name), hint, what, name)
        elif required:
            raise SpecError(f"missing required key {name!r} for {what}")
    if d:
        raise SpecError(f"unknown keys for {what}: {sorted(d)}")
    return ctor(**kwargs)


def _coerce(value, hint, what: str, key: str):
    try:
        return _convert(value, hint)
    except SpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{what}: bad value {value!r} for key {key!r}: {exc}") from None


def _convert(value, hint):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:  # tuple[X, ...]
        return tuple(_convert(v, args[0]) for v in value)
    if origin in (typing.Union, types.UnionType):  # X | None
        return None if value is None else _convert(value, args[0])
    if hint in (int, float, str, bool):
        return hint(value)
    return from_dict(value, hint)
