"""Lossless dict <-> spec conversion, and the package's one JSON writer.

`to_dict` writes a spec, report or merge step as `{"kind": <its tag>}`, when
it has a tag, then its dataclass fields under their own names, each through
`plain`: an Enum becomes its value, a non-finite float "inf", "-inf" or
"nan", a tuple a list, and an object with its own `to_dict` that method's
dict. `to_json` is that form with sorted keys and a 2-space indent.
`from_dict(d, family)` reverses it for specs: the "kind" picks the class
among a family base's subclasses (a spec class decodes as itself, and the
kind is then optional), and a key may be omitted exactly when its field has
a default. Each value is read by `_from_json`, then checked by
`estimates._checked`, the rule every spec constructor applies, so `"r":
true`, `"path": 5`, `"r": "nan"` or `"weights": "1"` is an error naming the
kind and the key. `_from_json` reads only what JSON spells its own way: a
string spelling a number for an int or float field, a list for a tuple
field, element by element, and an object or a name for a spec. Unknown keys
are rejected rather than ignored so a typoed parameter cannot silently fall
back to a default. A string names a standardization preset or a measure
shorthand; an unknown name fails listing the known ones.
Two kinds only decode: "preset" calls `preset`, and "gmidrange-correlation"
(keys "k", "m") calls `GeneralizedMidrangeCorrelation`, whose cosine measure
writes kind "cosine". These dict forms are what the CLI reads from JSON files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import inspect
import json
import math
import types
import typing

from .errors import SpecError
from .estimates import _checked, _unwritable
from .measures import CosineStandardized, GeneralizedMidrangeCorrelation, MeasureSpec, Pearson
from .standardize import Standardization, preset

MEASURE_SHORTHANDS = {
    "pearson": lambda: Pearson(),
    "cosine": lambda: CosineStandardized(preset("unit-mean")),
    "gmidrange-correlation": lambda: GeneralizedMidrangeCorrelation(0, 2),
}


def to_dict(spec) -> dict:
    """JSON-ready form of a dataclass: its tag as "kind", then its fields."""
    out = {"kind": spec.tag} if hasattr(spec, "tag") else {}
    for f in dataclasses.fields(spec):
        out[f.name] = plain(getattr(spec, f.name))
    return out


def plain(value):
    """`value` as JSON data, by the rules of the module docstring."""
    if isinstance(value, str):  # first: a tree's ids are most of what is written
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(float(value))
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, enum.Enum):
        return value.value
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if dataclasses.is_dataclass(value):
        return to_dict(value)
    return value


def to_json(obj) -> str:
    return json.dumps(plain(obj), indent=2, sort_keys=True)


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
            raise SpecError(
                f"unknown measure shorthand {d!r}; expected one of {tuple(MEASURE_SHORTHANDS)}"
            )
        return MEASURE_SHORTHANDS[d]()
    if not isinstance(d, dict):
        raise SpecError(f"{family.__name__} must be an object, got {_unwritable(d) or repr(d)}")
    d = dict(d)
    if dataclasses.is_dataclass(family):  # one spec class, not a family base
        tag = getattr(family, "tag", None)
        kinds = {tag: family}
        d.setdefault("kind", tag)
    else:
        kinds = {cls.tag: cls for cls in family.__subclasses__()}
    if family is Standardization:
        kinds["preset"] = preset  # {"kind": "preset", "name": ..., "r": ...}
    if family is MeasureSpec:
        kinds["gmidrange-correlation"] = GeneralizedMidrangeCorrelation
    if "kind" not in d:
        raise SpecError(f"missing required key 'kind' for {family.__name__}")
    kind = d.pop("kind")
    try:
        ctor = kinds[kind]
    except (KeyError, TypeError):
        raise SpecError(f"unknown {family.__name__} kind {_unwritable(kind) or repr(kind)}") from None
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
            kwargs[name] = _checked(f"{what}: key {name!r}", hint, _from_json(d.pop(name), hint))
        elif required:
            raise SpecError(f"missing required key {name!r} for {what}")
    if d:
        raise SpecError(f"unknown keys for {what}: {sorted(d)}")
    return ctor(**kwargs)


def _from_json(value, hint):
    """`value` as a field of type `hint` takes it, where JSON spells it its own way."""
    if (hint is int or hint is float) and isinstance(value, str):  # "2" or "2.5"
        with contextlib.suppress(ValueError):  # else `_checked` refuses it as it is
            return hint(value)
    if hint in (int, float, bool, str):
        return value
    if isinstance(hint, types.UnionType):  # X | None
        return None if value is None else _from_json(value, hint.__args__[0])
    if isinstance(hint, types.GenericAlias):  # tuple[X, ...]
        return [_from_json(v, hint.__args__[0]) for v in value] if isinstance(value, (list, tuple)) else value
    return from_dict(value, hint)
