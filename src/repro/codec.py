"""One dataclass codec for every config, stats and report round-trip.

:func:`to_dict` is :func:`dataclasses.asdict`. :func:`from_dict` inverts
it from the field annotations: it rebuilds nested dataclasses,
``Tuple[X, ...]``, ``Optional[X]``, lists and dicts (a JSON round trip
turns tuples into lists; this turns them back), fills absent keys from
the field defaults, leaves values that already are instances as they
are, and raises :class:`ConfigError` naming the class and each unknown
key — a typo in a faults file fails loudly instead of configuring
nothing.

:func:`merge` folds several instances of one stats dataclass into one,
field by field, by the rule each field's metadata names.

The three ``Streaming*`` metric classes are not dataclasses: each carries
a private seeded RNG that must never be serialised, so they keep their
own ``to_dict``/``from_dict``, and both functions here defer to them.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
import typing
from typing import Dict, Iterable, Optional, Type, TypeVar

from repro.errors import ConfigError

T = TypeVar("T")

#: How :func:`merge` folds one field's values, by ``metadata["merge"]``.
_MERGE_RULES = {
    # Added in item order, so float totals are reproducible to the bit.
    "sum": lambda values: functools.reduce(operator.add, values),
    "max": max,
    "first": operator.itemgetter(0),
    "extend": lambda values: list(itertools.chain.from_iterable(values)),
}


def to_dict(obj) -> Dict[str, object]:
    """Plain-dict form of ``obj``, nested dataclasses included."""
    return dataclasses.asdict(obj) if dataclasses.is_dataclass(obj) else obj.to_dict()


def from_dict(cls: Type[T], data) -> T:
    """Rebuild a ``cls`` instance from :func:`to_dict` (or JSON) output."""
    if isinstance(data, cls):
        return data
    if not dataclasses.is_dataclass(cls):
        return cls.from_dict(data)
    if not isinstance(data, dict):
        raise ConfigError(f"{cls.__name__} expects a mapping, got {data!r}")
    names = {field.name for field in dataclasses.fields(cls) if field.init}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigError(
            f"unknown {cls.__name__} key(s) {', '.join(map(repr, unknown))}; "
            f"expected a subset of: {', '.join(sorted(names))}"
        )
    hints = field_types(cls)
    try:
        return cls(**{name: _decode(hints[name], data[name]) for name in data})
    except TypeError as error:  # a required key is missing
        raise ConfigError(f"{cls.__name__}: {error}") from error


def merge(cls: Type[T], items: Iterable[Optional[T]]) -> Optional[T]:
    """One ``cls`` folded from ``items`` (None entries skipped), or None.

    Each field's ``metadata["merge"]`` names its rule: ``"sum"`` (the
    default), ``"max"``, ``"first"`` or ``"extend"`` (lists concatenated).
    """
    present = [item for item in items if item is not None]
    if not present:
        return None
    return cls(
        **{
            field.name: _MERGE_RULES[field.metadata.get("merge", "sum")](
                [getattr(item, field.name) for item in present]
            )
            for field in dataclasses.fields(cls)
        }
    )


@functools.lru_cache(maxsize=None)
def field_types(cls: type) -> Dict[str, object]:
    """The resolved annotation of each of ``cls``'s fields (cached)."""
    return typing.get_type_hints(cls)


def _decode(hint, value):
    """``value`` rebuilt as the annotation ``hint`` describes."""
    if isinstance(hint, type) and (
        dataclasses.is_dataclass(hint) or hasattr(hint, "from_dict")
    ):
        return from_dict(hint, value)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[X]
        inner = [arg for arg in args if arg is not type(None)]
        return value if value is None or len(inner) != 1 else _decode(inner[0], value)
    if origin in (tuple, list):
        item = args[0] if args else None
        return origin(_decode(item, entry) for entry in value)
    if origin is dict and args:
        return {key: _decode(args[1], entry) for key, entry in value.items()}
    return value
