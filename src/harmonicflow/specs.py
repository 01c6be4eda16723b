"""Key tables: the keys a config section or spec dict takes, and no others.

A table maps each key to ``(parser, default)``, REQUIRED for none; a parser takes
a config string or a spec's JSON value.  Each mesh, target and initial-map kind
names its keys once, in its row of a kind table (a ``Kind``, or a ``MeshKind``
that adds the dimension), and ``take_kind`` holds config sections, builder specs
and checkpoint specs to that row alike."""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple

from .errors import InvalidSpec

REQUIRED = object()


class Kind(NamedTuple):
    build: Callable  # called with any context, then the values of ``keys`` in order
    keys: dict[str, tuple]  # key -> (parser, default): the table ``take`` holds a spec to


def number(typ, ok, what: str):
    """Parser for ``v = typ(s)`` with ``ok(v)`` true; NaN fails every ``ok``."""
    def parse(s):
        v = typ(s)
        if not ok(v):
            raise ValueError(f"must be {what}")
        return v
    return parse


def integer(v) -> int:
    """Parser for an int key: a config string's int or a spec's integral number (not 2.7, True)."""
    if isinstance(v, bool) or isinstance(v, float) and not v.is_integer():
        raise ValueError("must be an integer")
    return int(v)


def one_of(choices, fold=str):
    """Parser for an enumerated key: ``fold(value)`` must be one of ``choices``."""
    def parse(s):
        v = fold(s)
        if v not in choices:
            raise ValueError(f"not one of {tuple(choices)}")
        return v
    return parse


def listed(parse):
    """Parser for a comma list of ``parse``'s values; empty items are skipped."""
    return lambda s: [parse(x.strip()) for x in s.split(",") if x.strip()]


def optional(parse, *words):
    """Parser for ``parse``'s values, or None for any of ``words`` in any case."""
    return lambda s: None if s.lower() in words else parse(s)


def positive(typ):
    """Parser for a number of type ``typ`` that must be finite and > 0."""
    return number(typ, lambda v: 0 < v < math.inf, "finite and > 0")


def take(keys: dict, given: Mapping, where: str, owner: str = "the section") -> dict:
    """``given``'s values parsed, and defaults filled in, in ``keys``' order.  A key
    not in ``keys``, a missing REQUIRED key or a rejected value raises InvalidSpec."""
    for key in given:
        if key not in keys:
            takes = f"only {', '.join(keys)}" if keys else "no keys"
            raise InvalidSpec(f"{where} {key}: {owner} takes {takes}")
    out = {}
    for key, (parse, default) in keys.items():
        if key in given:
            try:
                out[key] = parse(given[key])
            except (TypeError, ValueError) as exc:
                raise InvalidSpec(f"{where} {key} = {given[key]!r}: {exc}") from exc
        elif default is REQUIRED:
            raise InvalidSpec(f"{where} {key}: {owner} requires it")
        else:
            out[key] = default
    return out


def take_kind(kinds: dict, given: Mapping, where: str) -> dict:
    """``given``'s kind, one of ``kinds``, and then only the keys of its row."""
    kind = given.get("kind")
    if kind not in kinds:
        raise InvalidSpec(f"{where} kind = {kind!r}: not one of {tuple(kinds)}")
    rest = {key: value for key, value in given.items() if key != "kind"}
    return {"kind": kind, **take(kinds[kind].keys, rest, where, f"kind {kind}")}
