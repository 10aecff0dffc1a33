"""The JSON codec of the records beside LIMG datasets and inside LMDL checkpoints.

``encode`` writes a dataclass as the dict of its fields, an enum as its value
and a dict's keys as strings.  ``parse`` reads the JSON object of a file, and
``decode`` rebuilds a dataclass from its type hints.  Both raise the caller's
error class, naming the file and the field.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import typing

# The JSON value types that each scalar field type accepts.
_SCALARS = {int: {int}, float: {int, float}, str: {str}}


def encode(value):
    """``value`` as JSON data; a list is taken to hold JSON scalars."""
    if dataclasses.is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    return value


def parse(text: bytes, error: type[Exception], path, noun: str) -> dict:
    """The JSON object in ``text``, the ``noun`` of the file at ``path``."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise error(f"{path}: unreadable {noun}: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{path}: {noun} is not a JSON object")
    return data


# Type hints are looked up once per class and taken apart once per hint.
_hints = functools.cache(typing.get_type_hints)
_parts = functools.cache(lambda hint: (typing.get_origin(hint), typing.get_args(hint)))


def decode(cls: type, data: dict, error: type[Exception], path, noun: str):
    """The dataclass ``cls`` rebuilt from ``data``, the ``noun`` of the file at
    ``path``.  Every field must be present, also one with a default; keys beyond
    the fields are ignored.  A ``bool`` is not an ``int``, an ``int`` passes for
    a ``float``, and a ``ValueError`` of the field's own type becomes ``error``."""

    def fail(message: str) -> typing.NoReturn:
        raise error(f"{path}: {noun}{message}")

    def check(ok: bool, hint, value, field: str) -> None:
        if not ok:
            name = str(hint) if typing.get_origin(hint) else hint.__name__
            fail(f" {field} must be {name}, got {value!r}")

    def build(hint, value, field: str):
        if hint in _SCALARS:
            check(type(value) in _SCALARS[hint], hint, value, field)
            return value
        origin, args = _parts(hint)
        if origin is list:  # of scalars, checked in one pass
            check(type(value) is list, hint, value, field)
            ok = _SCALARS[args[0]]
            if not set(map(type, value)) <= ok:
                i = next(i for i, v in enumerate(value) if type(v) not in ok)
                check(False, args[0], value[i], f"{field}[{i}]")
            return list(value)
        if origin is dict:  # with int or str keys
            check(type(value) is dict, hint, value, field)
            for k in value:
                ok = args[0] is str or k.removeprefix("-").isdecimal()
                check(ok, args[0], k, f"{field} key")
            return {args[0](k): build(args[1], v, f"{field}[{k}]") for k, v in value.items()}
        if issubclass(hint, enum.Enum):
            check(type(value) is type(next(iter(hint)).value), hint, value, field)
            try:
                return hint(value)
            except ValueError as exc:
                fail(f" {field}: {exc}")
        check(type(value) is dict, hint, value, field)  # a dataclass
        prefix = f"{field}." if field else ""
        fields = _hints(hint)
        missing = [prefix + name for name in fields if name not in value]
        if missing:
            fail(f" lacks {', '.join(missing)}")
        kwargs = {name: build(h, value[name], prefix + name) for name, h in fields.items()}
        try:
            return hint(**kwargs)
        except ValueError as exc:
            fail(f"{' ' if field else ''}{field}: {exc}")

    return build(cls, data, "")
