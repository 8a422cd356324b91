"""One JSON codec for the data model's records.

A record is a dataclass that inherits :class:`Record` (or, to be written but
never read back, :class:`RecordWriter`): its JSON form is read off its
``fields()`` and resolved annotations instead of being written out by hand,
field by field, in a ``to_dict``/``from_dict`` pair.  Per annotation:

* ``int`` and ``float`` values are cast, so numpy scalars become native
  numbers (``float()`` is exact on ``np.float64``, and JSON's float repr is
  exact, so a round trip is bit for bit); an ``int`` reader refuses a value
  the cast would change, such as ``2.5``;
* ``X | None`` keeps ``None`` and converts anything else as ``X``;
* ``tuple[X, ...]``, fixed tuples and ``list[X]`` are JSON lists, read back
  as the annotated container;
* a nested dataclass goes through its own ``to_dict``/``from_dict``;
* ``dict`` values are copied, ``str``, ``bool`` and ``Any`` pass unchanged.

Reading refuses an unknown key and a missing key without a default, naming
it, with :class:`~repro.exceptions.ConfigurationError`.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from functools import cache
from typing import Any, Callable, Mapping, TypeVar

from repro.exceptions import ConfigurationError

__all__ = ["Record", "RecordWriter", "read_fields"]

_Convert = Callable[[Any], Any]
_R = TypeVar("_R", bound="Record")


def _as_is(value: Any) -> Any:
    return value


def _read_int(value: Any) -> int:
    """``int(value)``, refusing a value the cast would change (``2.5``, ``"3"``)."""

    number = int(value)
    if number != value:
        raise ConfigurationError(f"{value!r} is not an integer")
    return number


def _converters(annotation: Any) -> tuple[_Convert, _Convert]:
    """``(write, read)`` for values of one resolved annotation."""

    if annotation is int:
        return int, _read_int
    if annotation is float:
        return float, float
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin in (typing.Union, types.UnionType):
        [inner] = [arg for arg in args if arg is not type(None)]
        write, read = _converters(inner)
        return (
            lambda value: None if value is None else write(value),
            lambda value: None if value is None else read(value),
        )
    if origin is tuple and args[-1] is not Ellipsis:
        pairs = [_converters(arg) for arg in args]
        return (
            lambda value: [write(item) for (write, _), item in zip(pairs, value)],
            lambda value: tuple(read(item) for (_, read), item in zip(pairs, value)),
        )
    if origin in (tuple, list):
        write, read = _converters(args[0])
        return (
            lambda value: [write(item) for item in value],
            lambda value: origin(read(item) for item in value),
        )
    if dict in (origin, annotation):
        return dict, dict
    if dataclasses.is_dataclass(annotation):
        return (lambda value: value.to_dict()), annotation.from_dict
    return _as_is, _as_is


@cache
def _plan(cls: type) -> dict[str, tuple[_Convert, _Convert, bool]]:
    """Field name -> ``(write, read, required)``, in declaration order."""

    hints = typing.get_type_hints(cls)
    return {
        field.name: (
            *_converters(hints[field.name]),
            field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING,
        )
        for field in dataclasses.fields(cls)
    }


class RecordWriter:
    """Base of the dataclasses whose JSON form derives from their fields."""

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation; exact inverse of :meth:`Record.from_dict`."""

        return {
            name: write(getattr(self, name))
            for name, (write, _, _) in _plan(type(self)).items()
        }


def read_fields(cls: type, data: Mapping[str, Any]) -> dict[str, Any]:
    """The values of the ``cls`` fields that ``data`` holds, read per annotation.

    ``data`` may be partial: absent fields are left out.  An unknown key is
    refused by name.
    """

    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"a {cls.__name__} record must be a mapping, got {type(data).__name__}"
        )
    plan = _plan(cls)
    unknown = sorted(str(key) for key in data if key not in plan)
    if unknown:
        raise ConfigurationError(f"unknown {cls.__name__} field(s): {', '.join(unknown)}")
    return {name: read(data[name]) for name, (_, read, _) in plan.items() if name in data}


class Record(RecordWriter):
    """A :class:`RecordWriter` that also reads its JSON form back."""

    @classmethod
    def from_dict(cls: type[_R], data: Mapping[str, Any]) -> _R:
        """Rebuild a record from :meth:`to_dict` output."""

        values = read_fields(cls, data)
        for name, (_, _, required) in _plan(cls).items():
            if required and name not in values:
                raise ConfigurationError(f"{cls.__name__} record is missing field {name!r}")
        return cls(**values)
