"""One codec between the frozen dataclasses and their JSON data.

Every declarative input of a study — scenario specs, planner configs,
fault and chaos schedules — and every report a study emits — scenario
and plan reports with their blocks — is a frozen dataclass that inherits
:class:`Spec`.  Its keys are its field names:

* :meth:`Spec.to_dict` walks :func:`dataclasses.fields` and encodes each
  value by its annotation (a ``float`` field is written as a float, a
  tuple as a list, a ``Dict[str, X]`` as an object, a nested spec as its
  own ``to_dict``);
* :meth:`Spec.from_dict` coerces each JSON value to its field's type
  hint, leaves every absent field at its dataclass default, and raises
  :class:`SpecError` naming the JSON path of the bad value — a missing
  required key, a value of the wrong type or tuple arity, a NaN or
  infinite number, an unknown key, or a check the dataclass's
  ``__post_init__`` refused;
* :meth:`Spec.to_json` / :meth:`Spec.from_json` are the same data as
  indented, key-sorted text with a trailing newline (the golden-report
  form); :meth:`Spec.canonical_json` is its minified form.

Three emission rules are field metadata, stated once where the field is
declared:

* :func:`when_set` — written only when the value differs from its
  default, so a field added to a spec leaves the canonical JSON (and the
  hash) of every spec that does not use it unchanged;
* :func:`for_kinds` — written only when the owner's ``kind`` is one the
  field applies to (see :func:`applies`);
* :func:`inlined` — a nested spec whose keys are written into its
  owner's object, and read back out of it on decode.

A class may also name ``derived`` properties (a verdict such as ``met``
computed from the fields): they are written after the fields, and on
decode their keys are accepted and ignored, since the fields determine
them.

Type hints and each class's field plan resolve once per class, on first
use.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import typing
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    FrozenSet,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

_WHEN_SET = "codec.when_set"
_KINDS = "codec.kinds"
_INLINED = "codec.inlined"

S = TypeVar("S", bound="Spec")
Encode = Callable[[Any], Any]
Decode = Callable[[Any, str], Any]


class SpecError(ValueError):
    """A spec payload that does not decode.

    ``path`` is the JSON path of the bad value (``mix[2].priority``; the
    empty string for the payload itself) and the message starts with it,
    so catching ``ValueError`` and printing suffices for a CLI.  A check
    a spec's ``__post_init__`` refused is reported at the path of the
    object it checks, followed by the check's own message.
    """

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def when_set(default: Any) -> Any:
    """A dataclass field with ``default``, written only when it differs from it."""
    return dataclasses.field(default=default, metadata={_WHEN_SET: True})


def for_kinds(*kinds: str, default: Any) -> Any:
    """A dataclass field with ``default``, written only for the given ``kinds``.

    The owner's ``kind`` field selects the variant; the field is written
    only when that ``kind`` is one of ``kinds``.
    """
    return dataclasses.field(default=default, metadata={_KINDS: frozenset(kinds)})


def inlined() -> Any:
    """A required nested-spec field whose keys are written into its owner's object.

    The nested spec's keys must not collide with the owner's; on decode
    they are lifted back out of the owner's object into the field.
    """
    return dataclasses.field(metadata={_INLINED: True})


def applies(spec_field: dataclasses.Field, kind: str) -> bool:
    """Whether ``spec_field`` applies to (and is written for) ``kind``."""
    kinds = spec_field.metadata.get(_KINDS)
    return kinds is None or kind in kinds


class _FieldPlan(NamedTuple):
    name: str
    encode: Encode
    decode: Decode
    required: bool
    when_set: bool
    default: Any
    kinds: Optional[FrozenSet[str]]
    #: The nested spec's keys, for an :func:`inlined` field.
    inlined: Optional[FrozenSet[str]]


def _join(path: str, key: Any) -> str:
    return f"{path}.{key}" if path else str(key)


def _mismatch(path: str, expected: str, value: Any) -> SpecError:
    return SpecError(path, f"expected {expected}, got {type(value).__name__}")


def _exact(kind: type, expected: str) -> Decode:
    def decode(value: Any, path: str) -> Any:
        if isinstance(value, kind):
            return value
        raise _mismatch(path, expected, value)

    return decode


def _decode_int(value: Any, path: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise _mismatch(path, "an integer", value)


def _decode_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _mismatch(path, "a number", value)
    try:
        number = float(value)
    except OverflowError:
        raise SpecError(path, "number is too large for a float") from None
    # JSON text may spell NaN and Infinity; no field takes them.
    if not math.isfinite(number):
        raise SpecError(path, f"expected a finite number, got {number!r}")
    return number


def _identity(value: Any) -> Any:
    return value


_SCALARS: Dict[Any, Tuple[Encode, Decode]] = {
    bool: (_identity, _exact(bool, "a boolean")),
    int: (_identity, _decode_int),
    float: (float, _decode_float),
    str: (_identity, _exact(str, "a string")),
}


def _codec(hint: Any) -> Tuple[Encode, Decode]:
    """The (encode, decode) pair of one type hint."""
    if hint in _SCALARS:
        return _SCALARS[hint]
    if isinstance(hint, type) and issubclass(hint, Spec):
        return (lambda value: value.to_dict()), functools.partial(_decode, hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union and len(args) == 2 and type(None) in args:
        inner = args[0] if args[1] is type(None) else args[1]
        encode, decode = _codec(inner)
        return (
            lambda value: None if value is None else encode(value),
            lambda value, path: None if value is None else decode(value, path),
        )
    if origin is tuple:
        # Tuple[X, ...] repeats one codec; Tuple[X, Y] fixes the arity.
        variadic = args[1:] == (Ellipsis,)
        codecs = [_codec(arg) for arg in args[: 1 if variadic else None]]

        def each(items: Any) -> Any:
            return zip(itertools.cycle(codecs) if variadic else codecs, items)

        def encode_tuple(value: Any) -> list:
            return [encode(item) for (encode, _), item in each(value)]

        def decode_tuple(value: Any, path: str) -> tuple:
            if not isinstance(value, (list, tuple)):
                raise _mismatch(path, "a JSON array", value)
            if not variadic and len(value) != len(codecs):
                raise SpecError(
                    path, f"expected {len(codecs)} items, got {len(value)}"
                )
            return tuple(
                decode(item, f"{path}[{index}]")
                for index, ((_, decode), item) in enumerate(each(value))
            )

        return encode_tuple, decode_tuple
    if origin is dict and args[:1] == (str,):
        # Dict[str, X] is a JSON object; each value keeps its key's path.
        encode_item, decode_item = _codec(args[1])

        def encode_dict(value: Any) -> dict:
            return {key: encode_item(item) for key, item in value.items()}

        def decode_dict(value: Any, path: str) -> dict:
            if not isinstance(value, Mapping):
                raise _mismatch(path, "a JSON object", value)
            return {
                key: decode_item(item, _join(path, key))
                for key, item in value.items()
            }

        return encode_dict, decode_dict
    raise TypeError(f"no spec codec for type hint {hint!r}")


@functools.lru_cache(maxsize=None)
def _plan(cls: type) -> Mapping[str, _FieldPlan]:
    """The field plans of spec class ``cls`` by name, resolved once per class."""
    hints = typing.get_type_hints(cls)
    plan = {}
    for spec_field in dataclasses.fields(cls):
        hint = hints[spec_field.name]
        encode, decode = _codec(hint)
        plan[spec_field.name] = _FieldPlan(
            name=spec_field.name,
            encode=encode,
            decode=decode,
            required=spec_field.default is dataclasses.MISSING
            and spec_field.default_factory is dataclasses.MISSING,
            when_set=bool(spec_field.metadata.get(_WHEN_SET)),
            default=spec_field.default,
            kinds=spec_field.metadata.get(_KINDS),
            inlined=(
                frozenset(_plan(hint)) if spec_field.metadata.get(_INLINED) else None
            ),
        )
    for entry in plan.values():
        if entry.inlined is not None and entry.inlined & plan.keys():
            raise TypeError(
                f"{cls.__name__}.{entry.name}: inlined keys collide with "
                f"{sorted(entry.inlined & plan.keys())}"
            )
    return MappingProxyType(plan)


@functools.lru_cache(maxsize=None)
def _keys(cls: type) -> FrozenSet[str]:
    """Every key an object of spec class ``cls`` may carry."""
    keys = set(cls.derived)
    for entry in _plan(cls).values():
        keys |= {entry.name} if entry.inlined is None else entry.inlined
    return frozenset(keys)


def _decode(cls: Type[S], data: Any, path: str) -> S:
    """Build a ``cls`` from JSON ``data`` found at ``path``."""
    if not isinstance(data, Mapping):
        raise _mismatch(path, "a JSON object", data)
    keys = _keys(cls)
    for key in data:
        if key not in keys:
            raise SpecError(
                _join(path, key), f"unknown key (not a field of {cls.__name__})"
            )
    kwargs: Dict[str, Any] = {}
    for entry in _plan(cls).values():
        at = _join(path, entry.name)
        if entry.inlined is not None:
            # The nested keys sit in this object, at this object's path.
            nested = {key: data[key] for key in data if key in entry.inlined}
            kwargs[entry.name] = entry.decode(nested, path)
        elif entry.name in data:
            kwargs[entry.name] = entry.decode(data[entry.name], at)
        elif entry.required:
            raise SpecError(at, "missing required key")
    try:
        return cls(**kwargs)
    except ValueError as error:
        raise SpecError(path, str(error)) from None


class Spec:
    """Mixin giving a frozen dataclass the field-driven JSON codec."""

    #: Names of properties written after the fields and ignored on decode.
    derived: ClassVar[Tuple[str, ...]] = ()

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON data keyed by field name (see the module docstring)."""
        kind = getattr(self, "kind", None)
        data: Dict[str, Any] = {}
        for entry in _plan(type(self)).values():
            value = getattr(self, entry.name)
            if entry.when_set and value == entry.default:
                continue
            if entry.kinds is not None and kind not in entry.kinds:
                continue
            if entry.inlined is not None:
                data.update(entry.encode(value))
            else:
                data[entry.name] = entry.encode(value)
        for name in self.derived:
            data[name] = getattr(self, name)
        return data

    @classmethod
    def from_dict(cls: Type[S], data: Any) -> S:
        """Rebuild a spec from :meth:`to_dict` data; raises :class:`SpecError`."""
        return _decode(cls, data, "")

    @classmethod
    def from_json(cls: Type[S], text: str) -> S:
        """Rebuild a spec from :meth:`to_json` text (see :meth:`from_dict`)."""
        return cls.from_dict(json.loads(text))

    def to_json(self) -> str:
        """:meth:`to_dict` as indented, key-sorted JSON with a trailing newline."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def canonical_json(self) -> str:
        """The canonical (minified, key-sorted) JSON of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


__all__ = ["Spec", "SpecError", "applies", "for_kinds", "inlined", "when_set"]
