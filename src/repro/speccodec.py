"""One declarative codec for every spec dataclass.

Every declarative spec (scenarios, sweeps, studies, policies, faults,
resilience hops, goodput constraints, model profiles) is a frozen
dataclass deriving from :class:`Spec`, and its JSON form is declared
per field with :func:`field`:

* a **coercer** (:class:`Coerce`) that checks and converts the JSON value
  on the way in and writes it back out;
* the JSON **key**, the field name unless given;
* an **omit-when** rule.  ``omit=True`` leaves the key out while the
  field holds its default; a callable ``omit(spec)`` leaves it out
  whenever it returns true.  The rule exists for identity: a key added
  to a spec after files and caches already held that spec is written
  only when set, so every pre-existing spec keeps its serialized form,
  and with it the fingerprint that keys cached sweep cells and study
  goldens.

Fields without codec metadata are derived state, neither read nor
written.  Keys are written in field declaration order; a class whose
historical key order differs from its natural argument order declares
its fields in key order with ``kw_only=True``.  A field whose default is
``None`` also accepts ``null``.

Scalar coercion is the policy-parameter rule set: a bool must be a bool,
an int must be integral and not a bool, a float must be numeric and not
a bool, a string must be a string.  No numeric strings are accepted.
Every error names the dotted path of the offending value, e.g.
``tenants[1].scenario.workers: expected an integer, got 'x'``.  Range
and cross-field checks stay in each class's ``__post_init__`` or
``validate()``; errors they raise while a document is parsed are
prefixed with the spec's path.

Irregular JSON shapes are not codec features: a class overrides
``to_dict``/``from_dict`` and calls ``super()``.

This module imports nothing else from ``repro``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
from collections.abc import Iterable, Mapping
from numbers import Real
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "ANY", "BOOL", "COUNTS", "FLOAT", "INT", "STR", "Coerce", "Spec",
    "at", "canonical", "check_keys", "coerce_scalar", "error", "field",
    "fingerprint", "mapping", "nested", "normalize", "pairs", "plain", "seq",
]

_EXPECTED = {
    "bool": "true/false",
    "int": "an integer",
    "float": "a number",
    "str": "a string",
}


def at(path: str, key: Any) -> str:
    """The dotted path of ``key`` under ``path``."""
    return f"{path}.{key}" if path else str(key)


def error(path: str, message: str) -> ValueError:
    """A ``ValueError`` whose message starts with ``path`` (when set)."""
    return ValueError(f"{path}: {message}" if path else message)


def coerce_scalar(kind: str, value: Any, path: str) -> Any:
    """Check ``value`` against a scalar kind ("bool", "int", "float",
    "str") and return it in that kind's canonical Python type."""
    if kind == "bool" or kind == "str":
        if isinstance(value, bool if kind == "bool" else str):
            return value
    elif type(value) in (int, float) or (
        isinstance(value, Real) and not isinstance(value, bool)
    ):
        if kind == "float":
            return float(value)
        if isinstance(value, int) or (
            math.isfinite(value) and int(value) == value
        ):
            return int(value)
    raise error(path, f"expected {_EXPECTED[kind]}, got {value!r}")


def plain(value: Any) -> Any:
    """A nested spec as its dict form; anything else unchanged."""
    return value.to_dict() if isinstance(value, Spec) else value


class Coerce:
    """How one field crosses the JSON boundary.

    ``decode(value, path)`` checks and converts an incoming value
    (raising with ``path``); ``encode(value)`` returns its JSON form.
    ``scalar`` coercers only run when parsing: a spec built in Python
    keeps the numbers it was given, exactly as before the codec.
    """

    __slots__ = ("decode", "encode", "scalar")

    def __init__(
        self,
        decode: Callable[[Any, str], Any],
        encode: Callable[[Any], Any] = plain,
        scalar: bool = False,
    ) -> None:
        self.decode = decode
        self.encode = encode
        self.scalar = scalar


def _scalar(kind: str) -> Coerce:
    return Coerce(
        lambda value, path: coerce_scalar(kind, value, path), scalar=True
    )


BOOL, INT, FLOAT, STR = (_scalar(k) for k in ("bool", "int", "float", "str"))

#: Pass-through: the owning class's ``__post_init__`` checks the value.
ANY = Coerce(lambda value, path: value)


def nested(cls: type) -> Coerce:
    """A nested spec: instances pass through, mappings are parsed."""
    return Coerce(
        lambda value, path: (
            value if isinstance(value, cls) else cls.from_dict(value, path)
        )
    )


def seq(item: Coerce) -> Coerce:
    """A JSON list held as a tuple, element ``i`` coerced at ``path[i]``."""

    def decode(value: Any, path: str) -> tuple:
        if type(value) not in (list, tuple) and (
            isinstance(value, (str, bytes, Mapping))
            or not isinstance(value, Iterable)
        ):
            raise error(path, f"expected a list, got {value!r}")
        return tuple(
            item.decode(v, f"{path}[{i}]") for i, v in enumerate(value)
        )

    return Coerce(decode, lambda value: [item.encode(v) for v in value])


def mapping(value: Any, path: str) -> dict:
    """A JSON object as a dict.

    Iterables of ``(key, value)`` pairs are accepted too (the frozen
    form specs hold); a repeated key is an error, not a silent overwrite.
    """
    if isinstance(value, (dict, Mapping)):
        return dict(value)
    if not isinstance(value, (str, bytes)):
        try:
            items = list(value)
            out = dict(items)
        except (TypeError, ValueError):
            pass
        else:
            if len(out) != len(items):
                raise error(path, f"duplicate keys in {value!r}")
            return out
    raise error(path, f"expected a mapping, got {value!r}")


def pairs(item: Coerce) -> Coerce:
    """A JSON object held as hashable ``(key, value)`` pairs, sorted by key."""

    def decode(value: Any, path: str) -> tuple:
        return tuple(sorted(
            ((str(k), item.decode(v, at(path, k)))
             for k, v in mapping(value, path).items()),
            key=lambda kv: kv[0],
        ))

    return Coerce(decode, lambda value: {k: item.encode(v) for k, v in value})


def _counts(value: Any, path: str) -> "int | dict[str, int]":
    if isinstance(value, Mapping):
        return {
            str(k): coerce_scalar("int", v, at(path, k))
            for k, v in value.items()
        }
    return coerce_scalar("int", value, path)


#: A count for everything (an int) or per id (a ``{id: int}`` mapping).
COUNTS = Coerce(
    _counts, lambda value: dict(value) if isinstance(value, dict) else value
)


def field(
    coerce: Coerce,
    default: Any = dataclasses.MISSING,
    *,
    default_factory: Any = dataclasses.MISSING,
    key: str | None = None,
    omit: "bool | Callable[[Any], bool]" = False,
) -> Any:
    """A dataclass field with its codec metadata (see the module doc)."""
    return dataclasses.field(
        default=default,
        default_factory=default_factory,
        metadata={"codec": (coerce, key, omit)},
    )


class _Plan:
    """Codec view of one spec class, built once on first use."""

    __slots__ = ("fields", "keys", "noun", "structural")

    def __init__(self, cls: type) -> None:
        fields = []
        for f in dataclasses.fields(cls):
            if "codec" not in f.metadata:
                continue
            coerce, key, omit = f.metadata["codec"]
            required = (f.default is dataclasses.MISSING
                        and f.default_factory is dataclasses.MISSING)
            fields.append(
                (f.name, key or f.name, coerce, omit, f.default, required)
            )
        self.fields = tuple(fields)
        self.keys = frozenset(key for _, key, *_ in self.fields)
        self.structural = tuple(
            (name, coerce.decode, default is None)
            for name, _, coerce, _, default, _ in self.fields
            if not coerce.scalar
        )
        # TraceSpec -> "trace", FailureEvent -> "failure-event".
        name = re.sub(r"Spec$", "", cls.__name__)
        self.noun = re.sub(
            r"(?<=[a-z])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])", "-", name
        ).lower()


_PLANS: dict[type, _Plan] = {}


def _plan(cls: type) -> _Plan:
    plan = _PLANS.get(cls)
    if plan is None:
        plan = _PLANS[cls] = _Plan(cls)
    return plan


def check_keys(data: Any, allowed: Iterable[str], noun: str, path: str) -> dict:
    """``data`` as a dict, rejecting non-mappings and unknown keys."""
    if not isinstance(data, (dict, Mapping)):
        raise error(path or noun, f"expected a mapping, got {data!r}")
    unknown = set(data).difference(allowed)
    if unknown:
        raise error(path, f"unknown {noun} keys: {sorted(unknown)}")
    return dict(data)


def normalize(spec: Any) -> None:
    """Coerce the structural fields of a spec built in Python.

    Called first thing in ``__post_init__``: nested mappings become
    specs, lists become tuples, mappings become frozen pairs, counts are
    checked.  Paths are relative to the spec.  Scalar fields are left as
    given.
    """
    for name, decode, nullable in _plan(type(spec)).structural:
        value = getattr(spec, name)
        if value is not None or not nullable:
            object.__setattr__(spec, name, decode(value, name))


class Spec:
    """Base of every codec dataclass: dict, JSON and file I/O, fingerprint."""

    __slots__ = ()

    def to_dict(self) -> Any:
        """The JSON-ready form: declared keys in declaration order."""
        out = {}
        for name, key, coerce, omit, default, _ in _plan(type(self)).fields:
            value = getattr(self, name)
            if omit and (omit(self) if callable(omit) else value == default):
                continue
            out[key] = None if value is None else coerce.encode(value)
        return out

    @classmethod
    def from_dict(cls, data: Any, path: str = "") -> Any:
        """Parse ``data``; ``path`` is its dotted path in the document."""
        plan = _plan(cls)
        data = check_keys(data, plan.keys, plan.noun, path)
        kwargs = {}
        missing = []
        for name, key, coerce, _, default, required in plan.fields:
            if key in data:
                value = data[key]
                kwargs[name] = (
                    None if value is None and default is None
                    else coerce.decode(value, at(path, key))
                )
            elif required:
                missing.append(key)
        if missing:
            raise error(path, f"{plan.noun} missing required keys: {missing}")
        try:
            return cls(**kwargs)
        except ValueError as exc:
            if not path:
                raise
            raise error(path, str(exc)) from None

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> Any:
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: "str | Path") -> Any:
        return cls.from_json(Path(path).read_text())

    def save(self, path: "str | Path") -> None:
        Path(path).write_text(self.to_json() + "\n")

    def fingerprint(self) -> str:
        """Stable hex digest of the spec (cache identity)."""
        return fingerprint(self.to_dict())


def canonical(value: Any) -> Any:
    """Normalise numeric spelling for fingerprinting.

    ``Scenario(duration=8)`` and its JSON round-trip (``8.0``) compare
    equal, so they must hash equal too — otherwise a spec authored in
    Python and the same spec re-loaded from a file would miss each
    other's cache entries.  Bools are checked first (bool is an int
    subclass); every other int becomes a float.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return float(value)
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def fingerprint(data: Any) -> str:
    """sha256 of the canonical, key-sorted compact JSON of ``data``."""
    blob = json.dumps(canonical(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
