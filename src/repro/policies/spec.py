"""PolicySpec: a policy as a point in configuration space.

The paper's evaluation is a study in policy *parameterization*: PARD and
its Table-1 ablations differ only in knobs (``lam``, ``sub_mode``,
``wait_mode``, ``priority_mode``, ``budget_mode``), and the baselines carry
tuning constants of their own.  A :class:`PolicySpec` names a registered
policy plus the knob values to construct it with — plain data that
round-trips through dict/JSON, pickles into sweep workers and fingerprints
into the disk cache, so "which system" becomes "which point in
policy-configuration space" and a Figure-11-style ablation grid is one
serializable axis.

Parameters are *declared* by the registry (:class:`ParamSpec`: name, type,
default, choices) and validated here at spec-construction time — a typo'd
knob or an out-of-range choice fails when the spec is built, not minutes
into a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..speccodec import STR, Coerce, Spec, coerce_scalar, error, field, normalize, pairs

__all__ = ["ParamSpec", "PolicySpec"]

#: JSON-serializable scalar types a policy parameter may hold.
_SCALARS = (bool, int, float, str)


@dataclass(frozen=True)
class ParamSpec:
    """One declared, introspectable policy parameter.

    ``type`` is a type *name* ("float", "int", "str", "bool") rather than a
    Python type so the declaration itself serializes (``repro list
    --params`` prints it verbatim).  ``choices`` restricts the value to an
    enumerated set (mode knobs); ``default`` documents what the factory
    uses when the parameter is not given.
    """

    name: str
    type: str
    default: Any
    choices: tuple = ()
    help: str = ""

    def __post_init__(self) -> None:
        if self.type not in ("float", "int", "str", "bool"):
            raise ValueError(f"unknown param type {self.type!r}")
        object.__setattr__(self, "choices", tuple(self.choices))

    def coerce(self, value: Any, where: str) -> Any:
        """Validate ``value`` against this declaration; returns it coerced.

        Numeric spelling is normalised (JSON authors write ``8`` where
        Python holds ``8.0``) so equal specs fingerprint equally; genuine
        type mismatches raise with the offending policy/param named.  The
        type rules are the spec codec's scalar rules.
        """
        out = coerce_scalar(self.type, value, where)
        if self.choices and out not in self.choices:
            raise ValueError(
                f"{where} must be one of {list(self.choices)}, got {value!r}"
            )
        return out

    def describe(self) -> str:
        """One cell of ``repro list --params`` output."""
        kind = "|".join(str(c) for c in self.choices) if self.choices else self.type
        return f"{self.name}={self.default} ({kind})"


def _scalar_param(value: Any, path: str) -> Any:
    if not isinstance(value, _SCALARS):
        raise error(
            path, "a policy param must be a scalar (bool/int/float/str), "
            f"got {type(value).__name__}",
        )
    return value


@dataclass(frozen=True)
class PolicySpec(Spec):
    """A registered policy name plus typed construction parameters.

    The first-class unit of policy configuration: scenarios carry one,
    sweep axes vary one parameter at a time (``with_params``), and the
    registry constructs the live policy from it
    (:func:`repro.policies.registry.make_policy`).  ``params`` holds only
    the *authored* knobs — unset parameters fall to the factory defaults,
    so a bare ``PolicySpec("PARD")`` is byte-identical to the legacy string
    form in serialized scenarios (see :meth:`to_dict`).
    """

    name: str = field(STR, "PARD")
    #: Sorted ``((key, value), ...)`` pairs; a mapping is accepted.
    params: tuple = field(pairs(Coerce(_scalar_param)), ())

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"policy name must be a non-empty string, "
                             f"got {self.name!r}")
        normalize(self)
        # Validate eagerly when the name is already registered (the normal
        # case); unregistered names stay lazy so registration order is
        # flexible, and validate() is the authoritative check.
        schema = self._schema()
        if schema is not None:
            object.__setattr__(
                self, "params", self._coerced(schema)
            )

    # -- validation ---------------------------------------------------------

    def _schema(self) -> "tuple[ParamSpec, ...] | None":
        """The declared parameter schema, or None when not yet registered."""
        from .registry import ADMISSIONS, POLICIES

        info = POLICIES.get(self.name) or ADMISSIONS.get(self.name)
        return None if info is None else info.params

    def _coerced(self, schema: "tuple[ParamSpec, ...]") -> tuple:
        declared = {p.name: p for p in schema}
        unknown = [k for k, _ in self.params if k not in declared]
        if unknown:
            known = sorted(declared) or ["<none>"]
            raise ValueError(
                f"policy {self.name!r} does not accept params {unknown}; "
                f"declared: {', '.join(known)}"
            )
        return tuple(
            (k, declared[k].coerce(v, f"policy {self.name!r} param {k!r}"))
            for k, v in self.params
        )

    def validate(self, kind: str = "policy") -> "PolicySpec":
        """Resolve the name in the registry and re-check every param.

        ``kind`` selects the registry: ``"policy"`` for drop policies,
        ``"admission"`` for shared-cluster admission (fairness) policies.
        Returns ``self`` so callers can chain.
        """
        from .registry import ADMISSIONS, POLICIES, known_admissions, known_policies

        if kind == "admission":
            registry, known = ADMISSIONS, known_admissions()
        else:
            registry, known = POLICIES, known_policies()
        info = registry.get(self.name)
        if info is None:
            raise ValueError(
                f"unknown {kind} {self.name!r}; known: {', '.join(known)}"
            )
        self._coerced(info.params)
        return self

    # -- access -------------------------------------------------------------

    def param_dict(self) -> dict:
        return dict(self.params)

    def with_params(self, **overrides: Any) -> "PolicySpec":
        """A new spec with ``overrides`` merged over the current params.

        The sweep-axis primitive: ``spec.with_params(lam=0.3)`` is one cell
        of a ``policy.lam`` grid.
        """
        merged = self.param_dict()
        merged.update(overrides)
        return PolicySpec(name=self.name, params=merged)

    def label(self) -> str:
        """Display / cache label: the name, plus any authored params.

        Sweep tables and scenario labels use this, so two variants of one
        policy never collapse into the same row.
        """
        if not self.params:
            return self.name
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}({inner})"

    # -- serialisation ------------------------------------------------------

    @classmethod
    def coerce(cls, value: "PolicySpec | str | Mapping") -> "PolicySpec":
        """Accept every spelling a policy may arrive as.

        Bare strings are the legacy form every existing scenario file uses;
        mappings are the explicit form; specs pass through.
        """
        return value if isinstance(value, cls) else cls.from_dict(value)

    def to_dict(self) -> "str | dict":
        """The compact form: a param-less spec is its bare name.

        Legacy files round-trip byte-identically and the two spellings
        share one fingerprint.
        """
        return super().to_dict() if self.params else self.name

    @classmethod
    def from_dict(cls, data: Any, path: str = "") -> "PolicySpec":
        if isinstance(data, str):
            data = {"name": data}
        elif not isinstance(data, Mapping):
            raise error(
                path, f"policy must be a name or a mapping, got {data!r}"
            )
        elif "name" not in data:
            raise error(path, "a policy mapping requires a 'name'")
        return super().from_dict(data, path)
