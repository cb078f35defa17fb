"""Vocabulary of the whole-program effect analyzer.

Effects are a fixed eight-element lattice (:data:`EFFECT_NAMES`,
shared with the runtime registry in :mod:`repro.lint.contracts`)
represented as bitmasks so the fixed-point propagation is integer
unions.  Every function carries two masks:

``undeclared``
    Effects reaching the function through chains that never cross a
    ``@declares_effects`` boundary — these are the hazards the
    contract rules (RL006/RL007) fire on.
``declared``
    Effects absorbed by an annotated function somewhere down the
    chain — audited carve-outs, reported but never failing.

Module summaries — the per-module intrinsic effects, declared sets and
symbolic call references — are plain dataclasses with exact JSON
round-trips, because they are what the on-disk analysis cache stores
(:mod:`repro.lint.effects.cache`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import LintError
from repro.lint.contracts import EFFECT_NAMES

__all__ = [
    "EFFECT_NAMES",
    "EFFECT_BIT",
    "DETERMINISTIC_FORBIDDEN",
    "REPLAY_SAFE_FORBIDDEN",
    "ALL_EFFECTS",
    "EFFECT_RULES",
    "mask_of",
    "mask_names",
    "IntrinsicEffect",
    "CallRef",
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
]

#: name -> single-bit mask, in lattice order.
EFFECT_BIT: Dict[str, int] = {name: 1 << i for i, name in enumerate(EFFECT_NAMES)}

ALL_EFFECTS: int = (1 << len(EFFECT_NAMES)) - 1


def mask_of(*names: str) -> int:
    """Union mask of the named effects (raises on unknown names)."""
    mask = 0
    for name in names:
        try:
            mask |= EFFECT_BIT[name]
        except KeyError:
            raise LintError(
                f"unknown effect {name!r}; known: {', '.join(EFFECT_NAMES)}"
            ) from None
    return mask


def mask_names(mask: int) -> Tuple[str, ...]:
    """The effect names present in a mask, in lattice order."""
    return tuple(name for name in EFFECT_NAMES if mask & EFFECT_BIT[name])


#: A ``@cached_stage`` function (and everything it calls) must carry
#: none of these undeclared: the content-addressed store assumes the
#: stage is a pure function of its fingerprinted inputs.
DETERMINISTIC_FORBIDDEN: int = mask_of("time", "rng-unseeded", "env-read")

#: Worker-pool job entry points additionally must not write shared
#: state undeclared: re-running a job must be undetectable, so every
#: write has to be an audited, idempotent carve-out.
REPLAY_SAFE_FORBIDDEN: int = DETERMINISTIC_FORBIDDEN | mask_of(
    "fs-write", "global-mutate"
)

#: Whole-program rules the effect pass contributes (code -> (name,
#: default severity string)).  Kept here — not in the per-file rule
#: registry — because they need the cross-module analysis, but the CLI
#: folds them into ``--list-rules`` and the severity/disable config.
EFFECT_RULES: Dict[str, Tuple[str, str]] = {
    "RL006": ("nondeterministic-cached-stage", "error"),
    "RL007": ("impure-worker-job", "error"),
    "RL008": ("undeclared-effect-escalation", "error"),
}


@dataclass(frozen=True)
class IntrinsicEffect:
    """One effect performed directly by a function body."""

    effect: str
    line: int
    detail: str  # human-readable source, e.g. "time.time()"

    def to_json(self) -> List[Any]:
        return [self.effect, self.line, self.detail]

    @classmethod
    def from_json(cls, data: List[Any]) -> "IntrinsicEffect":
        return cls(effect=data[0], line=int(data[1]), detail=data[2])


@dataclass(frozen=True)
class CallRef:
    """A statically resolved (or resolvable) call site.

    ``module`` is the dotted project-module path the callee lives in,
    or ``None`` for the current module; ``qualname`` is the dotted
    in-module path (``f``, ``C.m``, ``outer.inner``).  The linker drops
    references that resolve to nothing — the analyzer is deliberately
    optimistic about dynamic dispatch (DESIGN.md §12).
    """

    module: Optional[str]
    qualname: str
    line: int

    def to_json(self) -> List[Any]:
        return [self.module, self.qualname, self.line]

    @classmethod
    def from_json(cls, data: List[Any]) -> "CallRef":
        return cls(module=data[0], qualname=data[1], line=int(data[2]))


@dataclass
class FunctionSummary:
    """Everything the propagation needs to know about one function."""

    qualname: str
    lineno: int
    intrinsics: List[IntrinsicEffect] = field(default_factory=list)
    calls: List[CallRef] = field(default_factory=list)
    #: Effect names from ``@declares_effects(...)``; ``None`` = undecorated.
    declared: Optional[Tuple[str, ...]] = None
    #: True when decorated with ``@cached_stage(...)`` — an RL006 root.
    cached_stage: bool = False

    def to_json(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "lineno": self.lineno,
            "intrinsics": [i.to_json() for i in self.intrinsics],
            "calls": [c.to_json() for c in self.calls],
            "declared": list(self.declared) if self.declared is not None else None,
            "cached_stage": self.cached_stage,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FunctionSummary":
        declared = data.get("declared")
        return cls(
            qualname=data["qualname"],
            lineno=int(data["lineno"]),
            intrinsics=[IntrinsicEffect.from_json(i) for i in data["intrinsics"]],
            calls=[CallRef.from_json(c) for c in data["calls"]],
            declared=tuple(declared) if declared is not None else None,
            cached_stage=bool(data.get("cached_stage", False)),
        )


@dataclass
class ClassSummary:
    """Per-class method/base/attribute-type tables for call resolution."""

    name: str
    #: Base classes as ``(module-or-None, ClassName)`` references.
    bases: List[Tuple[Optional[str], str]] = field(default_factory=list)
    #: ``self.<attr>`` types inferred from ``__init__`` constructor
    #: assignments and class-body annotations.
    attr_types: Dict[str, Tuple[Optional[str], str]] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "bases": [list(b) for b in self.bases],
            "attr_types": {k: list(v) for k, v in self.attr_types.items()},
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ClassSummary":
        return cls(
            name=data["name"],
            bases=[(b[0], b[1]) for b in data["bases"]],
            attr_types={k: (v[0], v[1]) for k, v in data["attr_types"].items()},
        )


@dataclass
class ModuleSummary:
    """The cacheable analysis unit: one module's functions and classes."""

    relpath: str
    dotted: str
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    #: Module-level names whose values are instances of a known class
    #: (``registry = MetricsRegistry()``), for attr-call resolution.
    global_types: Dict[str, Tuple[Optional[str], str]] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "relpath": self.relpath,
            "dotted": self.dotted,
            "functions": {q: f.to_json() for q, f in self.functions.items()},
            "classes": {n: c.to_json() for n, c in self.classes.items()},
            "global_types": {k: list(v) for k, v in self.global_types.items()},
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ModuleSummary":
        return cls(
            relpath=data["relpath"],
            dotted=data["dotted"],
            functions={
                q: FunctionSummary.from_json(f) for q, f in data["functions"].items()
            },
            classes={
                n: ClassSummary.from_json(c) for n, c in data["classes"].items()
            },
            global_types={
                k: (v[0], v[1]) for k, v in data["global_types"].items()
            },
        )
