"""Runtime effect-contract registry: the ``@declares_effects`` decorator.

The whole-program effect analyzer (:mod:`repro.lint.effects`) infers,
for every function in the project, which determinism-relevant effects
it can perform — wall-clock reads, unseeded RNG draws, environment
reads, filesystem writes, and so on.  Most functions must infer to
*no* effects when they sit inside a memoized pipeline stage or a
worker-pool job; the handful that legitimately perform one (the store's
``duration_s`` provenance clock, the ``REPRO_SCALE`` read whose value
is itself fingerprinted into every content key) declare it **at the
use site**:

.. code-block:: python

    from repro.lint.contracts import declares_effects

    @declares_effects("env-read")
    def scale_factor() -> float:
        ...

A declaration is an audited carve-out, not an opt-out: the analyzer
stops RL006/RL007 propagation at a declared boundary, but rule RL008
re-checks every annotated function — if its *inferred* effects ever
exceed its declaration, the annotation is stale and the gate fails.

This module is deliberately dependency-free (stdlib + ``repro.errors``)
so production modules — ``repro.obs``, ``repro.store``, ``repro.sim`` —
can import it without pulling in the analyzer.  The decorator itself is
zero-cost at call time: it tags the function object and returns it
unchanged, no wrapper frame.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Tuple, TypeVar

from repro.errors import LintError

__all__ = ["EFFECT_NAMES", "DECLARED_EFFECTS_ATTR", "declares_effects", "declared_effects"]

#: The effect lattice, in canonical order.  Must stay in sync with
#: :mod:`repro.lint.effects.model` (which imports this tuple).
EFFECT_NAMES: Tuple[str, ...] = (
    "time",
    "rng-unseeded",
    "env-read",
    "fs-write",
    "global-mutate",
    "thread-spawn",
    "dict-order-sensitive",
    "float-reduction-order",
)

#: Attribute the decorator sets on the function object.
DECLARED_EFFECTS_ATTR = "__declared_effects__"

_VALID = frozenset(EFFECT_NAMES)

F = TypeVar("F", bound=Callable[..., Any])

#: Runtime registry of every decorated function seen this process:
#: ``qualified name -> declared effect set`` (diagnostics / tests).
REGISTRY: Dict[str, FrozenSet[str]] = {}


def declares_effects(*effects: str) -> Callable[[F], F]:
    """Mark a function as intentionally performing the named effects.

    The decorator validates the names eagerly (a typo would otherwise
    silently disable the carve-out) and tags the function with a
    ``__declared_effects__`` frozenset.  The static analyzer reads the
    decorator from the AST, so stacking order relative to other
    decorators does not matter for analysis; for runtime introspection
    put it outermost.
    """
    unknown = sorted(set(effects) - _VALID)
    if unknown:
        raise LintError(
            f"declares_effects: unknown effect(s) {', '.join(unknown)}; "
            f"known: {', '.join(EFFECT_NAMES)}"
        )
    declared = frozenset(effects)

    def mark(fn: F) -> F:
        setattr(fn, DECLARED_EFFECTS_ATTR, declared)
        name = f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"
        REGISTRY[name] = declared
        return fn

    return mark


def declared_effects(fn: Callable[..., Any]) -> FrozenSet[str]:
    """The effect set a callable declared (empty if undecorated)."""
    declared = getattr(fn, DECLARED_EFFECTS_ATTR, None)
    return declared if declared is not None else frozenset()
