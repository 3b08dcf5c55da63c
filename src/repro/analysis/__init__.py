"""Correctness tooling: specs, lint rules, sanitizer, model checker.

One declarative invariant registry (:mod:`repro.analysis.spec`) backs
three independent enforcement prongs:

- :mod:`repro.analysis.lint` — ZSan, a custom AST lint engine with
  repository-specific rules (seeded-randomness discipline, float
  equality, the replacement-policy contract, hot-path dataclass slots,
  wall-clock/global-state hygiene, hidden module state, span
  discipline). Run via ``zcache-repro lint``.
- :mod:`repro.analysis.sanitizer` — :class:`SanitizedArray`, a runtime
  proxy driving the registry invariants after every array operation
  along one concrete run. Run via ``zcache-repro check --sanitize``.
- :mod:`repro.analysis.modelcheck` — an exhaustive bounded model
  checker enumerating *every* access sequence over tiny geometries,
  checking the registry invariants plus reference↔turbo bit-identity
  each step. Run via ``zcache-repro check --model``.

See ``docs/specs.md`` and the "Analysis & sanitizer layer" section of
``docs/architecture.md``.
"""

from repro.analysis.lint import Finding, LintEngine, LintReport, LintRule
from repro.analysis.sanitizer import (
    VIOLATION_KINDS,
    InvariantViolation,
    SanitizedArray,
    make_wrapper,
    sanitize,
)
from repro.analysis.spec import (
    INVARIANT_REGISTRY,
    Invariant,
    default_invariants,
    invariants_for,
    register_invariant,
)

__all__ = [
    "Finding",
    "INVARIANT_REGISTRY",
    "Invariant",
    "LintEngine",
    "LintReport",
    "LintRule",
    "InvariantViolation",
    "SanitizedArray",
    "VIOLATION_KINDS",
    "default_invariants",
    "invariants_for",
    "register_invariant",
    "sanitize",
    "make_wrapper",
]
