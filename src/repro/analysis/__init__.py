"""Correctness tooling: specs, lint rules, sanitizer, model checker.

One declarative invariant registry (:mod:`repro.analysis.spec`) backs
three runtime backends, each run by one ``zcache-repro check`` mode:

- :mod:`repro.analysis.sanitizer` — :class:`SanitizedArray`, a runtime
  proxy driving the registry invariants after every array operation
  along one concrete run (``check --sanitize``).
- :mod:`repro.analysis.modelcheck` — an exhaustive bounded model
  checker enumerating *every* access sequence over tiny geometries,
  checking the registry invariants plus reference↔turbo bit-identity
  each step (``check --model``).
- :mod:`repro.analysis.lockset` — the dynamic lockset race checker over
  threaded serve traffic (``check --lockset``).

:mod:`repro.analysis.lint` is ZSan, the per-file AST lint run by
``zcache-repro lint``. See ``docs/specs.md`` and the "Analysis &
sanitizer layer" section of ``docs/architecture.md``.
"""

from repro.analysis.sanitizer import (
    VIOLATION_KINDS,
    InvariantViolation,
    SanitizedArray,
)

__all__ = ["InvariantViolation", "SanitizedArray", "VIOLATION_KINDS"]
