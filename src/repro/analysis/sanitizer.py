"""Runtime invariant sanitizer for cache arrays.

:class:`SanitizedArray` wraps any :class:`~repro.core.base.CacheArray`
and re-verifies, from the outside, the invariants the zcache's
correctness rests on. The invariants themselves live in the declarative
registry (:mod:`repro.analysis.spec`); this module is the thin runtime
driver that builds the scope-appropriate check context around every
intercepted operation and raises on the first violated invariant:

- **walk** scope after every ``build_replacement`` /
  ``build_reinsertion``, once per walk record (each invariant loops
  over the nodes and the first broken node is reported): every parent
  link points to an earlier node (so paths are acyclic), levels
  increase by exactly one along parent links, a valid candidate's path never
  revisits a position, recorded addresses match the array, and for
  hashed arrays every candidate sits at the hash of the relevant
  address.
- **commit** scope after every successful ``commit_replacement``:
  block conservation, the incoming block at the path root, relocated
  blocks one step down their path.
- **phase** scope around every commit *attempt* (including
  ``commit_reinsertion``): a commit over a stale path must be rejected,
  and a rejected commit must not corrupt state — the two-phase
  protocol's staleness/atomicity contract.
- **state** scope every ``deep_check_interval`` mutations and on
  :meth:`~SanitizedArray.final_check`: map↔lines sync, tag uniqueness,
  hash placement.

Violations raise :class:`InvariantViolation`, a structured error
carrying the violated invariant's ``kind`` and registry ``name``, the
experiment ``seed``, and the tail of the access trace, so a failure can
be replayed deterministically.

Cost model: per-operation checks are O(walk) — proportional to work the
array already did — while the O(cache) deep scan runs every
``deep_check_interval`` commits (default 64) and on :meth:`final_check`,
which bounds how long a corruption can stay latent. ``zcache-repro
check --sanitize`` prints the slowdown over the same replay unsanitized.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.analysis.spec import (
    SCOPE_COMMIT,
    SCOPE_EVICT,
    SCOPE_PHASE,
    SCOPE_STATE,
    SCOPE_WALK,
    VIOLATION_KINDS,
    CommitCheck,
    EvictCheck,
    PhaseCheck,
    StateCheck,
    WalkCheck,
    invariants_for,
    stale_path_detail,
)
from repro.core.base import ArrayProxy, CacheArray, CommitResult, Replacement

__all__ = ["VIOLATION_KINDS", "InvariantViolation", "SanitizedArray"]

# Scope slices of the registry, resolved once at import (the registry
# is fully populated by the spec module's own import).
def _bind(scope: str) -> Tuple[Tuple[Callable[..., Any], str, str], ...]:
    """Pre-bound ``(check, kind, name)`` triples for one scope: the walk
    checks run on every miss, so the sanitizer resolves them once."""
    return tuple(
        (inv.check, inv.kind, inv.name) for inv in invariants_for(scope)
    )


_WALK = _bind(SCOPE_WALK)
_COMMIT = _bind(SCOPE_COMMIT)
_EVICT = _bind(SCOPE_EVICT)
_STATE = _bind(SCOPE_STATE)
_PHASE = _bind(SCOPE_PHASE)


class InvariantViolation(RuntimeError):
    """A cache-array invariant failed at runtime.

    Attributes
    ----------
    kind:
        One of :data:`~repro.analysis.spec.VIOLATION_KINDS` — the
        invariant class that failed (mutation tests key on this).
    detail:
        Human-readable specifics.
    invariant:
        The registry name of the violated
        :class:`~repro.analysis.spec.Invariant`, when known.
    seed:
        The experiment seed supplied to the wrapper, for replay.
    trace:
        The most recent ``(operation, address)`` events, oldest first.
    """

    def __init__(
        self,
        kind: str,
        detail: str,
        *,
        invariant: Optional[str] = None,
        seed: Optional[int] = None,
        trace: tuple = (),
    ) -> None:
        if kind not in VIOLATION_KINDS:
            raise ValueError(f"unknown violation kind: {kind!r}")
        self.kind = kind
        self.detail = detail
        self.invariant = invariant
        self.seed = seed
        self.trace = tuple(trace)
        super().__init__(self._render())

    def _render(self) -> str:
        lines = [f"[{self.kind}] {self.detail}"]
        if self.invariant is not None:
            lines.append(f"invariant: {self.invariant}")
        if self.seed is not None:
            lines.append(f"replay: seed={self.seed}")
        if self.trace:
            tail = ", ".join(
                f"{op}({addr:#x})" if isinstance(addr, int) else f"{op}({addr})"
                for op, addr in self.trace[-8:]
            )
            lines.append(f"trace tail ({len(self.trace)} events): {tail}")
        return "\n".join(lines)


class SanitizedArray(ArrayProxy):
    """Invariant-checking proxy around a :class:`CacheArray`.

    Drop-in at the controller boundary: wrap the array before handing
    it to :class:`~repro.core.controller.Cache` and every access runs
    sanitized. Attribute reads and writes not intercepted here are
    forwarded to the inner array by :class:`ArrayProxy`, so
    array-specific surface (``stats``, ``hashes``, ``candidate_limit``
    …) keeps working.

    Parameters
    ----------
    array:
        The array to guard.
    seed:
        Experiment seed embedded in violations for replay.
    trace_limit:
        How many recent operations to retain for violation reports.
    deep_check_interval:
        Run the O(cache) full-state scan every N mutations
        (``0`` disables periodic deep scans; per-operation local checks
        still run, and :meth:`final_check` always scans).
    """

    _OWN = frozenset(
        {
            "seed", "_trace", "_trace_limit",
            "_deep_interval", "_mutations", "checks_run", "deep_scans",
        }
    )

    def __init__(
        self,
        array: CacheArray,
        *,
        seed: Optional[int] = None,
        trace_limit: int = 256,
        deep_check_interval: int = 64,
    ) -> None:
        super().__init__(array)
        self.seed = seed
        self._trace: list = []
        self._trace_limit = max(1, trace_limit)
        self._deep_interval = deep_check_interval
        self._mutations = 0
        self.checks_run = 0
        self.deep_scans = 0

    # -- trace ----------------------------------------------------------------
    def _note(self, op: str, address: int) -> None:
        self._trace.append((op, address))
        if len(self._trace) > self._trace_limit:
            del self._trace[: -self._trace_limit]

    def _fail(
        self, kind: str, detail: str, *, invariant: Optional[str] = None
    ) -> None:
        raise InvariantViolation(
            kind, detail, invariant=invariant, seed=self.seed,
            trace=tuple(self._trace),
        )

    def _run(
        self,
        invariants: Tuple[Tuple[Callable[..., Any], str, str], ...],
        ctx: object,
    ) -> None:
        """Evaluate registry invariants, raising on the first violation."""
        for check, kind, name in invariants:
            detail = check(ctx)
            if detail is not None:
                self._fail(kind, detail, invariant=name)

    # -- intercepted operations ----------------------------------------------
    def build_replacement(self, address: int) -> Replacement:
        """Run the walk, then verify its record (see module doc)."""
        self._note("build", address)
        repl = self._inner.build_replacement(address)
        self.check_walk(repl)
        return repl

    def build_reinsertion(self, address: int) -> Replacement:
        """Run a reinsertion walk (two-phase arrays), then verify it."""
        self._note("reinsert", address)
        repl = self._inner.build_reinsertion(address)
        self.check_walk(repl)
        return repl

    def commit_replacement(self, repl: Replacement, node: int) -> CommitResult:
        """Commit, then verify conservation and relocation-path state."""
        return self._commit("commit", repl, node)

    def commit_reinsertion(self, repl: Replacement, node: int) -> CommitResult:
        """Commit a reinsertion move, then run the phase/state checks."""
        return self._commit("commit-reinsert", repl, node)

    def evict_address(self, address: int) -> None:
        """Forcibly evict, then verify the block is fully gone."""
        self._note("evict", address)
        self._inner.evict_address(address)
        self._run(_EVICT, EvictCheck(self._inner, address))
        self._after_mutation()

    # -- checks ----------------------------------------------------------------
    def _after_mutation(self) -> None:
        self._mutations += 1
        if self._deep_interval and self._mutations % self._deep_interval == 0:
            self.deep_check()

    def check_walk(self, repl: Replacement) -> None:
        """Verify a walk record is well-formed against current state.

        Reports the first broken node; at one node, the earliest
        registered invariant. Public so tests can feed hand-corrupted
        records directly.
        """
        self.checks_run += 1
        ctx = WalkCheck(self._inner, repl)
        failed = None
        for check, kind, name in _WALK:
            hit = check(ctx)
            if hit is not None:
                # Later invariants only win on an earlier node.
                ctx.end = hit[0]
                failed = kind, hit[1], name
        if failed is not None:
            self._fail(failed[0], failed[1], invariant=failed[2])

    def _commit(self, op: str, repl: Replacement, node: int) -> CommitResult:
        """One commit attempt under the two-phase staleness/atomicity
        invariants; a successful replacement commit also gets the
        commit-scope invariants.

        A rejected commit (a ``RuntimeError``) additionally gets a full
        state scan: stale-path rejections are rare (``stale_retries``
        counts them), and the atomicity contract is precisely that a
        rejection leaves a *consistent* array behind for the retry walk.
        """
        self._note(op, repl.incoming)
        inner = self._inner
        before = len(inner)
        was_resident = repl.incoming in inner
        stale = stale_path_detail(inner, repl, node)
        commit = (
            inner.commit_replacement if op == "commit"
            else inner.commit_reinsertion
        )
        error: Optional[RuntimeError] = None
        try:
            result = commit(repl, node)
        except RuntimeError as exc:
            error = exc
        if error is None and op == "commit":
            self.checks_run += 1
            self._run(
                _COMMIT,
                CommitCheck(inner, repl, node, result, before, was_resident),
            )
        self._run(_PHASE, PhaseCheck(
            inner,
            repl,
            node,
            stale_detail=stale,
            error=error,
            len_before=before,
            len_after=len(inner),
            incoming_resident_before=was_resident,
            incoming_resident_after=repl.incoming in inner,
        ))
        if error is not None:
            self.deep_check()
            raise error
        self._after_mutation()
        return result

    def deep_check(self) -> None:
        """Full O(cache) scan: map↔lines sync, tag uniqueness, hashing."""
        self.deep_scans += 1
        self._run(_STATE, StateCheck(self._inner))

    def final_check(self) -> None:
        """Deep scan to run once at end of experiment (always O(cache))."""
        self.deep_check()

