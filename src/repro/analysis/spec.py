"""ZSpec: the declarative invariant registry for cache arrays.

Every correctness property the reproduction relies on — walk-tree
well-formedness, map↔array synchronization, tag uniqueness, block
conservation, and the two-phase protocol's staleness/atomicity
contract — lives here as a named :class:`Invariant` with a
machine-checkable predicate. Three backends consume the registry:

- :class:`~repro.analysis.sanitizer.SanitizedArray` is a thin runtime
  driver: it builds the scope-appropriate check context around each
  intercepted array operation and raises
  :class:`~repro.analysis.sanitizer.InvariantViolation` for the first
  invariant whose predicate reports a violation.
- :mod:`repro.analysis.modelcheck` exhaustively enumerates access
  sequences over tiny geometries and evaluates every state-scope
  invariant (plus reference↔turbo bit-identity) at each step.
- :mod:`repro.faults` reuses the registry as its detector vocabulary:
  an injected fault is *detected* when some registered invariant fires.

Invariants are grouped by *scope* — the operation whose aftermath they
constrain:

``walk``
    A freshly built replacement/reinsertion walk record. A walk
    predicate loops over the nodes itself and returns ``(node,
    detail)`` for the first broken one.
``commit``
    The state right after a successful ``commit_replacement``.
``evict``
    The state right after ``evict_address``.
``state``
    Whole-array consistency, checkable at any quiescent point.
``phase``
    One observed commit *attempt* (two-phase protocol): a commit must
    reject stale walk paths, and a rejected commit must not corrupt
    state (paper Section III-D's benign-race restart discipline).
``thread``
    One observed shared-field access or lock acquisition in the serve
    layer, evaluated by the lockset sanitizer
    (:mod:`repro.analysis.lockset`): shared-modified fields must keep
    a non-empty candidate lockset, and observed acquisitions must
    form no cycle.

Checks are pure observers: they never mutate the array, and they
return a human-readable detail string on violation (``None`` when the
invariant holds). The registry preserves definition order. A walk
violation is reported at the first broken node, and two invariants
broken at the same node report the earlier-defined one; tests that
plant a single corruption rely on that precedence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Set, Tuple

from repro.core.base import CacheArray, CommitResult, Position, Replacement

#: The invariant classes a violation is tagged with. The first eleven
#: predate the registry (SanitizedArray's original taxonomy);
#: ``phase-stale``/``commit-order`` cover the two-phase protocol's
#: staleness and atomicity contract; ``lockset-race``/``lock-order``
#: cover the serve layer's threading discipline (the lockset
#: sanitizer).
VIOLATION_KINDS = (
    "walk-cycle",
    "walk-level",
    "walk-parent",
    "walk-repeat",
    "walk-stale",
    "walk-bounds",
    "walk-hash",
    "map-desync",
    "duplicate-tag",
    "hash-placement",
    "conservation",
    "phase-stale",
    "commit-order",
    "lockset-race",
    "lock-order",
)

SCOPE_WALK = "walk"
SCOPE_COMMIT = "commit"
SCOPE_EVICT = "evict"
SCOPE_STATE = "state"
SCOPE_PHASE = "phase"
SCOPE_THREAD = "thread"

#: what a walk-scope predicate returns: ``(node, detail)`` or None
WalkHit = Optional[Tuple[int, str]]

#: valid values for :attr:`Invariant.scope`
SCOPES = (
    SCOPE_WALK,
    SCOPE_COMMIT,
    SCOPE_EVICT,
    SCOPE_STATE,
    SCOPE_PHASE,
    SCOPE_THREAD,
)


def path_nodes(repl: Replacement, node: int) -> Iterator[int]:
    """Node ``node`` and its ancestors up ``repl.parents``, root last.

    Yields at most one node per record entry, so a corrupted cyclic
    parent list cannot hang a checker.
    """
    parents = repl.parents
    for _ in range(len(repl.addresses)):
        yield node
        node = -1 if parents is None else parents[node]
        if node < 0:
            return


# ---------------------------------------------------------------------------
# Check contexts: one per scope, built by the driver around an operation.
# ---------------------------------------------------------------------------


class WalkCheck:
    """Context for ``walk``-scope invariants: one whole walk record.

    Built once per record. Each walk invariant loops over nodes
    ``0 .. end - 1`` itself and reports the first one it finds broken;
    the sanitizer lowers ``end`` to a failing node so that later
    invariants only look for an earlier one.
    """

    __slots__ = ("array", "repl", "hashes", "end")

    def __init__(self, array: CacheArray, repl: Replacement) -> None:
        self.array = array
        self.repl = repl
        self.hashes = getattr(array, "hashes", None)
        #: nodes ``0 .. end - 1`` are the ones still to check
        self.end = len(repl.addresses)

    def position(self, node: int) -> Position:
        """Where node ``node`` of the record sits."""
        return Position(self.repl.ways[node], self.repl.indices[node])


class CommitCheck:
    """Context for ``commit``-scope invariants: one finished commit of
    node ``node`` of ``repl``."""

    def __init__(
        self,
        array: CacheArray,
        repl: Replacement,
        node: int,
        result: CommitResult,
        len_before: int,
        was_resident: bool,
    ) -> None:
        self.array = array
        self.repl = repl
        self.node = node
        self.result = result
        self.len_before = len_before
        self.was_resident = was_resident
        #: the committed path, ``node`` first and the root (the
        #: level-0 end, where the incoming block lands) last
        self.path = list(path_nodes(repl, node))

    def position(self, node: int) -> Position:
        """Where node ``node`` of the committed record sits."""
        return Position(self.repl.ways[node], self.repl.indices[node])


class EvictCheck:
    """Context for ``evict``-scope invariants: one forced eviction."""

    def __init__(self, array: CacheArray, address: int) -> None:
        self.array = array
        self.address = address


class StateCheck:
    """Context for ``state``-scope invariants: whole-array consistency."""

    def __init__(self, array: CacheArray) -> None:
        self.array = array

    def cells(self) -> Iterator[Tuple[Position, int]]:
        """Every occupied line as ``(position, address)``, way-major."""
        array = self.array
        for way in range(array.num_ways):
            line = array._lines[way]
            for index in range(array.lines_per_way):
                addr = line[index]
                if addr is not None:
                    yield Position(way, index), addr


class PhaseCheck:
    """Context for ``phase``-scope invariants: one commit *attempt*.

    Built by the driver around ``commit_replacement`` /
    ``commit_reinsertion`` of node ``node`` of ``repl``, whether the
    inner commit succeeded (``error is None``) or raised a
    ``RuntimeError``. ``stale_detail`` records — *before* the attempt —
    whether the node's path had gone stale, judged as the array's own
    guard judges it (:func:`stale_path_detail`).
    """

    def __init__(
        self,
        array: CacheArray,
        repl: Replacement,
        node: int,
        *,
        stale_detail: Optional[str],
        error: Optional[BaseException],
        len_before: int,
        len_after: int,
        incoming_resident_before: bool,
        incoming_resident_after: bool,
    ) -> None:
        self.array = array
        self.repl = repl
        self.node = node
        self.stale_detail = stale_detail
        self.error = error
        self.len_before = len_before
        self.len_after = len_after
        self.incoming_resident_before = incoming_resident_before
        self.incoming_resident_after = incoming_resident_after


class ThreadCheck:
    """Context for ``thread``-scope invariants: one race observation.

    Built by :class:`~repro.analysis.lockset.LocksetSanitizer` around
    a shared-field access (Eraser-style state machine) or a lock
    acquisition (order graph). Exactly one of the two shapes is
    populated: field observations carry ``state``/``lockset``/
    ``threads`` with ``cycle is None``; acquisition observations carry
    the offending ``cycle`` path.
    """

    __slots__ = ("field", "op", "state", "lockset", "threads", "cycle")

    def __init__(
        self,
        *,
        field: str = "",
        op: str = "",
        state: str = "",
        lockset: frozenset = frozenset(),
        threads: int = 0,
        cycle: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.field = field
        self.op = op
        self.state = state
        self.lockset = lockset
        self.threads = threads
        self.cycle = cycle


def stale_path_detail(
    array: CacheArray, repl: Replacement, node: int
) -> Optional[str]:
    """Why node ``node``'s recorded path is stale, or None if accurate.

    Follows ``repl.parents`` from ``node`` to its root and compares each
    line with the block the walk recorded there — the standard the
    array's own commit guard applies, written out independently so the
    ``phase-stale`` invariant catches a guard that stops applying it.
    """
    lines = array._lines
    for j in path_nodes(repl, node):
        way, index = repl.ways[j], repl.indices[j]
        if lines[way][index] != repl.addresses[j]:
            return (
                f"position {Position(way, index)} no longer holds "
                f"{repl.addresses[j]!r}"
            )
    return None


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Invariant:
    """One named, machine-checkable correctness property.

    Attributes
    ----------
    name:
        Unique registry key (kebab-case).
    kind:
        The :data:`VIOLATION_KINDS` entry a failure is tagged with.
    scope:
        Which check context the predicate consumes (:data:`SCOPES`).
    description:
        One-line statement of the property, quotable in reports.
    check:
        Predicate: context -> detail string on violation (walk scope:
        ``(node, detail)``), else None.
    """

    name: str
    kind: str
    scope: str
    description: str
    check: Callable[..., Any]


#: name -> invariant, in definition (= historical check) order
INVARIANT_REGISTRY: "dict[str, Invariant]" = {}


def register_invariant(
    name: str, kind: str, scope: str, description: str
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator registering a check function as a named invariant."""
    if kind not in VIOLATION_KINDS:
        raise ValueError(f"unknown violation kind: {kind!r}")
    if scope not in SCOPES:
        raise ValueError(f"unknown invariant scope: {scope!r}")

    def deco(fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in INVARIANT_REGISTRY:
            raise ValueError(f"duplicate invariant name: {name!r}")
        INVARIANT_REGISTRY[name] = Invariant(
            name=name, kind=kind, scope=scope, description=description,
            check=fn,
        )
        return fn

    return deco


def default_invariants() -> Tuple[Invariant, ...]:
    """Every registered invariant, in definition order."""
    return tuple(INVARIANT_REGISTRY.values())


def invariants_for(scope: str) -> Tuple[Invariant, ...]:
    """The registered invariants of one scope, in definition order."""
    if scope not in SCOPES:
        raise ValueError(f"unknown invariant scope: {scope!r}")
    return tuple(
        inv for inv in INVARIANT_REGISTRY.values() if inv.scope == scope
    )


# ---------------------------------------------------------------------------
# Walk-scope invariants: each returns ``(node, detail)`` for the first
# broken node before ``ctx.end``, else None.
# ---------------------------------------------------------------------------


@register_invariant(
    "walk-in-bounds", "walk-bounds", SCOPE_WALK,
    "every candidate position lies inside the array geometry",
)
def _walk_in_bounds(ctx: WalkCheck) -> WalkHit:
    num_ways, lines = ctx.array.num_ways, ctx.array.lines_per_way
    repl = ctx.repl
    for node in range(ctx.end):
        if not (
            0 <= repl.ways[node] < num_ways
            and 0 <= repl.indices[node] < lines
        ):
            return node, f"candidate position {ctx.position(node)} out of bounds"
    return None


@register_invariant(
    "walk-acyclic", "walk-cycle", SCOPE_WALK,
    "every parent link points to an earlier node, so ancestor chains are "
    "acyclic and terminate at a root",
)
def _walk_acyclic(ctx: WalkCheck) -> WalkHit:
    parents = ctx.repl.parents
    if parents is None:
        return None
    for node in range(ctx.end):
        if parents[node] >= node:
            return node, (
                f"candidate {node} at {ctx.position(node)} names node "
                f"{parents[node]} as its parent, which does not precede it "
                "(the ancestor chain can cycle)"
            )
    return None


@register_invariant(
    "walk-level-monotone", "walk-level", SCOPE_WALK,
    "roots sit at level 0, levels increase by exactly one per link, and "
    "a plan without parent links holds only roots",
)
def _walk_level_monotone(ctx: WalkCheck) -> WalkHit:
    repl = ctx.repl
    parents, level = repl.parents, repl.level
    for node in range(ctx.end):
        lvl = level(node)
        parent = -1 if parents is None else parents[node]
        if parent < 0:
            if lvl == 0:
                continue
            if parents is None:
                return node, (
                    f"plan has no parent links (every node a root) but the "
                    f"candidate at {ctx.position(node)} sits at level {lvl}"
                )
            return node, (
                f"root candidate at {ctx.position(node)} has level "
                f"{lvl}, expected 0"
            )
        parent_level = level(parent)
        if lvl != parent_level + 1:
            return node, (
                f"candidate at {ctx.position(node)} has level {lvl} "
                f"but its parent has level {parent_level}"
            )
    return None


@register_invariant(
    "walk-parent-occupied", "walk-parent", SCOPE_WALK,
    "only occupied slots are expanded into deeper candidates",
)
def _walk_parent_occupied(ctx: WalkCheck) -> WalkHit:
    repl = ctx.repl
    parents, addresses = repl.parents, repl.addresses
    if parents is None:
        return None
    for node in range(ctx.end):
        parent = parents[node]
        if parent >= 0 and addresses[parent] is None:
            return node, (
                f"candidate at {ctx.position(node)} expands an empty slot at "
                f"({repl.ways[parent]}, {repl.indices[parent]})"
            )
    return None


@register_invariant(
    "walk-path-distinct", "walk-repeat", SCOPE_WALK,
    "a valid candidate's relocation path never revisits a position",
)
def _walk_path_distinct(ctx: WalkCheck) -> WalkHit:
    repl = ctx.repl
    parents = repl.parents
    if parents is None:
        return None
    invalid = repl.invalid or ()
    ways, indices = repl.ways, repl.indices
    for node in range(ctx.end):
        if node in invalid:
            continue
        lines = [(ways[node], indices[node])]
        child, parent = node, parents[node]
        # Only links to earlier nodes: ends even where walk-acyclic fails.
        while 0 <= parent < child:
            lines.append((ways[parent], indices[parent]))
            child, parent = parent, parents[parent]
        if len(set(lines)) != len(lines):
            return node, (
                f"valid candidate at {ctx.position(node)} has a relocation "
                "path that revisits a position (must be flagged invalid)"
            )
    return None


@register_invariant(
    "walk-records-current", "walk-stale", SCOPE_WALK,
    "recorded candidate contents match the array (walks do not mutate)",
)
def _walk_records_current(ctx: WalkCheck) -> WalkHit:
    repl = ctx.repl
    lines = ctx.array._lines
    ways, indices, addresses = repl.ways, repl.indices, repl.addresses
    for node in range(ctx.end):
        actual = lines[ways[node]][indices[node]]
        if actual != addresses[node]:
            return node, (
                f"candidate records {addresses[node]!r} at "
                f"{ctx.position(node)} but the array holds {actual!r}"
            )
    return None


@register_invariant(
    "walk-hash-discipline", "walk-hash", SCOPE_WALK,
    "each candidate sits at its way's hash of the relocating address",
)
def _walk_hash_discipline(ctx: WalkCheck) -> WalkHit:
    hashes = ctx.hashes
    if hashes is None:
        return None
    repl = ctx.repl
    parents, addresses = repl.parents, repl.addresses
    for node in range(ctx.end):
        parent = -1 if parents is None else parents[node]
        source = addresses[parent] if parent >= 0 else repl.incoming
        if source is None:
            continue
        way = repl.ways[node]
        expected = hashes[way](source)
        if repl.indices[node] != expected:
            return node, (
                f"candidate at {ctx.position(node)} is not the way-{way} "
                f"hash of {source:#x} (expected index {expected})"
            )
    return None


# ---------------------------------------------------------------------------
# Commit-scope invariants.
# ---------------------------------------------------------------------------


@register_invariant(
    "commit-conservation", "conservation", SCOPE_COMMIT,
    "a commit changes the resident count by install minus eviction",
)
def _commit_conservation(ctx: CommitCheck) -> Optional[str]:
    expected = ctx.len_before + (0 if ctx.was_resident else 1)
    if ctx.result.evicted is not None:
        expected -= 1
    if len(ctx.array) != expected:
        return (
            f"resident count {len(ctx.array)} after commit, expected "
            f"{expected} (before={ctx.len_before}, "
            f"evicted={ctx.result.evicted!r})"
        )
    return None


@register_invariant(
    "commit-evicted-gone", "conservation", SCOPE_COMMIT,
    "the evicted block is fully removed by its commit",
)
def _commit_evicted_gone(ctx: CommitCheck) -> Optional[str]:
    evicted = ctx.result.evicted
    if evicted is not None and ctx.array.lookup(evicted) is not None:
        return f"evicted block {evicted:#x} is still resident"
    return None


@register_invariant(
    "commit-incoming-resident", "conservation", SCOPE_COMMIT,
    "the incoming block is resident after its commit",
)
def _commit_incoming_resident(ctx: CommitCheck) -> Optional[str]:
    if ctx.array.lookup(ctx.repl.incoming) is None:
        return (
            f"incoming block {ctx.repl.incoming:#x} not resident after "
            "commit"
        )
    return None


@register_invariant(
    "commit-root-placement", "map-desync", SCOPE_COMMIT,
    "the incoming block lands at the relocation path's root position",
)
def _commit_root_placement(ctx: CommitCheck) -> Optional[str]:
    pos = ctx.array.lookup(ctx.repl.incoming)
    root = ctx.position(ctx.path[-1])
    if pos is not None and pos != root:
        return (
            f"incoming block {ctx.repl.incoming:#x} at {pos}, expected "
            f"the path root {root}"
        )
    return None


@register_invariant(
    "commit-path-placement", "map-desync", SCOPE_COMMIT,
    "every relocated block moved exactly one step down the path",
)
def _commit_path_placement(ctx: CommitCheck) -> Optional[str]:
    path = ctx.path
    for child, parent in zip(path, path[1:]):
        moved = ctx.repl.addresses[parent]
        target = ctx.position(child)
        if moved is not None and ctx.array.lookup(moved) != target:
            return f"relocated block {moved:#x} is not at {target} after commit"
    return None


# ---------------------------------------------------------------------------
# Evict-scope invariants.
# ---------------------------------------------------------------------------


@register_invariant(
    "evict-clears-map", "map-desync", SCOPE_EVICT,
    "a forced eviction removes the block from the position map",
)
def _evict_clears_map(ctx: EvictCheck) -> Optional[str]:
    if ctx.array.lookup(ctx.address) is not None:
        return f"evicted block {ctx.address:#x} still resolves in the map"
    return None


# ---------------------------------------------------------------------------
# State-scope invariants (whole-array scans).
# ---------------------------------------------------------------------------


@register_invariant(
    "state-tag-unique", "duplicate-tag", SCOPE_STATE,
    "no block address is stored in more than one line",
)
def _state_tag_unique(ctx: StateCheck) -> Optional[str]:
    seen: "dict[int, Position]" = {}
    for pos, addr in ctx.cells():
        if addr in seen:
            return f"block {addr:#x} stored at both {seen[addr]} and {pos}"
        seen[addr] = pos
    return None


@register_invariant(
    "state-map-line-sync", "map-desync", SCOPE_STATE,
    "the address→position map and the line arrays agree exactly",
)
def _state_map_line_sync(ctx: StateCheck) -> Optional[str]:
    stored: Set[int] = set()
    for pos, addr in ctx.cells():
        stored.add(addr)
        mapped = ctx.array._pos.get(addr)
        if mapped != pos:
            return (
                f"line {pos} holds {addr:#x} but the map says {mapped!r}"
            )
    stale = set(ctx.array._pos) - stored
    if stale:
        addr = next(iter(stale))
        return (
            f"map entry {addr:#x} -> {ctx.array._pos[addr]} points at a "
            "line that does not hold it"
        )
    return None


@register_invariant(
    "state-hash-placement", "hash-placement", SCOPE_STATE,
    "every resident block sits at its way's hash of its address",
)
def _state_hash_placement(ctx: StateCheck) -> Optional[str]:
    hashes = getattr(ctx.array, "hashes", None)
    if hashes is None:
        return None
    for addr, pos in ctx.array._pos.items():
        expected = hashes[pos.way](addr)
        if pos.index != expected:
            return (
                f"block {addr:#x} at index {pos.index} of way {pos.way}, "
                f"but hashes to {expected}"
            )
    return None


# ---------------------------------------------------------------------------
# Phase-scope invariants (two-phase staleness / atomicity contract).
# ---------------------------------------------------------------------------


@register_invariant(
    "twophase-stale-path-guard", "phase-stale", SCOPE_PHASE,
    "a commit over a stale walk path must be rejected, never applied",
)
def _twophase_stale_path_guard(ctx: PhaseCheck) -> Optional[str]:
    if ctx.error is None and ctx.stale_detail is not None:
        return (
            f"commit of {ctx.repl.incoming:#x} succeeded on a stale walk "
            f"path: {ctx.stale_detail}"
        )
    return None


@register_invariant(
    "twophase-commit-atomic", "commit-order", SCOPE_PHASE,
    "a rejected commit leaves state unchanged (reinsertion may only "
    "have evicted its own incoming block)",
)
def _twophase_commit_atomic(ctx: PhaseCheck) -> Optional[str]:
    if ctx.error is None:
        return None
    if (
        ctx.len_after == ctx.len_before
        and ctx.incoming_resident_after == ctx.incoming_resident_before
    ):
        return None
    # A reinsertion commit evicts its incoming block before relocating;
    # staleness detected after that prefix legitimately leaves the block
    # out (the controller's retry path re-walks and re-places it).
    if (
        ctx.len_after == ctx.len_before - 1
        and ctx.incoming_resident_before
        and not ctx.incoming_resident_after
    ):
        return None
    return (
        f"rejected commit of {ctx.repl.incoming:#x} mutated state: "
        f"resident count {ctx.len_before} -> {ctx.len_after}, incoming "
        f"resident {ctx.incoming_resident_before} -> "
        f"{ctx.incoming_resident_after}"
    )


# ---------------------------------------------------------------------------
# Thread-scope invariants (the lockset sanitizer).
# ---------------------------------------------------------------------------


@register_invariant(
    "lockset-discipline", "lockset-race", SCOPE_THREAD,
    "a field modified by multiple threads keeps a non-empty candidate "
    "lockset (Eraser's shared-modified rule)",
)
def _lockset_discipline(ctx: ThreadCheck) -> Optional[str]:
    if ctx.cycle is not None:
        return None
    if ctx.state == "shared-modified" and not ctx.lockset:
        return (
            f"field '{ctx.field}' reached shared-modified across "
            f"{ctx.threads} thread(s) with an empty candidate lockset "
            f"(last op: {ctx.op})"
        )
    return None


@register_invariant(
    "lock-order-acyclic", "lock-order", SCOPE_THREAD,
    "observed lock acquisitions never close a cycle in the "
    "acquisition-order graph",
)
def _lock_order_acyclic(ctx: ThreadCheck) -> Optional[str]:
    if ctx.cycle is None:
        return None
    return (
        "lock acquisition closes an order cycle: "
        + " -> ".join(ctx.cycle)
    )
