"""Abstract cache array: lookup, replacement-candidate generation, commit.

The controller/array split mirrors the paper's model (Section IV-A): the
*array* owns block placement and produces a list of replacement
candidates on a miss; the *replacement policy* owns the global eviction
ordering. The array API is a two-phase replacement:

1. :meth:`CacheArray.build_replacement` — collect candidates (for a
   zcache this is the walk; for a set-associative cache, the set) into
   a flat :class:`Replacement` record.
2. :meth:`CacheArray.commit_replacement` — evict the chosen node (an
   index into that record), perform any relocations, and install the
   incoming block.

Positions are ``(way, index)`` pairs; storage is a dense per-way line
array plus an address → position map kept exactly in sync.
"""

from __future__ import annotations

import abc
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    from repro.obs import ObsContext


class Position(NamedTuple):
    """A physical line location: way number and line index within it."""

    way: int
    index: int


@dataclass(slots=True)
class Candidate:
    """One node of a walk record as an object, linked to its ancestors.

    Arrays record candidates flat (:class:`Replacement`) and the miss
    path picks and commits by node index; a ``Candidate`` is only built
    by the record's read-only view (:meth:`Replacement.node`,
    :attr:`Replacement.candidates`) for checkers, figures and tests.

    Attributes
    ----------
    position:
        Where the candidate lives.
    address:
        Resident block address, or ``None`` if the slot is empty (the
        incoming block chain can end here without evicting anything).
    level:
        Walk depth: 0 for first-level candidates. Equals the number of
        relocations committing this candidate costs.
    parent:
        The walk-tree parent; ``None`` at level 0. Committing candidate
        ``c`` moves ``c.parent``'s block into ``c.position``, and so on
        up to the root, whose position receives the incoming block.
    valid:
        False if the relocation path revisits a position (a zcache walk
        repeat that would corrupt relocation); such candidates must not
        be chosen.
    node:
        The node's index in the record the view was read from (-1 when
        built by hand); :meth:`CacheArray.commit_replacement` commits a
        view candidate through it.
    """

    position: Position
    address: Optional[int]
    level: int = 0
    parent: Optional["Candidate"] = None
    valid: bool = True
    node: int = -1


@dataclass(slots=True)
class Replacement:
    """The outcome of a candidate-collection phase for one miss: a flat
    walk record, the paper's walk table of (position, parent) entries.

    Node ``i`` is the line ``(ways[i], indices[i])``, which held
    ``addresses[i]`` when the array read it (``None``: an empty slot).
    ``parents[i]`` is the index of the node whose block moves into node
    ``i``'s line when ``i`` is committed, ``-1`` for a root; ``parents``
    is None when every node is a root (set-associative, skew,
    random-candidates: no relocation can follow). A parent always
    precedes its children, and nodes are appended in non-decreasing
    level order: ``level_starts[l]`` is the first node of level ``l``.
    ``invalid`` holds the zcache nodes whose relocation path revisits a
    line (they must not be committed), or is None when there are none.

    No object is built per node: the controller picks a node index and
    the array commits it. :meth:`node`, :attr:`candidates`,
    :meth:`usable` and :meth:`first_empty` are a read-only view for
    checkers, figures, tests and ZBench's ladder, rebuilt on every
    call; it goes with ROADMAP item 2.
    """

    incoming: int
    ways: list[int] = field(default_factory=list)
    indices: list[int] = field(default_factory=list)
    addresses: list[Optional[int]] = field(default_factory=list)
    parents: Optional[list[int]] = None
    level_starts: Sequence[int] = (0,)
    invalid: Optional[set[int]] = None
    tag_reads: int = 0
    #: True when the walk stopped before reaching its configured depth
    #: (candidate cap hit — the paper's bandwidth-pressure early stop).
    truncated: bool = False
    #: True when *every* resident block is a candidate (fully-associative
    #: arrays). The record may then be left empty; the controller asks
    #: the policy for its global victim instead of enumerating.
    exhaustive: bool = False
    #: The incoming block's line index in each way, when the walk hashed
    #: them (zcache walks do, at level 0): carried to the commit so the
    #: block is not hashed a second time. A memo of the hash family,
    #: not part of the plan's identity.
    homes: Optional[tuple[int, ...]] = field(
        default=None, repr=False, compare=False
    )

    def level(self, i: int) -> int:
        """Walk depth of node ``i``."""
        return bisect_right(self.level_starts, i) - 1

    def level_counts(self) -> tuple[int, ...]:
        """Nodes per level, from level 0 down (none for an empty record)."""
        bounds = [*self.level_starts, len(self.addresses)]
        return tuple(
            end - start for start, end in zip(bounds, bounds[1:]) if end > start
        )

    def node(self, i: int) -> Candidate:
        """Node ``i`` as a :class:`Candidate` linked to its ancestors."""
        chain = [i]
        parents = self.parents
        if parents is not None:
            parent = parents[i]
            while parent >= 0:
                chain.append(parent)
                parent = parents[parent]
        invalid = self.invalid or ()
        ways, indices, addresses = self.ways, self.indices, self.addresses
        cand: Optional[Candidate] = None
        for level, j in enumerate(reversed(chain)):
            cand = Candidate(
                Position(ways[j], indices[j]), addresses[j], level, cand,
                j not in invalid, j,
            )
        assert cand is not None
        return cand

    @property
    def candidates(self) -> list[Candidate]:
        """Every node as a :class:`Candidate`, in record order, parents
        shared. A fresh view per call: edits to it reach nothing."""
        view: list[Candidate] = []
        parents = self.parents
        invalid = self.invalid or ()
        for i, address in enumerate(self.addresses):
            parent = -1 if parents is None else parents[i]
            view.append(
                Candidate(
                    Position(self.ways[i], self.indices[i]), address,
                    self.level(i), view[parent] if parent >= 0 else None,
                    i not in invalid, i,
                )
            )
        return view

    def usable(self) -> list[Candidate]:
        """Candidates safe to commit (valid relocation paths)."""
        return [c for c in self.candidates if c.valid]

    def first_empty(self) -> Optional[Candidate]:
        """Shallowest empty-slot candidate, or None.

        Filling an empty slot needs no eviction; preferring the
        shallowest one minimises relocations. Levels never decrease
        along the record, so that is the first usable one.
        """
        invalid = self.invalid or ()
        for i, address in enumerate(self.addresses):
            if address is None and i not in invalid:
                return self.node(i)
        return None


@dataclass(slots=True)
class CommitResult:
    """What committing a replacement did."""

    evicted: Optional[int]
    relocations: int


class CacheArray(abc.ABC):
    """Base class owning block storage for ``num_ways x lines_per_way``."""

    def __init__(self, num_ways: int, lines_per_way: int) -> None:
        if num_ways < 1:
            raise ValueError(f"num_ways must be >= 1, got {num_ways}")
        if lines_per_way < 1:
            raise ValueError(f"lines_per_way must be >= 1, got {lines_per_way}")
        self.num_ways = num_ways
        self.lines_per_way = lines_per_way
        self.num_blocks = num_ways * lines_per_way
        self._lines: list[list[Optional[int]]] = [
            [None] * lines_per_way for _ in range(num_ways)
        ]
        self._pos: dict[int, Position] = {}

    # -- observability ------------------------------------------------------
    def attach_obs(self, obs: "ObsContext") -> None:
        """Bind this array to an observability context.

        Registers the array's geometry gauges under ``<scope>.array``.
        Subclasses extend this to register their own metrics (the zcache
        re-homes its walk counters under ``<scope>.walk``), which resets
        those counters — attach before use, as
        :class:`~repro.core.controller.Cache` does.
        """
        geometry = obs.metrics.scoped("array")
        geometry.gauge("ways").set(self.num_ways)
        geometry.gauge("lines_per_way").set(self.lines_per_way)
        geometry.gauge("blocks").set(self.num_blocks)

    # -- public interface ---------------------------------------------------
    def lookup(self, address: int) -> Optional[Position]:
        """Position of ``address`` if resident, else None."""
        return self._pos.get(address)

    def still_holds(self, repl: Replacement) -> bool:
        """True when every node's line still holds what was recorded.

        The two-phase freshness check: a prepared walk records
        (way, index, address) triples, and a commit must re-verify every
        one of them against current state before mutating anything.
        """
        lines = self._lines
        for way, index, address in zip(repl.ways, repl.indices, repl.addresses):
            if lines[way][index] != address:
                return False
        return True

    def __contains__(self, address: int) -> bool:
        return address in self._pos

    def __len__(self) -> int:
        """Number of resident blocks."""
        return len(self._pos)

    def resident(self) -> Iterator[int]:
        """Iterate over resident block addresses."""
        return iter(self._pos)

    @property
    def occupancy(self) -> float:
        """Fraction of lines holding a block."""
        return len(self._pos) / self.num_blocks

    def evict_address(self, address: int) -> None:
        """Forcibly remove a block (invalidation / inclusion victim)."""
        pos = self._pos.get(address)
        if pos is None:
            raise KeyError(f"evicting non-resident block {address:#x}")
        self._lines[pos.way][pos.index] = None
        del self._pos[address]

    @abc.abstractmethod
    def build_replacement(self, address: int) -> Replacement:
        """Collect replacement candidates for an incoming block.

        ``address`` must not be resident (that would be a hit).
        """

    @staticmethod
    def _stale(repl: Replacement, node: int) -> RuntimeError:
        """The error for a commit whose node ``node`` went stale: its
        line no longer holds the block the walk recorded there."""
        return RuntimeError(
            f"stale walk path: position "
            f"{Position(repl.ways[node], repl.indices[node])} no longer "
            f"holds {repl.addresses[node]!r}"
        )

    def commit_replacement(
        self, repl: Replacement, node: "int | Candidate"
    ) -> CommitResult:
        """Evict node ``node`` of ``repl`` and relocate its ancestors to
        admit the incoming block.

        One pass up ``repl.parents`` validates the whole path before the
        first write: every line on it must still hold the block the walk
        recorded (an invalidation or the two-phase controller's second
        walk can move them), else ``RuntimeError`` and the array is
        untouched. Then the node's block leaves, each ancestor's block
        moves one line down the path, and the incoming block lands at
        the root. Each move clears the line the map had for the block
        and drops whatever the line it writes still holds: no-ops on a
        consistent array, and what keeps a corrupted one failing the
        way the fault table records. A record without parent links
        (set-associative, skew, random-candidates, fully-associative)
        commits in place.

        ``node`` may also be a view :class:`Candidate`
        (``repl.usable()``, ``first_empty()``), committed through its
        node index: ZBench's frozen ladder commits those. The
        translation goes with the view (ROADMAP item 2).
        """
        if not isinstance(node, int):
            if node.node < 0:
                raise ValueError("a hand-built candidate names no record node")
            node = node.node
        invalid = repl.invalid
        if invalid and node in invalid:
            raise ValueError("cannot commit a candidate with an invalid path")
        incoming = repl.incoming
        pos = self._pos
        if incoming in pos:
            raise RuntimeError(f"incoming block {incoming:#x} already resident")
        lines = self._lines
        ways, indices, addresses = repl.ways, repl.indices, repl.addresses
        parents = repl.parents
        depth = 0
        missing = None
        j = node
        while True:
            block = addresses[j]
            if lines[ways[j]][indices[j]] != block:
                raise self._stale(repl, j)
            if block is not None and block not in pos and missing is None:
                missing = block  # the deepest: its move would fail first
            if parents is None:
                break
            j = parents[j]
            if j < 0:
                break
            depth += 1
        if missing is not None:
            raise KeyError(f"evicting non-resident block {missing:#x}")
        evicted = addresses[node]
        if evicted is not None:
            line = pos.pop(evicted)
            lines[line.way][line.index] = None
        child = node
        for _ in range(depth):
            parent = parents[child]  # type: ignore[index]
            moving = addresses[parent]
            line = pos.pop(moving)  # type: ignore[arg-type]
            lines[line.way][line.index] = None
            way, index = ways[child], indices[child]
            row = lines[way]
            if row[index] is not None:
                del pos[row[index]]  # type: ignore[arg-type]
            row[index] = moving
            pos[moving] = tuple.__new__(Position, (way, index))  # type: ignore[index]
            child = parent
        way, index = ways[child], indices[child]
        row = lines[way]
        if row[index] is not None:
            del pos[row[index]]  # type: ignore[arg-type]
        row[index] = incoming
        pos[incoming] = tuple.__new__(Position, (way, index))
        return CommitResult(evicted, depth)

    def check_invariants(self) -> None:
        """Verify storage consistency (used by property-based tests)."""
        seen: dict[int, Position] = {}
        for way in range(self.num_ways):
            for index in range(self.lines_per_way):
                addr = self._lines[way][index]
                if addr is None:
                    continue
                if addr in seen:
                    raise AssertionError(
                        f"block {addr:#x} stored at both {seen[addr]} and "
                        f"({way},{index})"
                    )
                seen[addr] = Position(way, index)
        if seen != self._pos:
            raise AssertionError("position map out of sync with line storage")


class ArrayProxy:
    """Attribute-forwarding proxy over a :class:`CacheArray`.

    The one forwarding base of the array interposers (the ZSan
    sanitizer, the ZFault injector): a subclass intercepts the
    operations it cares about and everything else — reads *and*
    writes, since controllers tune arrays through attributes such as
    ``candidate_limit`` — reaches the wrapped array, so a stack of
    proxies still duck-types as the array at the bottom.
    """

    #: attributes that live on the proxy itself, not the wrapped array
    _OWN: frozenset[str] = frozenset()

    def __init__(self, array: Any) -> None:
        object.__setattr__(self, "_inner", array)

    @property
    def array(self) -> Any:
        """The wrapped array (for direct inspection)."""
        return self._inner

    def __getattr__(self, name: str) -> Any:
        # The ``__dict__`` lookup (not ``self._inner``) keeps
        # copy/pickle reconstruction safe: those protocols probe
        # dunders on a blank instance before any state is restored,
        # and recursing into ``__getattr__`` for ``_inner`` itself
        # would never terminate.
        inner = self.__dict__.get("_inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    def __setattr__(self, name: str, value: Any) -> None:
        if name in self._OWN or not hasattr(self._inner, name):
            object.__setattr__(self, name, value)
        else:
            setattr(self._inner, name, value)

    def __contains__(self, address: int) -> bool:
        return address in self._inner

    def __len__(self) -> int:
        return len(self._inner)
