"""Abstract cache array: lookup, replacement-candidate generation, commit.

The controller/array split mirrors the paper's model (Section IV-A): the
*array* owns block placement and produces a list of replacement
candidates on a miss; the *replacement policy* owns the global eviction
ordering. The array API is a two-phase replacement:

1. :meth:`CacheArray.build_replacement` — collect candidates (for a
   zcache this is the walk; for a set-associative cache, the set) into
   a flat :class:`Replacement` record.
2. :meth:`CacheArray.commit_replacement` — evict the chosen candidate,
   perform any relocations, and install the incoming block.

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
    from repro.obs.events import TraceBus


class Position(NamedTuple):
    """A physical line location: way number and line index within it."""

    way: int
    index: int


@dataclass(slots=True)
class Candidate:
    """One node of a walk record as an object, linked to its ancestors.

    Arrays record candidates flat (:class:`Replacement`); a
    ``Candidate`` is built only for the node a commit takes
    (:meth:`Replacement.node`) or for a reader of the whole tree
    (:attr:`Replacement.candidates`).

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
        False if the ancestor path revisits a position (a walk repeat
        that would corrupt relocation); such candidates must not be
        chosen.
    """

    position: Position
    address: Optional[int]
    level: int = 0
    parent: Optional["Candidate"] = None
    valid: bool = True

    def path_to_root(self) -> list["Candidate"]:
        """Candidates from self up to (and including) the level-0 root."""
        path = [self]
        node = self
        while node.parent is not None:
            node = node.parent
            path.append(node)
        return path


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
    ``invalid`` holds the nodes whose relocation path revisits a line
    (they must not be committed), or is None when there are none.

    No object is built per node. :meth:`node` builds the one path a
    commit takes; :attr:`candidates`, :meth:`usable` and
    :meth:`first_empty` are a read-only view for checkers, figures and
    tests, rebuilt on every call.
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
        """Node ``i`` as a :class:`Candidate` linked to its ancestors: the
        at most L objects committing it needs."""
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
                j not in invalid,
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
                    i not in invalid,
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
        # ZScope bindings; None/defaults until attach_obs is called.
        self._trace: Optional["TraceBus"] = None
        self._trace_label: str = type(self).__name__

    # -- observability ------------------------------------------------------
    def attach_obs(self, obs: "ObsContext", label: Optional[str] = None) -> None:
        """Bind this array to an observability context.

        Registers the array's geometry gauges under ``<scope>.array`` and
        binds the trace bus so commits emit relocation events. Subclasses
        extend this to register their own metrics (the zcache re-homes
        its walk counters under ``<scope>.walk``), which resets those
        counters — attach before use, as
        :class:`~repro.core.controller.Cache` does.
        """
        self._trace = obs.trace if obs.trace.enabled else None
        self._trace_label = label or obs.label or type(self).__name__
        geometry = obs.metrics.scoped("array")
        geometry.gauge("ways").set(self.num_ways)
        geometry.gauge("lines_per_way").set(self.lines_per_way)
        geometry.gauge("blocks").set(self.num_blocks)

    # -- storage primitives -------------------------------------------------
    def _read(self, pos: Position) -> Optional[int]:
        return self._lines[pos.way][pos.index]

    def _write(self, pos: Position, address: Optional[int]) -> None:
        # Guard before any mutation: rejecting a duplicate after the old
        # block's map entry is dropped would leave the array corrupted
        # exactly when the caller most needs a clean state to retry from
        # (the ZS106 exception-state-safety contract).
        if (
            address is not None
            and self._pos.get(address, pos) != pos
        ):
            raise RuntimeError(
                f"block {address:#x} would be duplicated in the array"
            )
        old = self._lines[pos.way][pos.index]
        if old is not None:
            del self._pos[old]
        self._lines[pos.way][pos.index] = address
        if address is not None:
            self._pos[address] = pos

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

    def check_path(self, chosen: Candidate) -> None:
        """Verify a walk path is still accurate (not stale).

        The walk records (position, address) pairs; any interleaved
        operation — an invalidation, or a second walk's relocations in
        the two-phase controller — can move the recorded blocks. Every
        node on the relocation path must still hold its recorded block,
        or committing would corrupt the array.

        Raises
        ------
        RuntimeError
            If any node on the path went stale.
        """
        lines = self._lines
        node: Optional[Candidate] = chosen
        while node is not None:
            way, index = node.position
            if lines[way][index] != node.address:
                raise RuntimeError(
                    f"stale walk path: position {node.position} no longer "
                    f"holds {node.address!r}"
                )
            node = node.parent

    def commit_replacement(self, repl: Replacement, chosen: Candidate) -> CommitResult:
        """Evict ``chosen`` and relocate its ancestors to admit the block.

        Works for every array type: in arrays without relocation
        (set-associative), candidates are all level 0 and the loop body
        never runs.
        """
        if not chosen.valid:
            raise ValueError("cannot commit a candidate with an invalid path")
        if repl.incoming in self._pos:
            raise RuntimeError(f"incoming block {repl.incoming:#x} already resident")
        self.check_path(chosen)
        evicted = chosen.address
        if evicted is not None:
            self.evict_address(evicted)
        relocations = 0
        trace = self._trace
        node = chosen
        while node.parent is not None:
            parent = node.parent
            moving = parent.address
            assert moving is not None, "internal walk nodes always hold a block"
            # A relocated block moves, it does not leave: detach it with
            # the base primitive so a subclass's departure bookkeeping
            # (the zcache's home-position table) keeps its entry.
            CacheArray.evict_address(self, moving)
            self._write(node.position, moving)
            if trace is not None:
                trace.relocation(
                    self._trace_label, moving, parent.position, node.position,
                    node.level,
                )
            relocations += 1
            node = parent
        self._write(node.position, repl.incoming)
        return CommitResult(evicted=evicted, relocations=relocations)

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
