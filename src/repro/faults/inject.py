"""Fault injectors: seeded, replayable corruption of cache machinery.

A fault is data: a :class:`FaultEvent` (kind, trigger time, location
hints). Trigger times are access indices into the replay's
deterministic address stream: ``at=k`` fires just before access ``k``.
Location hints (``way``/``index``/``bit``) are taken modulo whatever the
target structure's size happens to be at fire time, so an event written
for one geometry stays meaningful on another.

The six fault kinds and the machinery each one corrupts:

====================  ====================================================
kind                  corrupted structure
====================  ====================================================
``tag-flip``          one resident line's stored tag (bit flip), the
                      position map left stale — a latent corruption
``stale-walk``        a candidate record in a freshly built walk (the
                      walk "serves" contents the array does not hold)
``drop-relocation``   one relocation of a commit never lands: the moved
                      block vanishes from lines and map
``misdirect-relocation``  one relocation lands at the wrong index of
                      its way
``stamp-corrupt``     an LRU/FIFO timestamp is zeroed — the policy's
                      recency order silently inverts for that block
``drop-eviction-log`` one ZServe eviction-log record is dropped, so the
                      shard never evicts the payload
====================  ====================================================

The first four target array state and are the ZSpec registry's prey;
``stamp-corrupt`` is deliberately *outside* every registered
invariant's reach (policy state is not array state) — the planted
detector miss; ``drop-eviction-log`` targets the serve layer and is
caught by the shard's payload/residency consistency check.

Three cooperating pieces turn a list of events into actual damage:

- :class:`FaultInjector` owns the schedule. The replay harness calls
  :meth:`FaultInjector.advance` once before every access; events whose
  trigger time has arrived either fire immediately (``tag-flip``,
  ``stamp-corrupt`` mutate state between accesses, exactly where a
  particle strike lands in hardware) or *arm* and fire inside the next
  matching operation (walk, relocating commit, eviction).
- :class:`FaultyArray` is an attribute-forwarding proxy (it shares
  :class:`~repro.core.base.ArrayProxy` with
  :class:`~repro.analysis.sanitizer.SanitizedArray`), inserted *under*
  the sanitizer: ``SanitizedArray(FaultyArray(array))``. It applies
  armed walk corruption to the walk records it returns and armed
  relocation corruption right after the commits it forwards — so the
  sanitizer observes the faulted array exactly as it would observe a
  buggy one. With no injector armed it is a pure pass-through, and
  with ``faults=None`` the harness skips it entirely (bit-identical).
- :func:`record_evictions` interposes on one call — the controller's
  eviction choke point (:meth:`~repro.core.controller.Cache._evict`) —
  to record the victim stream and, when armed, to let one eviction
  bypass the serve shard's payload drop: the real policy still
  learns, the shard's payload bookkeeping does not.

Corruption is applied only to *state between operations* or to
*returned walk results* — never inside candidate collection itself —
so the two-phase purity contract (walks are read-only,
``tests/core/test_walk_readonly.py``) holds for the faulty stack just
as it does for the real one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.analysis.spec import path_nodes
from repro.core.base import (
    ArrayProxy,
    CacheArray,
    CommitResult,
    Position,
    Replacement,
)
from repro.core.controller import Cache

__all__ = [
    "ARRAY_FAULT_KINDS",
    "FAULT_KINDS",
    "POLICY_FAULT_KINDS",
    "SERVE_FAULT_KINDS",
    "TAG_BITS",
    "FaultEvent",
    "FaultInjector",
    "FaultyArray",
    "record_evictions",
]

#: width of the modelled tag, for ``tag-flip`` bit selection
TAG_BITS = 20

#: faults applied to cache-array state or walk results
ARRAY_FAULT_KINDS = (
    "tag-flip",
    "stale-walk",
    "drop-relocation",
    "misdirect-relocation",
)

#: faults applied to replacement-policy state (invisible to ZSpec)
POLICY_FAULT_KINDS = ("stamp-corrupt",)

#: faults applied to the serve layer's eviction accounting
SERVE_FAULT_KINDS = ("drop-eviction-log",)

#: every fault kind the injector understands
FAULT_KINDS = ARRAY_FAULT_KINDS + POLICY_FAULT_KINDS + SERVE_FAULT_KINDS


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled corruption.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    at:
        Access index the event fires before (``0`` = before the first
        access). Walk/commit kinds *arm* at this point and fire on the
        next walk (``stale-walk``), the next relocating commit
        (``drop-relocation``/``misdirect-relocation``) or the next
        eviction (``drop-eviction-log``).
    way / index / bit:
        Location hints, reduced modulo the live structure's size at
        fire time (ways, lines or entries, tag bits respectively).
    """

    kind: str
    at: int
    way: int = 0
    index: int = 0
    bit: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        if self.at < 0:
            raise ValueError(f"trigger time must be >= 0, got {self.at}")
        if self.way < 0 or self.index < 0 or self.bit < 0:
            raise ValueError("location hints must be >= 0")


class FaultInjector:
    """Drives a schedule of events through one replay, in ``at`` order.

    The injector is purely schedule-driven — location hints in the
    events pick targets by modular arithmetic over live structure
    sizes, so no RNG is involved and a replayed schedule always damages
    the same state.
    """

    def __init__(self, events: Iterable[FaultEvent]) -> None:
        self._pending = sorted(events, key=lambda event: event.at)
        self._cursor = 0
        self._op = 0
        self._armed_walk: list[FaultEvent] = []
        self._armed_commit: list[FaultEvent] = []
        self._armed_log: list[FaultEvent] = []
        #: ``(op index, event, applied)`` for every event reaching its
        #: trigger; ``applied=False`` records a fizzle (no viable target)
        self.fired: list[tuple[int, FaultEvent, bool]] = []

    # -- schedule ------------------------------------------------------------
    def advance(
        self, array: Optional[CacheArray] = None, policy: object = None
    ) -> None:
        """Fire/arm every event due at the current access index."""
        op = self._op
        pending = self._pending
        while self._cursor < len(pending) and pending[self._cursor].at <= op:
            event = pending[self._cursor]
            self._cursor += 1
            if event.kind == "tag-flip":
                self.fired.append((op, event, self._flip_tag(array, event)))
            elif event.kind == "stamp-corrupt":
                self.fired.append(
                    (op, event, self._corrupt_stamp(policy, event))
                )
            elif event.kind == "stale-walk":
                self._armed_walk.append(event)
            elif event.kind in ("drop-relocation", "misdirect-relocation"):
                self._armed_commit.append(event)
            else:  # drop-eviction-log
                self._armed_log.append(event)
        self._op = op + 1

    @property
    def exhausted(self) -> bool:
        """True once every event has fired (nothing armed, nothing due)."""
        return (
            self._cursor >= len(self._pending)
            and not self._armed_walk
            and not self._armed_commit
            and not self._armed_log
        )

    # -- between-access faults ----------------------------------------------
    def _flip_tag(self, array: Optional[CacheArray], event: FaultEvent) -> bool:
        """Flip one bit of one resident tag; the map goes stale."""
        if array is None:
            return False
        ways = array.num_ways
        lines = array.lines_per_way
        start_way = event.way % ways
        start_index = event.index % lines
        for w in range(ways):
            way = (start_way + w) % ways
            row = array._lines[way]
            for i in range(lines):
                index = (start_index + i) % lines
                addr = row[index]
                if addr is None:
                    continue
                row[index] = addr ^ (1 << (event.bit % TAG_BITS))
                return True
        return False

    def _corrupt_stamp(self, policy: object, event: FaultEvent) -> bool:
        """Zero one LRU/FIFO timestamp: that block becomes oldest."""
        stamps = getattr(policy, "_stamp", None)
        if not stamps:
            return False
        keys = list(stamps)
        target = keys[-(1 + event.index % len(keys))]
        stamps[target] = 0
        return True

    # -- armed faults (consumed by the wrappers) ------------------------------
    def corrupt_walk(self, repl: Replacement) -> None:
        """Rewrite one node's recorded address (armed stale-walk).

        The rewrite lands in the record itself, which is what the
        controller picks from and commits.
        """
        addresses = repl.addresses
        if not self._armed_walk or not addresses:
            return
        event = self._armed_walk.pop(0)
        i = event.index % len(addresses)
        recorded = addresses[i]
        if recorded is None:
            # A stale record of a block that is not there.
            addresses[i] = (repl.incoming ^ (1 << (event.bit % TAG_BITS))) | 1
        else:
            addresses[i] = recorded ^ (1 << (event.bit % TAG_BITS))
        self.fired.append((self._op, event, True))

    def corrupt_commit(
        self, array: CacheArray, repl: Replacement, node: int
    ) -> None:
        """Damage one relocation of the just-committed path of node
        ``node`` (armed kinds).

        The event stays armed across non-relocating commits (a
        set-associative or skew array never relocates, so the fault
        physically cannot fire there — by design).
        """
        if not self._armed_commit:
            return
        path = list(path_nodes(repl, node))
        if len(path) < 2:
            return
        event = self._armed_commit.pop(0)
        hop = event.index % (len(path) - 1)
        dest = Position(repl.ways[path[hop]], repl.indices[path[hop]])
        moved = repl.addresses[path[hop + 1]]
        assert moved is not None, "internal walk nodes always hold a block"
        wrong = (dest.index + 1 + event.bit) % array.lines_per_way
        if event.kind == "misdirect-relocation" and wrong != dest.index:
            array._lines[dest.way][dest.index] = None
            array._lines[dest.way][wrong] = moved
            array._pos[moved] = Position(dest.way, wrong)
        else:
            # drop-relocation (or a misdirect with nowhere else to go):
            # the write never lands anywhere.
            array._lines[dest.way][dest.index] = None
            array._pos.pop(moved, None)
        self.fired.append((self._op, event, True))

    def take_log_drop(self) -> bool:
        """Consume one armed ``drop-eviction-log`` event, if any."""
        if not self._armed_log:
            return False
        event = self._armed_log.pop(0)
        self.fired.append((self._op, event, True))
        return True


class FaultyArray(ArrayProxy):
    """Fault-applying proxy around a :class:`CacheArray`.

    Attribute reads and writes not intercepted here forward to the
    inner array (:class:`~repro.core.base.ArrayProxy`: the stack must
    duck-type as the array it wraps). Stacked as
    ``SanitizedArray(FaultyArray(array))`` the sanitizer checks the
    *faulted* view — the detector sees what a buggy array would show.
    """

    _OWN = frozenset({"_injector"})

    #: what the sanitizer reads for every walk node and state scan: bound
    #: once by the array's constructor and only mutated in place, so the
    #: proxy holds the same objects and a read skips the forwarding
    #: ``__getattr__`` (170k of them made a Z4/52 replay 1.7x slower)
    _ALIASED = ("_lines", "_pos", "num_ways", "lines_per_way", "hashes")

    def __init__(self, array: CacheArray, injector: FaultInjector) -> None:
        super().__init__(array)
        self._injector = injector
        for name in self._ALIASED:
            if hasattr(array, name):
                object.__setattr__(self, name, getattr(array, name))

    # -- intercepted operations ----------------------------------------------
    def build_replacement(self, address: int) -> Replacement:
        """Forward the walk, then apply any armed candidate corruption."""
        repl = self._inner.build_replacement(address)
        self._injector.corrupt_walk(repl)
        return repl

    def build_reinsertion(self, address: int) -> Replacement:
        """Forward a reinsertion walk, then apply armed corruption."""
        repl = self._inner.build_reinsertion(address)
        self._injector.corrupt_walk(repl)
        return repl

    def commit_replacement(self, repl: Replacement, node: int) -> CommitResult:
        """Forward the commit, then damage one relocation if armed."""
        result = self._inner.commit_replacement(repl, node)
        self._injector.corrupt_commit(self._inner, repl, node)
        return result

    def commit_reinsertion(self, repl: Replacement, node: int) -> CommitResult:
        """Forward a reinsertion commit, then damage it if armed."""
        result = self._inner.commit_reinsertion(repl, node)
        self._injector.corrupt_commit(self._inner, repl, node)
        return result


def record_evictions(
    cache: Cache, injector: Optional[FaultInjector] = None
) -> list[int]:
    """Interpose on ``cache``'s eviction choke point; returns the live
    list every replacement victim is appended to.

    With an injector, an armed ``drop-eviction-log`` event sends one
    victim through the plain controller routine instead of the cache's
    own — for a serve shard's cache that skips the payload drop, which
    is exactly the desync the shard's consistency check exists to catch.
    """
    victims: list[int] = []
    evict = cache._evict

    def recording(victim: int) -> bool:
        victims.append(victim)
        if injector is not None and injector.take_log_drop():
            return Cache._evict(cache, victim)
        return evict(victim)

    cache._evict = recording  # type: ignore[method-assign]
    return victims
