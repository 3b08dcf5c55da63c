"""The serve layer's race checker: an Eraser-style lockset sanitizer.

This module *watches* the serve layer's locking discipline at run
time (the other guards are narrower:
``tests/core/test_walk_readonly.py`` keeps ``prepare_fill`` — the
off-lock walk — free of writes, lint rule ZS104 keeps ``serve/`` free
of module-level mutable state). A :class:`LocksetSanitizer` instruments
a live :class:`~repro.serve.shard.CacheShard` — its lock, its payload dict,
its recency buffer, and its two-phase zcache — and replays Eraser's
per-field state machine over every observed access::

    virgin → exclusive(owner) → shared / shared-modified

A field's *candidate lockset* starts at ⊤ (``None``: "any lock could
be the guard") and is intersected with the acquiring thread's held
locks at every participating access once the field leaves its
first-owner ``exclusive`` state. A field that reaches
``shared-modified`` with an **empty** candidate lockset is a data
race: two threads mutate it and no common lock protects them.

The shard's sanctioned lock-free idioms are encoded as per-field
*policies*:

``write-locked`` (``_entries``, ``zcache``)
    Lock-free reads are the design (``dict.get`` is GIL-atomic;
    ``prepare_fill`` is a re-validated off-lock read), so reads do
    not participate. Every write does.
``atomic-append`` (``_recency``)
    GIL-atomic ``list.append`` from readers is the design, so appends
    do not participate. Rebinding the buffer (the drain's swap) is a
    write and does.

Lock acquisitions feed a second detector: an *acquisition-order
graph*. Each acquire adds edges from every lock the thread already
holds to the new lock; an edge that closes a cycle — including the
self-edge of re-acquiring a non-reentrant lock — is a potential
deadlock. Both detectors evaluate their observations through the
thread-scope invariants of :mod:`repro.analysis.spec`
(``lockset-discipline``, ``lock-order-acyclic``), so the registry
stays the single vocabulary for every checker in the repo.

Run it via ``zcache-repro check --lockset``, which drives threaded
get/put/invalidate traffic through an instrumented shard and asserts
zero reports — then plants an unlocked shard and asserts the race
*is* reported. ``tests/analysis/test_lockset.py`` runs both halves in
tier-1, plus the same replay over copies of ``serve/shard.py`` with a
lock dropped from ``invalidate`` or taken twice on the fallback fill.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.sanitizer import InvariantViolation
from repro.analysis.spec import SCOPE_THREAD, ThreadCheck, invariants_for
from repro.core.base import ArrayProxy

#: zcache methods that mutate array/policy state
_ZC_WRITES = frozenset({
    "access",
    "invalidate",
    "commit_prepared",
    "commit_replacement",
    "commit_reinsertion",
    "evict_address",
    "absorb_writeback",
})

#: dict mutators intercepted on the payload store
_DICT_WRITES = ("__setitem__", "__delitem__", "pop", "popitem", "clear",
                "update", "setdefault")


@dataclass(frozen=True)
class LocksetReport:
    """One violation observed by the dynamic checker."""

    invariant: str
    kind: str
    detail: str
    field: str
    thread: str
    state: str


class _FieldState:
    """Eraser's per-field state machine."""

    __slots__ = ("state", "owner", "lockset", "threads", "writes", "reads")

    def __init__(self) -> None:
        self.state = "virgin"
        self.owner: Optional[threading.Thread] = None
        #: ``None`` is ⊤ — refinement starts on the first cross-thread
        #: access, never before
        self.lockset: Optional[Set[str]] = None
        self.threads: Set[threading.Thread] = set()
        self.writes = 0
        self.reads = 0

    def access(
        self, thread: threading.Thread, held: FrozenSet[str], is_write: bool
    ) -> None:
        self.threads.add(thread)
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        if self.state == "virgin":
            self.state = "exclusive"
            self.owner = thread
            return
        if self.state == "exclusive":
            if thread is self.owner:
                return
            self.state = "shared-modified" if is_write else "shared"
            self.lockset = set(held)
            return
        if is_write:
            self.state = "shared-modified"
        assert self.lockset is not None
        self.lockset &= held


class _TrackingLock:
    """Wrapper around a ``threading.Lock`` that reports to the sanitizer.

    Quacks like the lock it wraps (``acquire``/``release``/context
    manager/``locked``) so it can be dropped into ``shard.lock``
    unnoticed. A re-acquisition by the holding thread raises
    *immediately* instead of forwarding: the inner lock is
    non-reentrant, so forwarding would hang the process the checker is
    trying to protect.
    """

    __slots__ = ("name", "_inner", "_san")

    def __init__(self, name: str, inner: Any, san: "LocksetSanitizer") -> None:
        self.name = name
        self._inner = inner
        self._san = san

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._san._before_acquire(self.name)
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._san._after_acquire(self.name)
        return got

    def release(self) -> None:
        self._san._on_release(self.name)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> "_TrackingLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.release()
        return False


class _InstrumentedDict(dict):
    """Payload-store dict reporting mutations (policy: write-locked)."""

    # dict subclassing keeps every read on the C fast path: only the
    # mutators are overridden, reads are sanctioned lock-free.
    __slots__ = ("_san", "_field")

    def __init__(self, data: dict, san: "LocksetSanitizer",
                 field: str) -> None:
        self._san = san
        self._field = field
        super().__init__(data)


def _dict_write(name: str):
    inner = getattr(dict, name)

    def method(self: _InstrumentedDict, *args: Any, **kwargs: Any) -> Any:
        self._san._field_access(self._field, is_write=True, op=name)
        return inner(self, *args, **kwargs)

    method.__name__ = name
    return method


for _name in _DICT_WRITES:
    setattr(_InstrumentedDict, _name, _dict_write(_name))


class _InstrumentedList(list):
    """Recency buffer reporting rebinds only (policy: atomic-append).

    ``append`` is the sanctioned GIL-atomic reader-side idiom, so the
    list itself intercepts nothing — the *rebind* of the attribute
    (the drain's buffer swap) is the participating write, caught by
    the tracked property the sanitizer installs on the shard class.
    """

    __slots__ = ("_san", "_field")

    def __init__(self, data: list, san: "LocksetSanitizer",
                 field: str) -> None:
        self._san = san
        self._field = field
        super().__init__(data)


class _ZCacheProxy(ArrayProxy):
    """The shard's two-phase cache with its mutating calls
    (:data:`_ZC_WRITES`) reported as writes; the rest forwards."""

    _OWN = frozenset({"_san"})

    def __init__(self, inner: Any, san: "LocksetSanitizer") -> None:
        super().__init__(inner)
        self._san = san

    @property
    def array(self) -> Any:
        """The wrapped cache's array, not (as in the base) the cache."""
        return self._inner.array


def _zcache_write(name: str):
    def method(self: _ZCacheProxy, *args: Any, **kwargs: Any) -> Any:
        inner = getattr(self._inner, name)
        self._san._field_access("zcache", is_write=True, op=name)
        return inner(*args, **kwargs)

    method.__name__ = name
    return method


for _name in sorted(_ZC_WRITES):
    setattr(_ZCacheProxy, _name, _zcache_write(_name))


class LocksetSanitizer:
    """Instrument a :class:`CacheShard` with the dynamic race checker.

    Parameters
    ----------
    shard:
        The shard to instrument, in place: its lock, payload dict,
        recency buffer and zcache are replaced with tracking wrappers
        and its class is swapped for a dynamic subclass whose
        ``_entries``/``_recency`` are tracked properties (rebind
        detection). The shard keeps working identically.
    strict:
        When True, the first violation raises
        :class:`~repro.analysis.sanitizer.InvariantViolation` at the
        offending access; when False (default) violations accumulate
        in :attr:`reports`.
    """

    def __init__(self, shard: Any, strict: bool = False) -> None:
        self.shard = shard
        self.strict = strict
        self.reports: List[LocksetReport] = []
        #: sanitizer-internal mutex — ordered strictly *after* any
        #: shard lock (acquired only inside tracking callbacks, which
        #: never take a shard lock themselves), so instrumenting
        #: cannot introduce the deadlocks it exists to find
        self._mutex = threading.Lock()
        #: threads are keyed by ``Thread`` objects (kept alive here), not
        #: ``get_ident()``: the OS reuses an exited thread's id, merging
        #: two workers that never overlap and hiding their race
        self._held: Dict[threading.Thread, List[str]] = {}
        self._edges: Dict[str, Set[str]] = {}
        self._fields: Dict[str, _FieldState] = {}
        self._reported: Set[Tuple[str, str]] = set()
        self.accesses = 0

        self._invariants = invariants_for(SCOPE_THREAD)

        # Swap the class first so the wrapper assignments below flow
        # through the tracked properties (seeding their shadow slots).
        cls = shard.__class__
        shard.__class__ = type(
            "Lockset" + cls.__name__,
            (cls,),
            {
                "_entries": self._tracked_property("_entries"),
                "_recency": self._tracked_property("_recency"),
            },
        )
        shard.lock = _TrackingLock("CacheShard.lock", shard.lock, self)
        shard._entries = _InstrumentedDict(
            dict(shard.__dict__.pop("_entries")), self, "_entries"
        )
        shard._recency = _InstrumentedList(
            list(shard.__dict__.pop("_recency")), self, "_recency"
        )
        shard.cache = _ZCacheProxy(shard.cache, self)

    # -- instrumentation plumbing -------------------------------------------
    def _tracked_property(self, name: str) -> property:
        shadow = "_tracked_" + name
        san = self

        def fget(obj: Any) -> Any:
            return obj.__dict__[shadow]

        def fset(obj: Any, value: Any) -> None:
            if shadow in obj.__dict__:
                # A rebind after instrumentation is a write access on
                # every policy, and the fresh object must stay tracked.
                san._field_access(name, is_write=True, op="rebind")
                if isinstance(value, dict):
                    value = _InstrumentedDict(value, san, name)
                elif isinstance(value, list):
                    value = _InstrumentedList(value, san, name)
            obj.__dict__[shadow] = value

        return property(fget, fset)

    def track_lock(self, name: str, lock: Any = None) -> _TrackingLock:
        """A fresh tracked lock feeding this sanitizer's order graph."""
        return _TrackingLock(name, lock or threading.Lock(), self)

    # -- lock-order detector -------------------------------------------------
    def _before_acquire(self, name: str) -> None:
        thread = threading.current_thread()
        with self._mutex:
            held = self._held.get(thread, [])
            if name in held:
                self._violation(
                    ThreadCheck(cycle=(name, name)), field=name,
                    state="re-acquire",
                )
                raise InvariantViolation(
                    "lock-order",
                    f"thread re-acquires non-reentrant lock '{name}' "
                    "(forwarding would deadlock)",
                    invariant="lock-order-acyclic",
                )
            for prior in held:
                self._edges.setdefault(prior, set()).add(name)
                path = self._path(name, prior)
                if path is not None:
                    self._violation(
                        ThreadCheck(cycle=(prior, *path)),
                        field=name, state="cycle",
                    )

    def _after_acquire(self, name: str) -> None:
        thread = threading.current_thread()
        with self._mutex:
            self._held.setdefault(thread, []).append(name)

    def _on_release(self, name: str) -> None:
        thread = threading.current_thread()
        with self._mutex:
            held = self._held.get(thread)
            if held and name in held:
                held.remove(name)

    def _path(self, src: str, dst: str) -> Optional[Tuple[str, ...]]:
        """Edge path ``src → … → dst``, or None when unreachable."""
        parents: Dict[str, Optional[str]] = {src: None}
        frontier = [src]
        while frontier:
            node = frontier.pop()
            for succ in self._edges.get(node, ()):
                if succ in parents:
                    continue
                parents[succ] = node
                if succ == dst:
                    path = [succ]
                    while parents[path[-1]] is not None:
                        path.append(parents[path[-1]])  # type: ignore[arg-type]
                    return tuple(reversed(path))
                frontier.append(succ)
        return None

    # -- lockset detector ----------------------------------------------------
    def _field_access(self, field: str, is_write: bool, op: str) -> None:
        thread = threading.current_thread()
        with self._mutex:
            self.accesses += 1
            held = frozenset(self._held.get(thread, ()))
            state = self._fields.setdefault(field, _FieldState())
            state.access(thread, held, is_write)
            self._violation(
                ThreadCheck(
                    field=field,
                    op=op,
                    state=state.state,
                    lockset=frozenset(state.lockset or ()),
                    threads=len(state.threads),
                ),
                field=field,
                state=state.state,
            )

    # -- evaluation (caller holds self._mutex) -------------------------------
    def _violation(self, ctx: ThreadCheck, field: str, state: str) -> None:
        for inv in self._invariants:
            detail = inv.check(ctx)
            if detail is None:
                continue
            if (inv.name, field) in self._reported:
                continue
            self._reported.add((inv.name, field))
            self.reports.append(
                LocksetReport(
                    invariant=inv.name,
                    kind=inv.kind,
                    detail=detail,
                    field=field,
                    thread=threading.current_thread().name,
                    state=state,
                )
            )
            if self.strict:
                raise InvariantViolation(
                    inv.kind, detail, invariant=inv.name
                )

    # -- reporting -----------------------------------------------------------
    def field_states(self) -> Dict[str, str]:
        """Current Eraser state per tracked field (tests/reporting)."""
        with self._mutex:
            return {name: st.state for name, st in self._fields.items()}

    def summary(self) -> str:
        """One-line rollup: accesses, reports, per-field end states."""
        with self._mutex:
            fields = ", ".join(
                f"{name}={st.state}"
                f"[{st.writes}w/{st.reads}r/{len(st.threads)}t]"
                for name, st in sorted(self._fields.items())
            )
        return (
            f"lockset sanitizer: {self.accesses} tracked accesses, "
            f"{len(self.reports)} report(s); {fields or 'no fields touched'}"
        )


# ---------------------------------------------------------------------------
# Replay drivers: threaded serve traffic through an instrumented shard.
# Shared by ``zcache-repro check --lockset`` and tests/analysis/test_lockset.py.
# The serve imports are local so the analysis package keeps zero
# import-time dependency on the serve layer.
# ---------------------------------------------------------------------------


def _replay(shard: Any, ops: int, threads: int, seed: int) -> LocksetSanitizer:
    """Instrument ``shard`` and run ``threads`` workers of mixed traffic.

    Each worker issues ``ops`` operations over 512 addresses: 50% put,
    10% invalidate, 40% get, all starting together behind a barrier. A
    worker's exception is re-raised after the join only when the
    sanitizer reported nothing: once the
    discipline is broken, the real races it prevents (policy desync,
    torn walks, a re-acquired lock) can genuinely fire, and the reports
    are the verdict.
    """
    import random

    san = LocksetSanitizer(shard)
    errors: List[Exception] = []
    start = threading.Barrier(threads, timeout=60)

    def worker(wid: int) -> None:
        start.wait()
        rng = random.Random(seed * 1000 + wid)
        for _ in range(ops):
            addr = rng.randrange(512)
            draw = rng.random()
            try:
                if draw < 0.5:
                    shard.put(addr, addr, b"%d" % addr)
                elif draw < 0.6:
                    shard.invalidate(addr)
                else:
                    shard.get(addr)
            except Exception as exc:
                errors.append(exc)

    pool = [
        threading.Thread(target=worker, args=(wid,), name=f"replay-{wid}")
        for wid in range(threads)
    ]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    if errors and not san.reports:
        raise errors[0]
    return san


def instrumented_replay(
    ops: int = 3000,
    threads: int = 4,
    seed: int = 0,
    fingerprint: bool = False,
) -> LocksetSanitizer:
    """Mixed traffic from ``threads`` workers on a tracked shard.

    The production discipline must come back clean: every field ends
    either thread-exclusive or with a non-empty candidate lockset, and
    the acquisition graph stays acyclic.
    """
    from repro.serve.shard import CacheShard

    shard = CacheShard(
        num_ways=2, lines_per_way=64, levels=2, fingerprint=fingerprint
    )
    return _replay(shard, ops, threads, seed)


def planted_unlocked_replay(
    ops: int = 1500, threads: int = 2, seed: int = 0
) -> LocksetSanitizer:
    """The acceptance negative: a shard whose ``put`` skips the lock.

    Writer threads mutating the payload store and the zcache with no
    lock held drive both fields to ``shared-modified`` with an empty
    candidate lockset — the checker must report them.
    """
    from repro.serve.shard import CacheShard

    class UnlockedShard(CacheShard):
        def put(self, address: int, key: object, value: object) -> None:
            self.cache.access(address, is_write=True)
            self._sync_entries(address, key, value, None)

    shard = UnlockedShard(num_ways=2, lines_per_way=64, levels=2)
    return _replay(shard, ops, threads, seed)
