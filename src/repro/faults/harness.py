"""Single-replay harness: run one design under one fault, classify.

One case = one deterministic replay of a seeded address stream against
one design, with one :class:`~repro.faults.inject.FaultEvent` injected,
under the full ZSpec sanitizer — plus, when the faulted run neither
crashed nor tripped a detector, the matching *golden* replay
(``faults=None``, same seed, same stream) it is judged against. The
classifier's verdicts:

``detected``
    A registered invariant fired (:class:`InvariantViolation`), or the
    serve shard's payload/residency consistency check tripped. The
    detector's name and violation kind are recorded for the taxonomy
    table.
``crash``
    The corruption escaped the sanitizer but crashed the machinery
    (e.g. a flipped tag reaching the policy as an unknown block) —
    fail-stop, but not *detected by an invariant*.
``silent-wrong-victim``
    No detector fired, but the eviction sequence diverged from golden:
    the design silently evicted different blocks.
``silent-mpki-drift``
    Victims matched but the miss count moved — silent performance
    corruption (MPKI is misses per kilo-access here; the stream is the
    instruction proxy).
``benign``
    Bit-identical to golden. The fault fizzled (struck dead state, was
    overwritten, or targeted machinery the design does not have —
    relocation faults on a set-associative array cannot fire at all).

The designs swept are the paper's cast: Z4/16 and Z4/52 (4-way
zcaches, 2- and 3-level walks), SA-4 (4-way set-associative) and SK-4
(skew-associative = one-level zcache).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.sanitizer import InvariantViolation, SanitizedArray
from repro.core import Cache, SetAssociativeArray, SkewAssociativeArray
from repro.core.zcache import ZCacheArray
from repro.faults.inject import (
    SERVE_FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultyArray,
    record_evictions,
)
from repro.replacement import make_policy

__all__ = [
    "DESIGNS",
    "SERVE_DESIGNS",
    "FaultCase",
    "FaultOutcome",
    "ReplayResult",
    "classify",
    "run_case",
    "run_replay",
    "run_serve_replay",
]

#: design label -> array-builder arguments (the paper's cast)
DESIGNS = {
    "Z4/16": {"kind": "z", "ways": 4, "levels": 2},
    "Z4/52": {"kind": "z", "ways": 4, "levels": 3},
    "SA-4": {"kind": "sa", "ways": 4},
    "SK-4": {"kind": "skew", "ways": 4},
}

#: designs the serve-layer (shard) replay can host: the shard is built
#: on TwoPhaseZCache, which requires a zcache array
SERVE_DESIGNS = ("Z4/16", "Z4/52")


def build_array(design: str, lines_per_way: int, seed: int):
    """Construct the design's array (hash functions seeded per case)."""
    spec = DESIGNS[design]
    ways = spec["ways"]
    if spec["kind"] == "z":
        return ZCacheArray(
            ways, lines_per_way, levels=spec["levels"], hash_seed=seed
        )
    if spec["kind"] == "skew":
        return SkewAssociativeArray(ways, lines_per_way, hash_seed=seed)
    return SetAssociativeArray(ways, lines_per_way, hash_seed=seed)


@dataclass(slots=True)
class ReplayResult:
    """Everything one replay produced that classification needs."""

    completed: int
    misses: int
    hits: int
    evictions: tuple = ()
    #: registry name of the invariant that fired (or pseudo-detector
    #: name for serve/crash outcomes); None when the run finished clean
    detector: Optional[str] = None
    #: the invariant's violation kind (None when undetected)
    detector_kind: Optional[str] = None
    #: the violation's or exception's message
    detail: str = ""
    crashed: bool = False

    @property
    def mpki(self) -> float:
        """Misses per kilo-access (the stream is the instruction proxy)."""
        if self.completed == 0:
            return 0.0
        return 1000.0 * self.misses / self.completed


@dataclass(frozen=True, slots=True)
class FaultCase:
    """One table case: a design, one fault event, and a replay seed.

    A serve-layer kind (:data:`~repro.faults.inject.SERVE_FAULT_KINDS`)
    replays through a shard (:func:`run_serve_replay`), every other kind
    through a plain cache (:func:`run_replay`).
    """

    design: str
    kind: str
    at: int
    seed: int
    way: int = 0
    index: int = 0
    bit: int = 0
    accesses: int = 2000
    lines_per_way: int = 64


@dataclass(frozen=True, slots=True)
class FaultOutcome:
    """Classified result of one case."""

    classification: str
    detector: Optional[str] = None
    #: faulted minus golden MPKI; 0.0 when no golden replay ran
    mpki_delta: float = 0.0


# ---------------------------------------------------------------------------
# Replays
# ---------------------------------------------------------------------------


def run_replay(
    design: str,
    *,
    seed: int,
    accesses: int,
    lines_per_way: int = 64,
    faults: Optional[Sequence[FaultEvent]] = None,
    deep_interval: int = 16,
) -> ReplayResult:
    """One sanitized replay of the case's address stream (array layer).

    ``faults=None`` is the golden path: no injector, no
    :class:`FaultyArray` in the stack — bit-identical to a plain
    sanitized run (the wrappers are pure proxies either way; a test
    pins the equivalence against an *empty* schedule).
    """
    array = build_array(design, lines_per_way, seed)
    injector = FaultInjector(faults) if faults is not None else None
    target = array if injector is None else FaultyArray(array, injector)
    sanitized = SanitizedArray(
        target, seed=seed, deep_check_interval=deep_interval
    )
    cache = Cache(sanitized, make_policy("lru"))
    evictions = record_evictions(cache)
    rng = random.Random(seed)
    footprint = 2 * array.num_blocks
    completed = 0
    detector = detector_kind = None
    detail = ""
    crashed = False
    try:
        for i in range(accesses):
            if injector is not None:
                injector.advance(array, cache.policy)
            cache.access(rng.randrange(footprint))
            completed = i + 1
        sanitized.final_check()
    except InvariantViolation as exc:
        detector = exc.invariant or "unknown-invariant"
        detector_kind = exc.kind
        detail = exc.detail
    except Exception as exc:  # corrupted state crashing the machinery
        detector = f"crash:{type(exc).__name__}"
        detail = str(exc)
        crashed = True
    counters = cache.stats.counters()
    return ReplayResult(
        completed=completed,
        misses=counters["misses"].value,
        hits=counters["hits"].value,
        evictions=tuple(evictions),
        detector=detector,
        detector_kind=detector_kind,
        detail=detail,
        crashed=crashed,
    )


class _PayloadDesync(Exception):
    """The shard's own consistency contract failed: payload store and
    array residency disagree. Not a ZSpec invariant — the serve layer's
    detector."""


def _check_consistency(shard) -> None:
    """Run the shard's consistency check, naming a failure as its own."""
    try:
        shard.check_consistency()
    except AssertionError as exc:
        raise _PayloadDesync(str(exc)) from exc


def run_serve_replay(
    design: str,
    *,
    seed: int,
    accesses: int,
    lines_per_way: int = 64,
    faults: Optional[Sequence[FaultEvent]] = None,
    deep_interval: int = 16,
    consistency_interval: int = 64,
) -> ReplayResult:
    """One single-threaded shard replay (serve layer).

    Drives ``put``/``get`` traffic through a
    :class:`~repro.serve.shard.CacheShard` whose array is sanitized and
    whose eviction choke point :func:`record_evictions` interposes on.
    The shard's payload/residency consistency check runs every
    ``consistency_interval`` operations and once at the end — the serve
    layer's deep scan. Only an ``AssertionError`` out of that check is
    credited to it; one raised inside ``put``/``get`` is a crash.
    """
    from repro.serve.shard import MISS, CacheShard

    if design not in SERVE_DESIGNS:
        raise ValueError(f"serve replay requires a zcache design, got {design}")
    spec = DESIGNS[design]
    injector = FaultInjector(faults) if faults is not None else None
    shard = CacheShard(
        num_ways=spec["ways"],
        lines_per_way=lines_per_way,
        levels=spec["levels"],
        hash_seed=seed,
        policy="lru",
        wrap_array=lambda array: SanitizedArray(
            array, seed=seed, deep_check_interval=deep_interval
        ),
    )
    evictions = record_evictions(shard.cache, injector)
    rng = random.Random(seed)
    footprint = 2 * spec["ways"] * lines_per_way
    completed = 0
    read_hits = 0
    detector = detector_kind = None
    detail = ""
    crashed = False
    try:
        for i in range(accesses):
            if injector is not None:
                injector.advance()
            address = rng.randrange(footprint)
            if rng.random() < 0.6:
                shard.put(address, address, ("v", address))
            elif shard.get(address) is not MISS:
                read_hits += 1
            completed = i + 1
            if completed % consistency_interval == 0:
                _check_consistency(shard)
        _check_consistency(shard)
        shard.cache.array.final_check()
    except InvariantViolation as exc:
        detector = exc.invariant or "unknown-invariant"
        detector_kind = exc.kind
        detail = exc.detail
    except _PayloadDesync as exc:
        detector = "shard-consistency"
        detector_kind = "payload-desync"
        detail = str(exc)
    except Exception as exc:
        detector = f"crash:{type(exc).__name__}"
        detail = str(exc)
        crashed = True
    counters = shard.cache.stats.counters()
    return ReplayResult(
        completed=completed,
        misses=counters["misses"].value,
        hits=counters["hits"].value + read_hits,
        evictions=tuple(evictions),
        detector=detector,
        detector_kind=detector_kind,
        detail=detail,
        crashed=crashed,
    )


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify(faulted: ReplayResult, golden: Optional[ReplayResult]) -> str:
    """Verdict for one faulted replay against its golden twin.

    ``golden`` is read only when the faulted run finished clean, so it
    may be None for a run that crashed or tripped a detector.
    """
    if faulted.crashed:
        return "crash"
    if faulted.detector is not None:
        return "detected"
    assert golden is not None, "a clean faulted run needs its golden twin"
    if faulted.evictions != golden.evictions:
        return "silent-wrong-victim"
    if faulted.misses != golden.misses or faulted.hits != golden.hits:
        return "silent-mpki-drift"
    return "benign"


def run_case(case: FaultCase) -> FaultOutcome:
    """Run one case: faulted replay, golden replay if needed, classify."""
    runner = run_serve_replay if case.kind in SERVE_FAULT_KINDS else run_replay
    event = FaultEvent(
        case.kind, case.at, way=case.way, index=case.index, bit=case.bit
    )

    def replay(faults):
        return runner(
            case.design,
            seed=case.seed,
            accesses=case.accesses,
            lines_per_way=case.lines_per_way,
            faults=faults,
        )

    faulted = replay([event])
    if faulted.detector is not None:  # detected or crashed: golden unread
        return FaultOutcome(classify(faulted, None), faulted.detector)
    golden = replay(None)
    return FaultOutcome(
        classify(faulted, golden), None, faulted.mpki - golden.mpki
    )
