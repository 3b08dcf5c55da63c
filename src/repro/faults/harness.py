"""Single-replay harness: run one design under one fault plan, classify.

One campaign case = one deterministic replay of a seeded address
stream against one design, with a :class:`~repro.faults.plan.FaultPlan`
injected, under the full ZSpec sanitizer — plus the matching *golden*
replay (``plan=None``, same seed, same stream) the faulted run is
judged against. The classifier's verdicts:

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
from typing import Optional

from repro.analysis.sanitizer import InvariantViolation, SanitizedArray
from repro.core import Cache, SetAssociativeArray, SkewAssociativeArray
from repro.core.zcache import ZCacheArray
from repro.faults.inject import FaultInjector, FaultyArray, record_evictions
from repro.faults.plan import FaultPlan
from repro.replacement import make_policy

__all__ = [
    "CLASSIFICATIONS",
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

#: classifier verdicts, strongest first
CLASSIFICATIONS = (
    "detected",
    "crash",
    "silent-wrong-victim",
    "silent-mpki-drift",
    "benign",
)

#: design label -> array-builder arguments (the campaign's cast)
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

    accesses: int
    completed: int
    misses: int
    hits: int
    evictions: tuple = ()
    #: registry name of the invariant that fired (or pseudo-detector
    #: name for serve/crash outcomes); None when the run finished clean
    detector: Optional[str] = None
    #: violation kind for the taxonomy table (None when undetected)
    detector_kind: Optional[str] = None
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
    """One campaign unit: a design, a plan, and a replay configuration."""

    design: str
    kind: str
    at: int
    seed: int
    accesses: int = 2000
    lines_per_way: int = 64
    way: int = 0
    index: int = 0
    bit: int = 0
    deep_interval: int = 16
    serve: bool = False

    @property
    def key(self) -> str:
        """Stable identity for checkpointing and result lookup."""
        return (
            f"{self.design}|{self.kind}|at{self.at}"
            f"|w{self.way}i{self.index}b{self.bit}|s{self.seed:x}"
        )

    def plan(self) -> FaultPlan:
        """The one-event plan this case injects."""
        return FaultPlan.single(
            self.kind, self.at, way=self.way, index=self.index, bit=self.bit
        )

    def to_dict(self) -> dict:
        """JSON-safe representation (counterexample replay files)."""
        return {
            "design": self.design,
            "kind": self.kind,
            "at": self.at,
            "seed": self.seed,
            "accesses": self.accesses,
            "lines_per_way": self.lines_per_way,
            "way": self.way,
            "index": self.index,
            "bit": self.bit,
            "deep_interval": self.deep_interval,
            "serve": self.serve,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultCase":
        """Inverse of :meth:`to_dict`."""
        return cls(**{k: data[k] for k in data})


@dataclass(slots=True)
class FaultOutcome:
    """Classified result of one case (what the checkpoint persists)."""

    key: str
    design: str
    kind: str
    classification: str
    detector: Optional[str] = None
    detector_kind: Optional[str] = None
    detail: str = ""
    detected_at: int = -1
    diverged_at: int = -1
    mpki_delta: float = 0.0
    golden_misses: int = 0
    faulted_misses: int = 0

    def to_dict(self) -> dict:
        """JSON-safe representation (checkpoint / BENCH payloads)."""
        return {
            "key": self.key,
            "design": self.design,
            "kind": self.kind,
            "classification": self.classification,
            "detector": self.detector,
            "detector_kind": self.detector_kind,
            "detail": self.detail,
            "detected_at": self.detected_at,
            "diverged_at": self.diverged_at,
            "mpki_delta": self.mpki_delta,
            "golden_misses": self.golden_misses,
            "faulted_misses": self.faulted_misses,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultOutcome":
        """Inverse of :meth:`to_dict`."""
        return cls(**{k: data[k] for k in data})


# ---------------------------------------------------------------------------
# Replays
# ---------------------------------------------------------------------------


def run_replay(
    design: str,
    *,
    seed: int,
    accesses: int,
    lines_per_way: int = 64,
    plan: Optional[FaultPlan] = None,
    deep_interval: int = 16,
) -> ReplayResult:
    """One sanitized replay of the case's address stream (array layer).

    ``plan=None`` is the golden path: no injector, no
    :class:`FaultyArray` in the stack — bit-identical to a plain
    sanitized run (the wrappers are pure proxies either way; a test
    pins the equivalence against an *empty* plan).
    """
    array = build_array(design, lines_per_way, seed)
    injector = FaultInjector(plan) if plan is not None else None
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
        accesses=accesses,
        completed=completed,
        misses=counters["misses"].value,
        hits=counters["hits"].value,
        evictions=tuple(evictions),
        detector=detector,
        detector_kind=detector_kind,
        detail=detail,
        crashed=crashed,
    )


def run_serve_replay(
    design: str,
    *,
    seed: int,
    accesses: int,
    lines_per_way: int = 64,
    plan: Optional[FaultPlan] = None,
    deep_interval: int = 16,
    consistency_interval: int = 64,
) -> ReplayResult:
    """One single-threaded shard replay (serve layer).

    Drives ``put``/``get`` traffic through a
    :class:`~repro.serve.shard.CacheShard` whose array is sanitized and
    whose eviction choke point :func:`record_evictions` interposes on.
    The shard's payload/residency consistency check runs every
    ``consistency_interval`` operations and once at the end — the serve
    layer's deep scan.
    """
    from repro.serve.shard import MISS, CacheShard

    spec = DESIGNS[design]
    if spec["kind"] != "z":
        raise ValueError(f"serve replay requires a zcache design, got {design}")
    injector = FaultInjector(plan) if plan is not None else None
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
                shard.check_consistency()
        shard.check_consistency()
        shard.cache.array.final_check()
    except InvariantViolation as exc:
        detector = exc.invariant or "unknown-invariant"
        detector_kind = exc.kind
        detail = exc.detail
    except AssertionError as exc:
        # The shard's own consistency contract: payload store and array
        # residency must agree. Not a ZSpec invariant — the serve
        # layer's detector.
        detector = "shard-consistency"
        detector_kind = "payload-desync"
        detail = str(exc)
    except Exception as exc:
        detector = f"crash:{type(exc).__name__}"
        detail = str(exc)
        crashed = True
    counters = shard.cache.stats.counters()
    return ReplayResult(
        accesses=accesses,
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


def classify(faulted: ReplayResult, golden: ReplayResult) -> str:
    """Verdict for one faulted replay against its golden twin."""
    if faulted.crashed:
        return "crash"
    if faulted.detector is not None:
        return "detected"
    if faulted.evictions != golden.evictions:
        return "silent-wrong-victim"
    if faulted.misses != golden.misses or faulted.hits != golden.hits:
        return "silent-mpki-drift"
    return "benign"


def _first_divergence(faulted: tuple, golden: tuple) -> int:
    """Index of the first differing eviction (-1 when identical)."""
    for i, (a, b) in enumerate(zip(faulted, golden)):
        if a != b:
            return i
    if len(faulted) != len(golden):
        return min(len(faulted), len(golden))
    return -1


def run_case(case: FaultCase) -> FaultOutcome:
    """Run one campaign case: golden replay, faulted replay, classify."""
    runner = run_serve_replay if case.serve else run_replay
    golden = runner(
        case.design,
        seed=case.seed,
        accesses=case.accesses,
        lines_per_way=case.lines_per_way,
        plan=None,
        deep_interval=case.deep_interval,
    )
    faulted = runner(
        case.design,
        seed=case.seed,
        accesses=case.accesses,
        lines_per_way=case.lines_per_way,
        plan=case.plan(),
        deep_interval=case.deep_interval,
    )
    verdict = classify(faulted, golden)
    return FaultOutcome(
        key=case.key,
        design=case.design,
        kind=case.kind,
        classification=verdict,
        detector=faulted.detector,
        detector_kind=faulted.detector_kind,
        detail=faulted.detail,
        detected_at=faulted.completed if faulted.detector else -1,
        diverged_at=_first_divergence(faulted.evictions, golden.evictions),
        mpki_delta=faulted.mpki - golden.mpki,
        golden_misses=golden.misses,
        faulted_misses=faulted.misses,
    )
