"""Exhaustive bounded model checking over tiny cache geometries.

The second ZSpec backend: where the sanitizer checks the registry
invariants along *one* concrete run, the model checker enumerates
**every** access sequence up to a configured depth over deliberately
tiny geometries (a 2-way zcache with 2 lines per way has 4 blocks —
small enough that a few addresses exercise every fill/evict/relocate
interleaving) and checks:

- every ``state``-scope registry invariant after every transition;
- reference ↔ turbo bit-identity (results, statistics, and full array
  state) when the configuration has a turbo twin — the exhaustive dual
  of ``scripts/diff_engines.py``'s sampled differential runs;
- that no transition raises (an :class:`InvariantViolation` from a
  sanitized reference array surfaces here with the exact access
  sequence that produced it).

States are memoized under a canonical form (line contents, policy
recency order, dirty set, and the turbo twin's dense mirrors) so the
search visits each distinct state once per remaining depth; the
counterexample for any violation is the concrete op sequence, directly
replayable in a debugger.

ROADMAP item 5 (fault injection) can reuse the harness unchanged:
plant a fault in a scratch module, point a
:class:`ModelConfig` builder at it, and the checker either proves the
bounded state space clean or returns the minimal-depth access sequence
reaching corruption — see ``tests/analysis/test_modelcheck.py``'s
planted commit-order bug for the pattern.
"""

from __future__ import annotations

import pickle
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.sanitizer import SanitizedArray
from repro.analysis.spec import SCOPE_STATE, StateCheck, invariants_for
from repro.core.base import CacheArray
from repro.core.controller import Cache
from repro.core.setassoc import SetAssociativeArray
from repro.core.twophase import TwoPhaseZCache
from repro.core.zcache import ZCacheArray
from repro.replacement.lru import LRU

#: an op is ("r" | "w" | "inv", address)
Op = Tuple[str, int]

_STATE_INVARIANTS = invariants_for(SCOPE_STATE)

#: stop collecting counterexamples per config beyond this many
_MAX_VIOLATIONS = 8


@dataclass(frozen=True)
class ModelConfig:
    """One machine to check: builders plus the op alphabet.

    ``build_reference`` must return a reference-engine cache (its array
    may be wrapped in a :class:`SanitizedArray`); ``build_turbo``, when
    set, must return the *same* machine with ``engine="turbo"`` — the
    checker asserts the turbo kernel actually engaged rather than
    silently falling back to reference.
    """

    name: str
    description: str
    addresses: Tuple[int, ...]
    build_reference: Callable[[], Cache]
    build_turbo: Optional[Callable[[], Cache]] = None
    #: subset of ``addresses`` also exercised as writes / invalidates —
    #: kept small deliberately: every op multiplies the branch factor,
    #: and a couple of dirty-able addresses already reach every
    #: dirty-set/writeback interaction on a 4-block array
    write_addresses: Tuple[int, ...] = ()
    invalidate_addresses: Tuple[int, ...] = ()

    def ops(self) -> Tuple[Op, ...]:
        """The op alphabet: one transition per (kind, address)."""
        out: List[Op] = [("r", a) for a in self.addresses]
        out.extend(("w", a) for a in self.write_addresses)
        out.extend(("inv", a) for a in self.invalidate_addresses)
        return tuple(out)


@dataclass
class ModelViolation:
    """One counterexample: a config, an op sequence, and what broke."""

    config: str
    sequence: Tuple[str, ...]
    message: str

    def render(self) -> str:
        """One-line report: config, replayable op trail, failure."""
        trail = " ".join(self.sequence)
        return f"{self.config}: [{trail}] {self.message}"


@dataclass
class ConfigResult:
    """Exploration summary for one :class:`ModelConfig`."""

    config: str
    depth: int
    states: int = 0
    transitions: int = 0
    violations: List[ModelViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class ModelCheckResult:
    """All per-config results from one :func:`run_model_check`."""

    depth: int
    results: List[ConfigResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def violations(self) -> List[ModelViolation]:
        """Every counterexample across all configs, in config order."""
        return [v for r in self.results for v in r.violations]

    def render(self) -> str:
        """Multi-line human-readable report."""
        lines = []
        for r in self.results:
            status = "ok" if r.ok else f"{len(r.violations)} violation(s)"
            lines.append(
                f"model {r.config}: depth {r.depth}, {r.states} state(s), "
                f"{r.transitions} transition(s) — {status}"
            )
            for v in r.violations:
                lines.append(f"  {v.render()}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# canonical state
# ---------------------------------------------------------------------------


def _bare(array: object) -> CacheArray:
    """Unwrap a SanitizedArray (or return the array itself)."""
    if isinstance(array, SanitizedArray):
        return array.array
    assert isinstance(array, CacheArray)
    return array


def _policy_canon(cache: Cache) -> Optional[Tuple[int, ...]]:
    """Recency/insertion order of the reference policy, if stamp-based.

    LRU/FIFO keep a ``_stamp`` dict whose iteration order *is* the
    eviction order; the absolute stamp values grow without bound and
    must not enter the canonical form.
    """
    stamp = getattr(cache.policy, "_stamp", None)
    if isinstance(stamp, dict):
        return tuple(stamp)
    return None


def _turbo_canon(cache: Cache) -> Optional[tuple]:
    """Canonical form of the turbo core's dense mirrors, if engaged."""
    turbo = cache._turbo
    if turbo is None:
        return None
    tags = tuple(int(t) for t in turbo.tags)
    stamp = getattr(turbo.pk, "stamp", None)
    order: Optional[Tuple[int, ...]] = None
    if stamp is not None:
        occupied = [slot for slot, tag in enumerate(tags) if tag >= 0]
        order = tuple(sorted(occupied, key=lambda s: int(stamp[s])))
    return (tags, order)


def _cache_canon(cache: Cache) -> tuple:
    """Full canonical state of one cache (reference or turbo)."""
    array = _bare(cache.array)
    lines = tuple(tuple(way) for way in array._lines)
    return (
        lines,
        _policy_canon(cache),
        frozenset(cache._dirty),
        _turbo_canon(cache),
    )


# ---------------------------------------------------------------------------
# transition checking
# ---------------------------------------------------------------------------


def _op_label(op: Op) -> str:
    kind, addr = op
    return f"{kind}:{addr:#x}"


def _apply(cache: Cache, op: Op) -> object:
    kind, addr = op
    if kind == "inv":
        return cache.invalidate(addr)
    return cache.access(addr, is_write=(kind == "w"))


def _state_detail(array: CacheArray) -> Optional[str]:
    """First failing ``state``-scope invariant, rendered, or None."""
    ctx = StateCheck(array)
    for inv in _STATE_INVARIANTS:
        detail = inv.check(ctx)
        if detail is not None:
            return f"[{inv.kind}] {detail} (invariant: {inv.name})"
    return None


def _step(
    cfg: ModelConfig, ref: Cache, turbo: Optional[Cache], op: Op
) -> Optional[str]:
    """Apply ``op`` to both twins; return a violation message or None."""
    try:
        ref_out = _apply(ref, op)
    except Exception:
        tail = traceback.format_exc(limit=1).strip().splitlines()[-1]
        return f"reference engine raised: {tail}"
    detail = _state_detail(_bare(ref.array))
    if detail is not None:
        return f"reference state invariant failed: {detail}"
    if turbo is None:
        return None
    try:
        turbo_out = _apply(turbo, op)
    except Exception:
        tail = traceback.format_exc(limit=1).strip().splitlines()[-1]
        return f"turbo engine raised: {tail}"
    detail = _state_detail(_bare(turbo.array))
    if detail is not None:
        return f"turbo state invariant failed: {detail}"
    if ref_out != turbo_out:
        return f"result divergence: reference={ref_out!r} turbo={turbo_out!r}"
    ref_stats = ref.stats.as_dict()
    turbo_stats = turbo.stats.as_dict()
    if ref_stats != turbo_stats:
        diff = {
            k: (ref_stats[k], turbo_stats.get(k))
            for k in ref_stats
            if ref_stats[k] != turbo_stats.get(k)
        }
        return f"statistics divergence: {diff}"
    ref_array, turbo_array = _bare(ref.array), _bare(turbo.array)
    if ref_array._lines != turbo_array._lines:
        return (
            f"array divergence: reference lines {ref_array._lines} != "
            f"turbo lines {turbo_array._lines}"
        )
    if ref_array._pos != turbo_array._pos:
        return "position-map divergence between engines"
    return None


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------


def _explore(cfg: ModelConfig, depth: int, result: ConfigResult) -> None:
    ops = cfg.ops()
    memo: Dict[tuple, int] = {}

    ref = cfg.build_reference()
    turbo: Optional[Cache] = None
    if cfg.build_turbo is not None:
        turbo = cfg.build_turbo()
        if turbo.engine != "turbo":
            raise ValueError(
                f"config {cfg.name!r}: build_turbo produced a cache whose "
                f"turbo kernel declined (engine={turbo.engine!r})"
            )

    def walk(
        ref: Cache, turbo: Optional[Cache], remaining: int, trail: Tuple[str, ...]
    ) -> None:
        canon = (_cache_canon(ref), None if turbo is None else _cache_canon(turbo))
        if memo.get(canon, -1) >= remaining:
            return
        if canon not in memo:
            result.states += 1
        memo[canon] = remaining
        if remaining == 0 or len(result.violations) >= _MAX_VIOLATIONS:
            return
        # One dump per expanded node, one load per branch: measurably
        # cheaper than deepcopy-per-branch, and the snapshot cost is
        # what dominates the whole search.
        blob = pickle.dumps((ref, turbo), protocol=pickle.HIGHEST_PROTOCOL)
        for op in ops:
            branch_ref, branch_turbo = pickle.loads(blob)
            result.transitions += 1
            message = _step(cfg, branch_ref, branch_turbo, op)
            next_trail = trail + (_op_label(op),)
            if message is not None:
                result.violations.append(
                    ModelViolation(
                        config=cfg.name, sequence=next_trail, message=message
                    )
                )
                if len(result.violations) >= _MAX_VIOLATIONS:
                    return
                continue
            walk(branch_ref, branch_turbo, remaining - 1, next_trail)

    walk(ref, turbo, depth, ())


# ---------------------------------------------------------------------------
# default configurations
# ---------------------------------------------------------------------------


def _tiny_zcache(engine: str, sanitized: bool) -> Cache:
    array: CacheArray = ZCacheArray(2, 2, levels=2, hash_kind="h3", hash_seed=7)
    if sanitized:
        array = SanitizedArray(array, deep_check_interval=1)
    return Cache(array, LRU(), name="model-z", engine=engine)


def _tiny_setassoc(engine: str, sanitized: bool) -> Cache:
    array: CacheArray = SetAssociativeArray(2, 2, hash_kind="bitsel")
    if sanitized:
        array = SanitizedArray(array, deep_check_interval=1)
    return Cache(array, LRU(), name="model-sa", engine=engine)


def _tiny_twophase() -> Cache:
    # hash_seed=11 chosen empirically: its collision pattern produces
    # phase-2 wins (the interesting two-phase commit path) within
    # depth 6 on this geometry; most seeds never reach that path.
    cache = TwoPhaseZCache(
        ZCacheArray(2, 2, levels=2, hash_kind="h3", hash_seed=11),
        LRU(),
        name="model-2p",
    )
    # The constructor type-checks for a bare ZCacheArray, so the
    # sanitizer wraps afterwards; the controller reads ``self.array``
    # on every operation and sees the wrapper from then on.
    cache.array = SanitizedArray(cache.array, deep_check_interval=1)
    return cache


def default_configs() -> Tuple[ModelConfig, ...]:
    """The CI gate's geometries: two engine-lockstep, one two-phase."""
    return (
        ModelConfig(
            name="zcache-2w2l-lru",
            description=(
                "2-way/2-line zcache, LRU: sanitized reference vs turbo "
                "ZWalk kernel in lockstep"
            ),
            addresses=(1, 2, 3, 4, 5),
            build_reference=lambda: _tiny_zcache("reference", sanitized=True),
            build_turbo=lambda: _tiny_zcache("turbo", sanitized=False),
            write_addresses=(1, 2),
        ),
        ModelConfig(
            name="setassoc-2w2s-lru",
            description=(
                "2-way/2-set set-associative, LRU: sanitized reference vs "
                "turbo SetWalk kernel in lockstep"
            ),
            addresses=(1, 2, 3, 4),
            build_reference=lambda: _tiny_setassoc("reference", sanitized=True),
            build_turbo=lambda: _tiny_setassoc("turbo", sanitized=False),
            write_addresses=(1, 2),
            invalidate_addresses=(3,),
        ),
        ModelConfig(
            name="twophase-2w2l-lru",
            description=(
                "2-way/2-line two-phase zcache, LRU: sanitized reference "
                "(phase-scope invariants active on every commit attempt)"
            ),
            addresses=(1, 2, 3, 4, 5),
            build_reference=_tiny_twophase,
        ),
    )


def run_model_check(
    depth: int = 6, configs: Optional[Tuple[ModelConfig, ...]] = None
) -> ModelCheckResult:
    """Exhaustively check every config to ``depth`` accesses."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    result = ModelCheckResult(depth=depth)
    for cfg in configs if configs is not None else default_configs():
        cfg_result = ConfigResult(config=cfg.name, depth=depth)
        _explore(cfg, depth, cfg_result)
        result.results.append(cfg_result)
    return result


__all__ = [
    "ConfigResult",
    "ModelCheckResult",
    "ModelConfig",
    "ModelViolation",
    "Op",
    "default_configs",
    "run_model_check",
]
