"""Tests for the exhaustive bounded model checker (third ZSpec backend).

Two halves: the default CI configurations must explore clean to the
gate depth, and a *planted* commit-ordering bug in a scratch copy of
the two-phase controller must be caught with a concrete, replayable
counterexample — the acceptance criterion that the checker actually
distinguishes correct machines from subtly broken ones.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.analysis.modelcheck import (
    ModelConfig,
    default_configs,
    run_model_check,
)
from repro.analysis.sanitizer import SanitizedArray
from repro.core.controller import Cache
from repro.core.setassoc import SetAssociativeArray
from repro.core.zcache import ZCacheArray
from repro.replacement.lru import LRU

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


# ---------------------------------------------------------------------------
# Configuration surface.


def test_default_configs_cover_both_geometries_and_twophase():
    configs = default_configs()
    names = [c.name for c in configs]
    assert len(names) >= 3
    assert any("zcache" in n for n in names)
    assert any("setassoc" in n for n in names)
    assert any("twophase" in n for n in names)
    lockstep = [c for c in configs if c.build_turbo is not None]
    assert len(lockstep) >= 2  # >=2 engine-lockstep geometries in CI


def test_ops_alphabet_orders_reads_writes_invalidates():
    cfg = ModelConfig(
        name="t",
        description="t",
        addresses=(1, 2),
        build_reference=lambda: None,
        write_addresses=(1,),
        invalidate_addresses=(2,),
    )
    assert cfg.ops() == (("r", 1), ("r", 2), ("w", 1), ("inv", 2))


def test_run_model_check_rejects_nonpositive_depth():
    with pytest.raises(ValueError, match="depth"):
        run_model_check(depth=0, configs=())


def test_turbo_builder_must_actually_engage_turbo():
    # Cache silently falls back to the reference engine when the turbo
    # kernel declines a geometry; the checker must refuse to "verify"
    # reference against itself.
    cfg = ModelConfig(
        name="fallback",
        description="turbo builder that falls back",
        addresses=(1, 2),
        build_reference=lambda: Cache(
            SetAssociativeArray(2, 2, hash_kind="bitsel"), LRU()
        ),
        build_turbo=lambda: Cache(
            # DFS walk strategy declines the turbo ZWalk kernel
            ZCacheArray(2, 2, levels=2, hash_kind="h3", strategy="dfs"),
            LRU(),
            engine="turbo",
        ),
    )
    with pytest.raises(ValueError, match="declined"):
        run_model_check(depth=1, configs=(cfg,))


# ---------------------------------------------------------------------------
# The CI gate: every default config explores clean to depth 6.


def test_default_configs_clean_to_gate_depth():
    result = run_model_check(depth=6)
    assert result.ok, result.render()
    for cfg_result in result.results:
        # Exhaustive means the search actually branched: each config
        # must visit well beyond the trivial handful of states.
        assert cfg_result.states > 100, cfg_result.config
        assert cfg_result.transitions > cfg_result.states


def test_default_configs_clean_to_depth_three():
    # Fast smoke twin of the depth-6 gate for plain test runs.
    result = run_model_check(depth=3)
    assert result.ok, result.render()
    report = result.render()
    assert "violation" not in report
    assert report.count(" ok") == len(result.results)


def test_memoization_bounds_state_count():
    # A single-address alphabet reaches a fixpoint immediately: the
    # state space is tiny no matter the depth.
    cfg = ModelConfig(
        name="one-addr",
        description="degenerate single-address machine",
        addresses=(1,),
        build_reference=lambda: Cache(
            SanitizedArray(
                ZCacheArray(2, 2, levels=2, hash_kind="h3", hash_seed=7),
                deep_check_interval=1,
            ),
            LRU(),
        ),
    )
    result = run_model_check(depth=8, configs=(cfg,))
    assert result.ok
    assert result.results[0].states <= 4


# ---------------------------------------------------------------------------
# Acceptance: a planted commit-ordering bug in the two-phase controller
# must produce a counterexample with the exact access sequence.

_PHASE2_LINE = (
    "            evicted2 = repl2.addresses[node2]  # None = free slot found\n"
)
_COMMIT_CALL = "                return self._land(repl, node, evicted2)"
_EARLY_COMMIT = (
    "            repl.addresses[node] = None\n"
    "            first = self._land(repl, node, evicted2)\n"
)


def _load_planted_twophase(tmp_path):
    """Scratch copy of twophase.py with phase-1 committed *before* the
    phase-2 eviction instead of after it — the ordering the paper's
    two-phase protocol exists to forbid."""
    source = (SRC / "core" / "twophase.py").read_text(encoding="utf-8")
    assert _PHASE2_LINE in source
    assert _COMMIT_CALL in source
    planted = source.replace(
        _PHASE2_LINE, _PHASE2_LINE + _EARLY_COMMIT, 1
    ).replace(_COMMIT_CALL, "                return first", 1)
    assert planted != source
    path = tmp_path / "twophase_planted.py"
    path.write_text(planted, encoding="utf-8")

    spec = importlib.util.spec_from_file_location("twophase_planted", path)
    mod = importlib.util.module_from_spec(spec)
    # Register before exec: the checker pickles controller instances,
    # and pickle resolves classes through sys.modules.
    sys.modules["twophase_planted"] = mod
    try:
        spec.loader.exec_module(mod)
        yield mod
    finally:
        del sys.modules["twophase_planted"]


@pytest.fixture
def planted_twophase(tmp_path):
    yield from _load_planted_twophase(tmp_path)


def _twophase_config(cls):
    def build():
        cache = cls(
            ZCacheArray(2, 2, levels=2, hash_kind="h3", hash_seed=11),
            LRU(),
            name="planted-2p",
        )
        cache.array = SanitizedArray(cache.array, deep_check_interval=1)
        return cache

    return ModelConfig(
        name="twophase-planted",
        description="two-phase controller with planted commit reorder",
        addresses=(1, 2, 3, 4, 5),
        build_reference=build,
    )


def test_planted_commit_reorder_is_caught(planted_twophase):
    cfg = _twophase_config(planted_twophase.TwoPhaseZCache)
    result = run_model_check(depth=5, configs=(cfg,))
    assert not result.ok, "planted commit-order bug escaped the checker"
    violation = result.violations()[0]
    assert violation.config == "twophase-planted"
    # The counterexample is a concrete replayable op sequence reaching
    # the reorder: phase-1 runs early, so the later eviction step finds
    # the board already rewritten.
    assert len(violation.sequence) <= 5
    assert all(step.startswith("r:") for step in violation.sequence)
    assert "raised" in violation.message or "invariant" in violation.message


def test_unplanted_twophase_is_clean_at_same_depth():
    # The exact config the planted test uses, minus the plant: proves
    # the counterexample comes from the bug, not the configuration.
    from repro.core.twophase import TwoPhaseZCache

    cfg = _twophase_config(TwoPhaseZCache)
    result = run_model_check(depth=5, configs=(cfg,))
    assert result.ok, result.render()
