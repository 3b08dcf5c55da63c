"""Tests for the dynamic lockset sanitizer, the serve layer's race checker."""

import functools
import importlib.util
import threading
import types
from pathlib import Path

import pytest

import repro.serve.shard
from repro.analysis import lockset
from repro.analysis.lockset import (
    LocksetSanitizer,
    instrumented_replay,
    planted_unlocked_replay,
)
from repro.analysis.sanitizer import InvariantViolation
from repro.analysis.spec import (
    INVARIANT_REGISTRY,
    SCOPE_THREAD,
    ThreadCheck,
    invariants_for,
)
from repro.serve.shard import MISS, CacheShard


# ---------------------------------------------------------------------------
# Registry wiring


def test_thread_scope_has_both_invariants():
    names = {inv.name for inv in invariants_for(SCOPE_THREAD)}
    assert names == {"lockset-discipline", "lock-order-acyclic"}


def test_lockset_discipline_fires_only_on_empty_shared_modified():
    inv = INVARIANT_REGISTRY["lockset-discipline"]
    bad = ThreadCheck(
        field="_entries", op="__setitem__", state="shared-modified",
        lockset=frozenset(), threads=2,
    )
    assert inv.check(bad) is not None
    guarded = ThreadCheck(
        field="_entries", op="__setitem__", state="shared-modified",
        lockset=frozenset({"CacheShard.lock"}), threads=2,
    )
    assert inv.check(guarded) is None
    read_only = ThreadCheck(
        field="_entries", op="get", state="shared",
        lockset=frozenset(), threads=2,
    )
    assert inv.check(read_only) is None


def test_lock_order_invariant_renders_the_cycle():
    inv = INVARIANT_REGISTRY["lock-order-acyclic"]
    detail = inv.check(ThreadCheck(cycle=("B", "A", "B")))
    assert detail is not None
    assert "B -> A -> B" in detail
    assert inv.check(ThreadCheck(field="x", state="exclusive")) is None


# ---------------------------------------------------------------------------
# Instrumentation mechanics


def _tiny_shard():
    return CacheShard(num_ways=2, lines_per_way=16, levels=2)


def test_instrumented_shard_still_serves():
    shard = _tiny_shard()
    LocksetSanitizer(shard)
    shard.put(0x10, "k", "v")
    assert shard.get(0x10) == "v"
    assert shard.get(0x999) is MISS
    assert shard.invalidate(0x10)
    assert shard.get(0x10) is MISS
    shard.check_consistency()


def test_single_threaded_traffic_stays_exclusive_and_clean():
    shard = _tiny_shard()
    san = LocksetSanitizer(shard)
    for addr in range(64):
        shard.put(addr, addr, addr)
        shard.get(addr)
    assert san.reports == []
    states = san.field_states()
    assert states["_entries"] == "exclusive"
    assert states["zcache"] == "exclusive"


def test_locked_cross_thread_writes_keep_the_lockset():
    shard = _tiny_shard()
    san = LocksetSanitizer(shard)
    shard.put(0x10, 0, 0)  # main thread becomes the first owner
    t = threading.Thread(target=shard.put, args=(0x20, 1, 1))
    t.start()
    t.join()
    assert san.reports == []
    assert san.field_states()["_entries"] == "shared-modified"


def test_unlocked_cross_thread_write_is_reported():
    shard = _tiny_shard()
    san = LocksetSanitizer(shard)

    def bare_write(val):
        shard._entries[0x30] = (val, val, None)

    bare_write(0)  # owner: main thread, no lock held
    t = threading.Thread(target=bare_write, args=(1,))
    t.start()
    t.join()
    kinds = {r.kind for r in san.reports}
    assert kinds == {"lockset-race"}
    assert any(r.field == "_entries" for r in san.reports)
    assert any("empty candidate lockset" in r.detail for r in san.reports)


def test_offlock_recency_rebind_is_reported():
    shard = _tiny_shard()
    san = LocksetSanitizer(shard)
    shard._recency = [1]  # first rebind: main thread owns the field

    def rebind():
        shard._recency = []  # second thread, no lock: empty lockset

    t = threading.Thread(target=rebind)
    t.start()
    t.join()
    assert any(
        r.field == "_recency" and r.kind == "lockset-race"
        for r in san.reports
    )


def test_recency_appends_are_sanctioned():
    shard = _tiny_shard()
    san = LocksetSanitizer(shard)
    shard.put(0x10, 0, 0)

    def read_burst():
        for _ in range(50):
            shard.get(0x10)

    pool = [threading.Thread(target=read_burst) for _ in range(2)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    # Lock-free reads and GIL-atomic appends never participate, so the
    # buffer is not even shared yet — only writers rebind it.
    assert san.reports == []


def test_strict_mode_raises_at_the_offending_access():
    shard = _tiny_shard()
    san = LocksetSanitizer(shard, strict=True)
    shard._entries[0x40] = (0, 0, None)

    caught = []

    def bare_write():
        try:
            shard._entries[0x40] = (1, 1, None)
        except InvariantViolation as exc:
            caught.append(exc)

    t = threading.Thread(target=bare_write)
    t.start()
    t.join()
    assert len(caught) == 1
    assert caught[0].kind == "lockset-race"
    assert san.reports  # the report is recorded before the raise


# ---------------------------------------------------------------------------
# Lock-order detector


def test_opposite_order_acquisitions_close_a_cycle():
    san = LocksetSanitizer(_tiny_shard())
    a = san.track_lock("A")
    b = san.track_lock("B")
    with a:
        with b:
            pass
    assert san.reports == []
    with b:
        with a:
            pass
    orders = [r for r in san.reports if r.kind == "lock-order"]
    assert len(orders) == 1
    assert "B -> A -> B" in orders[0].detail


def test_reacquiring_the_shard_lock_raises_instead_of_hanging():
    shard = _tiny_shard()
    san = LocksetSanitizer(shard)
    with shard.lock:
        with pytest.raises(InvariantViolation) as exc:
            shard.lock.acquire()
    assert exc.value.kind == "lock-order"
    assert any(r.kind == "lock-order" for r in san.reports)


# ---------------------------------------------------------------------------
# Replay drivers (the CLI/smoke entry points)


def test_instrumented_replay_of_production_shard_is_clean():
    san = instrumented_replay(ops=400, threads=3, seed=7)
    assert san.reports == []
    assert san.accesses > 0
    # Real contention reached the shared states without a report: the
    # shard lock survived every lockset intersection.
    assert san.field_states()["_entries"] == "shared-modified"
    san.shard.check_consistency()


def test_planted_unlocked_replay_is_flagged():
    san = planted_unlocked_replay(ops=400, threads=2, seed=7)
    flagged = {r.field for r in san.reports if r.kind == "lockset-race"}
    assert {"_entries"} <= flagged
    assert "lockset-race" in san.summary() or san.reports


def test_planted_race_is_flagged_between_workers_that_never_overlap(monkeypatch):
    # Once the first worker has exited, the OS may give the second one
    # its thread id. Make that certain: every thread gets one id.
    reused = types.SimpleNamespace(**vars(threading))
    reused.get_ident = lambda: 1
    monkeypatch.setattr(lockset, "threading", reused)
    san = planted_unlocked_replay(ops=400, threads=1, seed=7)
    assert san.reports == []  # one worker alone races with no one

    def second_worker():
        for address in range(64):
            san.shard.put(address, address, address)

    worker = threading.Thread(target=second_worker)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    flagged = {r.field for r in san.reports if r.kind == "lockset-race"}
    assert {"_entries"} <= flagged


# ---------------------------------------------------------------------------
# Regressions planted into a copy of the production serve/shard.py, each
# replayed through instrumented_replay next to its unedited twin.

#: name -> (anchor, planted text, shard keywords, report kind, fields)
PLANTS = {
    # CacheShard.invalidate's critical section without its lock
    "unlocked-invalidate": (
        "        with self.lock:\n"
        "            self._drain_recency()\n"
        "            resident = address in self.cache\n",
        "        if True:\n"
        "            self._drain_recency()\n"
        "            resident = address in self.cache\n",
        {},
        "lockset-race",
        {"_entries", "zcache", "_recency"},
    ),
    # The first match is the retry-exhausted fallback fill, which
    # max_retries=0 sends every put through.
    "double-acquire": (
        "        with self.lock:\n"
        "            self._drain_recency()\n",
        "        with self.lock:\n"
        "            with self.lock:\n"
        "                self._drain_recency()\n",
        {"max_retries": 0},
        "lock-order",
        {"CacheShard.lock"},
    ),
}


def _replay_shard_copy(tmp_path, monkeypatch, plant, planted):
    anchor, replacement, kwargs, _, _ = PLANTS[plant]
    text = Path(repro.serve.shard.__file__).read_text(encoding="utf-8")
    assert anchor in text
    if planted:
        text = text.replace(anchor, replacement, 1)
    path = tmp_path / "shard_copy.py"
    path.write_text(text, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("shard_copy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(
        repro.serve.shard, "CacheShard",
        functools.partial(module.CacheShard, **kwargs),
    )
    return instrumented_replay(ops=400, threads=3, seed=7)


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_replay_flags_a_regression_planted_in_the_shard(
    tmp_path, monkeypatch, plant
):
    san = _replay_shard_copy(tmp_path, monkeypatch, plant, planted=True)
    _, _, _, kind, fields = PLANTS[plant]
    assert {r.field for r in san.reports if r.kind == kind} >= fields


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_replay_of_the_unplanted_shard_copy_is_clean(
    tmp_path, monkeypatch, plant
):
    san = _replay_shard_copy(tmp_path, monkeypatch, plant, planted=False)
    assert san.reports == []
    san.shard.check_consistency()
