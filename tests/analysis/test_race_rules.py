"""Fixture + acceptance tests for the ZRace deep rules (ZS110-ZS113).

Mirrors the ZProve conventions: every rule has a flagged fixture with
pinned line numbers and a clean twin under ``fixtures/deep/serve/``;
the acceptance tests plant the three serve-layer race regressions the
rules exist to catch — a dropped shard-lock acquisition, a deadlocking
double acquisition, and a mutation on ``prepare_fill``'s off-lock
path — into scratch copies of the production tree.
"""

from pathlib import Path

import pytest

from repro.analysis.semantic import SemanticModel, run_deep
from repro.analysis.semantic.race import (
    LockDisciplineRule,
    LockOrderRule,
    OffLockPurityRule,
    RaceAnalysis,
    ThreadEscapeRule,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "deep" / "serve"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def deep_findings(path, code):
    report, _ = run_deep([path], select=[code])
    return [f for f in report.findings if f.code == code]


# ---------------------------------------------------------------------------
# Fixtures: pinned lines and clean twins


FLAGGED = [
    ("zs110_unlocked_mutation.py", "ZS110", [14, 19, 20, 24]),
    ("zs111_lock_order.py", "ZS111", [14, 19, 24, 27]),
    ("zs112_offlock_mutation.py", "ZS112", [16, 27]),
    ("zs113_thread_escape.py", "ZS113", [10, 15]),
]

CLEAN = [
    ("zs110_clean.py", "ZS110"),
    ("zs111_clean.py", "ZS111"),
    ("zs112_clean.py", "ZS112"),
    ("zs113_clean.py", "ZS113"),
]


@pytest.mark.parametrize("name,code,lines", FLAGGED)
def test_flagged_fixture_pins_exact_lines(name, code, lines):
    findings = deep_findings(FIXTURES / name, code)
    assert [f.line for f in findings] == lines


@pytest.mark.parametrize("name,code", CLEAN)
def test_clean_twin_has_no_findings(name, code):
    assert deep_findings(FIXTURES / name, code) == []


def test_zs110_message_names_the_owning_lock():
    findings = deep_findings(
        FIXTURES / "zs110_unlocked_mutation.py", "ZS110"
    )
    assert all("Shard.lock" in f.message for f in findings)
    assert any("zrace: atomic" in f.message for f in findings)


def test_zs111_distinguishes_cycle_blocking_and_raw_acquire():
    messages = [
        f.message
        for f in deep_findings(FIXTURES / "zs111_lock_order.py", "ZS111")
    ]
    assert sum("acquisition cycle" in m for m in messages) == 2
    assert sum("blocking call 'recv'" in m for m in messages) == 1
    assert sum("raw .acquire()" in m for m in messages) == 1


def test_suppression_comment_silences_a_race_finding(tmp_path):
    # Path parts must keep "serve" or the rule will not run at all.
    scratch = tmp_path / "serve"
    scratch.mkdir()
    source = FIXTURES / "zs110_unlocked_mutation.py"
    lines = source.read_text(encoding="utf-8").splitlines()
    lines[13] = lines[13].split("#")[0].rstrip() + "  # zsan: ignore[ZS110]"
    target = scratch / source.name
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert [f.line for f in deep_findings(target, "ZS110")] == [19, 20, 24]


# ---------------------------------------------------------------------------
# The analysis layer itself, over the production tree


@pytest.fixture(scope="module")
def src_races():
    model = SemanticModel.build([SRC])
    analysis = RaceAnalysis(model)
    analysis.entry_locksets()  # force the full scan
    return analysis


def test_thread_roots_cover_loadgen_and_server(src_races):
    labels = {root.label for root in src_races.thread_roots()}
    assert any("_worker" in label for label in labels)
    assert any("handle" in label for label in labels)


def test_cacheshard_is_a_guarded_class(src_races):
    guarded = src_races.guarded_in("repro.serve.shard")
    assert "CacheShard" in guarded
    shard = guarded["CacheShard"]
    assert shard.lock_tokens == frozenset({"CacheShard.lock"})
    assert {"_entries", "_recency", "cache"} <= set(shard.fields)


def test_locked_helpers_inherit_the_shard_lock_on_entry(src_races):
    # _drain_recency is only ever called under the shard lock: its
    # entry lockset must carry it, or its recency-buffer swap (and
    # every helper like it) would be a false positive.
    entry = src_races.entry_locksets()
    key = ("repro.serve.shard", "CacheShard._drain_recency")
    assert "CacheShard.lock" in entry[key]


def test_lock_order_graph_of_src_is_acyclic(src_races):
    assert src_races.cyclic_edges() == set()


# ---------------------------------------------------------------------------
# Planted acceptance: the three serve-layer races


def _scratch_tree(tmp_path):
    import shutil

    scratch = tmp_path / "repro"
    shutil.copytree(SRC, scratch)
    return scratch


def test_zs110_catches_removed_shard_lock(tmp_path):
    scratch = _scratch_tree(tmp_path)
    shard = scratch / "serve" / "shard.py"
    text = shard.read_text(encoding="utf-8")
    anchor = (
        "        with self.lock:\n"
        "            self._drain_recency()\n"
        "            resident = address in self.cache\n"
    )
    assert anchor in text  # CacheShard.invalidate's critical section
    planted = text.replace(
        anchor,
        anchor.replace("with self.lock:", "if True:"),
        1,
    )
    shard.write_text(planted, encoding="utf-8")

    report, _ = run_deep([scratch], rules=[LockDisciplineRule()])
    findings = [f for f in report.findings if f.code == "ZS110"]
    assert findings, "removed shard-lock acquisition was not caught"
    assert any("CacheShard.invalidate" in f.message for f in findings)
    assert all("CacheShard.lock" in f.message for f in findings)
    assert all(f.path.endswith("shard.py") for f in findings)


def test_zs111_catches_double_acquisition(tmp_path):
    scratch = _scratch_tree(tmp_path)
    shard = scratch / "serve" / "shard.py"
    text = shard.read_text(encoding="utf-8")
    anchor = (
        "        with self.lock:\n"
        "            self._drain_recency()\n"
    )
    assert anchor in text
    planted = text.replace(
        anchor,
        "        with self.lock:\n"
        "            with self.lock:\n"
        "                self._drain_recency()\n",
        1,
    )
    shard.write_text(planted, encoding="utf-8")

    report, _ = run_deep([scratch], rules=[LockOrderRule()])
    findings = [f for f in report.findings if f.code == "ZS111"]
    assert findings, "double lock acquisition was not caught"
    assert any(
        "re-acquires non-reentrant 'CacheShard.lock'" in f.message
        for f in findings
    )


def test_zs112_catches_mutation_planted_in_prepare_fill(tmp_path):
    scratch = _scratch_tree(tmp_path)
    twophase = scratch / "core" / "twophase.py"
    text = twophase.read_text(encoding="utf-8")
    anchor = "    def prepare_fill(self, address: int) -> Replacement:\n"
    assert anchor in text
    planted = text.replace(
        anchor, anchor + "        self.array._pos.pop(address, None)\n", 1
    )
    twophase.write_text(planted, encoding="utf-8")

    report, _ = run_deep([scratch], rules=[OffLockPurityRule()])
    findings = [f for f in report.findings if f.code == "ZS112"]
    assert findings, "off-lock mutation in prepare_fill was not caught"
    assert any("prepare_fill" in f.message for f in findings)
    assert all(f.path.endswith("twophase.py") for f in findings)


@pytest.mark.parametrize(
    "rule",
    [LockDisciplineRule, LockOrderRule, OffLockPurityRule, ThreadEscapeRule],
)
def test_race_rules_pass_unmodified_tree(tmp_path, rule):
    scratch = _scratch_tree(tmp_path)
    report, _ = run_deep([scratch], rules=[rule()])
    assert [f for f in report.findings if f.code == rule.code] == []
