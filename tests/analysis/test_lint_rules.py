"""Per-rule tests: each fixture trips its rule, clean variants do not.

The fixture files under ``tests/analysis/fixtures/`` are intentionally
violating (the acceptance contract is that ``zcache-repro lint`` exits
non-zero with the right code on every one of them); the negative cases
live inline as strings, or as the ``*_clean.py`` twins.
"""

from pathlib import Path

import pytest

from repro.analysis.lint import LintEngine
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file -> the code it must raise
FIXTURE_CODES = {
    "zs001_unseeded_random.py": "ZS001",
    "zs002_float_equality.py": "ZS002",
    "zs005_wall_clock.py": "ZS005",
    "core/zs006_counter_bypass.py": "ZS006",
    "core/zs104_hidden_state.py": "ZS104",
    "serve/zs104_thread_results.py": "ZS104",
    "core/zs109_span_discipline.py": "ZS109",
}

#: flagged fixtures whose exact lines are pinned, so a rule that drifts
#: (new false positive, lost true positive) fails loudly
PINNED_LINES = {
    "core/zs104_hidden_state.py": [3, 4, 5, 6],
    "serve/zs104_thread_results.py": [5],
    "core/zs109_span_discipline.py": [5, 6, 11, 18, 23],
}

#: clean twins: the same scope as a flagged fixture, zero findings
CLEAN_TWINS = ("core/zs104_clean.py", "serve/zs104_clean.py", "core/zs109_clean.py")


def lint(text: str, path: str = "x.py") -> set[str]:
    """Codes found in an inline snippet."""
    return {f.code for f in LintEngine().lint_text(text, path)}


class TestFixtures:
    @pytest.mark.parametrize("rel,code", sorted(FIXTURE_CODES.items()))
    def test_fixture_trips_its_rule(self, rel, code):
        findings = LintEngine().lint_file(FIXTURES / rel)
        assert findings, f"{rel} produced no findings"
        assert {f.code for f in findings} == {code}

    @pytest.mark.parametrize("rel,code", sorted(FIXTURE_CODES.items()))
    def test_cli_exits_nonzero_with_code(self, rel, code, capsys):
        exit_code = cli_main(["lint", str(FIXTURES / rel)])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert code in out

    @pytest.mark.parametrize("rel", sorted(PINNED_LINES))
    def test_fixture_pins_lines(self, rel):
        findings = LintEngine().lint_file(FIXTURES / rel)
        assert [f.line for f in findings] == PINNED_LINES[rel], "\n".join(
            f.render() for f in findings
        )

    @pytest.mark.parametrize("rel", CLEAN_TWINS)
    def test_clean_twin_has_no_findings(self, rel):
        findings = LintEngine().lint_file(FIXTURES / rel)
        assert not findings, "\n".join(f.render() for f in findings)

    def test_every_fixture_is_covered(self):
        on_disk = {str(p.relative_to(FIXTURES)) for p in FIXTURES.rglob("*.py")}
        assert on_disk == set(FIXTURE_CODES) | set(CLEAN_TWINS)


class TestZS001UnseededRandomness:
    def test_global_calls_flagged(self):
        assert lint("import random\nrandom.shuffle([1])\n") == {"ZS001"}

    def test_aliased_import_flagged(self):
        assert lint("import random as rnd\nx = rnd.random()\n") == {"ZS001"}

    def test_unseeded_random_instance_flagged(self):
        assert lint("import random\nr = random.Random()\n") == {"ZS001"}

    def test_seeded_random_instance_clean(self):
        assert lint("import random\nr = random.Random(42)\n") == set()

    def test_from_import_of_global_function_flagged(self):
        assert lint("from random import choice\n") == {"ZS001"}

    def test_from_import_of_random_class_clean(self):
        assert lint("from random import Random\nr = Random(1)\n") == set()

    def test_numpy_global_rng_flagged(self):
        assert lint("import numpy as np\nx = np.random.rand(3)\n") == {"ZS001"}

    def test_numpy_default_rng_seeded_clean(self):
        text = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert lint(text) == set()

    def test_numpy_default_rng_unseeded_flagged(self):
        text = "import numpy as np\nrng = np.random.default_rng()\n"
        assert lint(text) == {"ZS001"}

    def test_method_call_on_instance_clean(self):
        text = (
            "import random\n"
            "rng = random.Random(3)\n"
            "x = rng.choice([1, 2])\n"
        )
        assert lint(text) == set()


class TestZS002FloatEquality:
    def test_eq_against_float_literal_flagged(self):
        assert lint("ok = x == 1.5\n") == {"ZS002"}

    def test_neq_against_negative_float_flagged(self):
        assert lint("ok = x != -0.5\n") == {"ZS002"}

    def test_chained_comparison_flagged(self):
        assert lint("ok = 0 <= x == 0.3\n") == {"ZS002"}

    def test_int_equality_clean(self):
        assert lint("ok = x == 3\n") == set()

    def test_float_ordering_clean(self):
        assert lint("ok = x < 1.5 or x >= 0.5\n") == set()

    def test_isclose_suggested_pattern_clean(self):
        assert lint("import math\nok = math.isclose(x, 1.5)\n") == set()


class TestZS005WallClockGlobalState:
    def test_time_time_flagged(self):
        assert lint("import time\nt = time.time()\n") == {"ZS005"}

    def test_perf_counter_flagged(self):
        assert lint("import time\nt = time.perf_counter()\n") == {"ZS005"}

    def test_from_time_import_flagged(self):
        assert lint("from time import monotonic\n") == {"ZS005"}

    def test_datetime_now_flagged(self):
        text = "import datetime\nd = datetime.datetime.now()\n"
        assert lint(text) == {"ZS005"}

    def test_global_statement_flagged(self):
        assert lint("x = 0\ndef f():\n    global x\n    x = 1\n") == {"ZS005"}

    def test_time_sleep_clean(self):
        assert lint("import time\ntime.sleep(0)\n") == set()

    def test_cli_module_out_of_scope(self):
        text = "import time\nt = time.time()\n"
        assert LintEngine().lint_text(text, "src/repro/cli.py") == []

    def test_analysis_package_out_of_scope(self):
        text = "import time\nt = time.time()\n"
        path = "src/repro/analysis/cli.py"
        assert LintEngine().lint_text(text, path) == []

    def test_obs_package_out_of_scope(self):
        # The profiler/heartbeat measure the simulator process, which is
        # the one legitimate use of the host clock.
        text = "import time\nt = time.perf_counter()\n"
        path = "src/repro/obs/profiling.py"
        assert LintEngine().lint_text(text, path) == []


def lint_core(text: str) -> set[str]:
    """Codes for a snippet placed under a core/ path (ZS006 scope)."""
    return {
        f.code
        for f in LintEngine().lint_text(text, "src/repro/core/x.py")
    }


class TestZS006CounterBypass:
    def test_stats_facade_increment_clean(self):
        # RegistryStats.__setattr__ routes the write into the registered
        # Counter (tests/obs/test_metrics.py::TestRegistryStats).
        assert lint_core("self.stats.hits += 1\n") == set()
        assert lint_core("cache.victim_stats.swaps += 1\n") == set()

    def test_decrement_flagged(self):
        assert lint_core("self.writebacks -= 1\n") == {"ZS006"}

    def test_bare_counter_suffix_on_self_flagged(self):
        assert lint_core("self.writeback_hits += 1\n") == {"ZS006"}

    def test_vocabulary_name_on_self_flagged(self):
        assert lint_core("self.swaps += 1\n") == {"ZS006"}

    def test_subscripted_counter_list_flagged(self):
        assert lint_core("self.bank_accesses[bank] += 1\n") == {"ZS006"}

    def test_counter_value_increment_clean(self):
        assert lint_core("self._c_hits.value += 1\n") == set()

    def test_counters_dict_increment_clean(self):
        assert lint_core('sc["hits"].value += 1\n') == set()

    def test_private_accumulator_clean(self):
        assert lint_core("self._epoch_misses += 1\n") == set()

    def test_non_counter_attribute_clean(self):
        assert lint_core("self.queueing_cycles += delay\n") == set()


def lint_kernels(text: str) -> set[str]:
    """Codes for a snippet placed under a kernels/ path (fold-point scope)."""
    return {
        f.code
        for f in LintEngine().lint_text(text, "src/repro/kernels/x.py")
    }


class TestZS006KernelFoldPoints:
    # An overwriting fold (``counter.value = batch``) is a reference vs
    # turbo counter mismatch: tests/analysis/test_modelcheck.py and
    # tests/kernels/test_differential.py fail on it.
    def test_additive_fold_clean(self):
        assert lint_kernels("self._c_hits.value += batch\n") == set()

    def test_counter_ref_rebind_clean(self):
        # Rebinding the counter *reference* (stats-swap listeners) is
        # not a fold overwrite.
        assert lint_kernels("self._c_hits = cache._c_hits\n") == set()

    def test_value_overwrite_outside_kernels_not_flagged(self):
        # Resetting a counter in core/ (e.g. epoch rollover) is a
        # legitimate overwrite; the fold-point arm is kernels-only.
        assert lint_core("self._c_hits.value = 0\n") == set()

    def test_bare_counter_still_flagged_in_kernels(self):
        assert lint_kernels("self.writeback_hits += 1\n") == {"ZS006"}

    def test_non_self_plain_attribute_clean(self):
        assert lint_core("repl.tag_reads += 1\n") == set()

    def test_local_subscript_clean(self):
        assert lint_core("cycles[core] += stall\n") == set()

    def test_outside_core_and_sim_not_scoped(self):
        text = "self.writeback_hits += 1\n"
        assert LintEngine().lint_text(text, "src/repro/viz/x.py") == []


class TestZS104HiddenModuleState:
    def test_module_level_containers_flagged(self):
        text = "A = []\nB: dict = {}\nC = collections.deque()\nD = (1,)\n"
        findings = LintEngine().lint_text(text, "src/repro/core/x.py")
        assert [(f.code, f.line) for f in findings] == [
            ("ZS104", 1), ("ZS104", 2), ("ZS104", 3)
        ]

    def test_function_locals_clean(self):
        text = "def f():\n    cache = {}\n    return cache\n"
        assert lint_core(text) == set()

    def test_looks_through_try_but_not_type_checking(self):
        text = "try:\n    A = []\nexcept ImportError:\n    pass\n"
        assert lint_core(text) == {"ZS104"}
        assert lint_core("if TYPE_CHECKING:\n    A = []\n") == set()

    def test_outside_simulator_and_serve_not_scoped(self):
        assert LintEngine().lint_text("A = []\n", "src/repro/obs/x.py") == []


class TestZS109SpanDiscipline:
    def test_outside_scope_not_flagged(self):
        assert LintEngine().lint_text("s = t.span('a')\n", "src/repro/obs/x.py") == []
