"""ZBench self-test, at ``--quick`` sizes.

    PYTHONPATH=src python -m pytest benchmarks/zbench -q

Not part of the tier-1 ``testpaths``: it checks the harness, not the
program. Covers the tables against ``BENCHMARK.json``, that every metric
is emitted with its unit, that exact metrics repeat, that a wrong golden
value and a client that mis-checks one value both raise ``fail_share``,
and that scaling numbers are withheld on one CPU.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path[:0] = [str(HERE), str(REPO / "src")]

import compare  # noqa: E402
from zbench import harness, metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def quick(name: str, trace: bool = False, **kw) -> dict:
    return harness.run_workload(name, seed=1, seconds=0.05, trace=trace, quick=True, **kw)


@pytest.fixture(scope="module")
def untraced() -> dict:
    return {w.name: quick(w.name) for w in metrics.WORKLOADS}


@pytest.fixture(scope="module")
def traced() -> dict:
    return {name: quick(name, trace=True) for name in ("assoc_cdf", "serve_mixed_tcp")}


def test_benchmark_json_is_the_tables() -> None:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert spec == metrics.benchmark_json(spec["run_seconds"])
    names = [e["name"] for k in ("workloads", "end_to_end", "per_layer") for e in spec[k]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert 2 <= len(spec["workloads"]) <= 8
    assert len(spec["end_to_end"]) <= 16 and len(spec["per_layer"]) <= 128
    assert all(0 <= e["bound"] <= 0.25 for e in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in spec["end_to_end"]


def test_every_metric_is_emitted_with_its_unit(untraced: dict, traced: dict) -> None:
    for result in untraced.values():
        assert result["failed"] == 0, result["errors"]
        for m in metrics.CONTRACT_E2E:
            assert result["metrics"][m.name]["unit"] == m.unit
            assert result["metrics"][m.name]["value"] > 0  # never 0
    for result in traced.values():
        assert result["failed"] == 0, result["errors"]
        for m in metrics.CONTRACT_LAYER:
            assert result["metrics"][m.name]["unit"] == m.unit, m.name


def test_workloads_reach_the_regime_they_are_named_for(untraced: dict) -> None:
    hot, pressure, tcp = (untraced[n]["metrics"] for n in metrics.SERVE)
    assert hot["hit_rate"]["value"] > 0.99 and hot["serve.evictions"]["value"] == 0
    for m in (pressure, tcp):
        assert m["hit_rate"]["value"] < 0.9 and m["serve.evictions"]["value"] > 0


def test_exact_metrics_repeat(untraced: dict, traced: dict) -> None:
    for name in metrics.SIM + ("assoc_cdf",):
        again = harness.exact_values(quick(name))
        assert again and again == harness.exact_values(untraced[name])


def test_one_cpu_prints_no_scaling_number(traced: dict, monkeypatch) -> None:
    both = traced["assoc_cdf"]
    assert "serve.c2_over_c1" in both["metrics"]
    assert "experiments.parallel_speedup_j2" in both["metrics"]
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 1)
    one = quick("assoc_cdf", trace=True)
    assert "serve.c2_over_c1" not in one["metrics"]
    assert "experiments.parallel_speedup_j2" not in one["metrics"]
    # and the traced pass's exact counts do not depend on it
    assert harness.exact_values(one) == harness.exact_values(both)


def test_a_corrupted_golden_value_raises_fail_share(untraced: dict) -> None:
    golden = harness.exact_values(untraced["assoc_cdf"])
    assert quick("assoc_cdf", golden=golden)["metrics"]["fail_share"]["value"] == 0
    golden["ks_xn_z52"] *= 1.001
    bad = quick("assoc_cdf", golden=golden)
    assert bad["failed"] == 1 and bad["metrics"]["fail_share"]["value"] > 0


def test_a_client_that_mischecks_one_value_raises_fail_share() -> None:
    def plant(inputs: dict) -> None:
        hottest = inputs["keys"][0]
        inputs["expected"] = {**inputs["values"], hottest: -1}

    bad = quick("serve_hot", tweak_inputs=plant)
    assert bad["failed"] > 0 and bad["metrics"]["fail_share"]["value"] > 0


def test_command_line_contract(tmp_path: Path) -> None:
    cmd = [sys.executable, "benchmarks/zbench/run.py", "--workload", "serve_pressure",
           "--seed", "3", "--seconds", "0.1", "--trace", "0", "--quick"]
    done = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, check=True)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    assert set(last["metrics"]) == {m.name for m in metrics.CONTRACT_E2E}
    # In a directory that holds only the benchmark there is no program to measure.
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "zbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    alone = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True)
    assert alone.returncode != 0 and not alone.stdout.strip()


def test_compare_applies_direction_and_bound(tmp_path: Path) -> None:
    def result(wall: float, misses: int) -> dict:
        return {"workloads": {"sweep_pressure": {"metrics": {
            "wall_s": {"value": wall, "q1": wall * 0.99, "q3": wall * 1.01, "n": 5},
            "sim.l2_misses.z4_52": {"value": misses},
        }}}}

    files = []
    for i, (wall, misses) in enumerate([(4.0, 100), (4.2, 100), (5.4, 100), (4.0, 101)]):
        files.append(tmp_path / f"r{i}.json")
        files[-1].write_text(json.dumps(result(wall, misses)))
    base = str(files[0])
    assert compare.main([base, str(files[1])]) == 0  # +5% is within the bound
    assert compare.main([base, str(files[2])]) == 1  # +35% is not
    assert compare.main([base, str(files[3])]) == 1  # an exact count moved
