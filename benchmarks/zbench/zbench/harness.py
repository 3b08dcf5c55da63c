"""One workload run: set-up, timed repeats, checks, and the traced pass.

``run_workload`` is what ``run.py --workload NAME`` executes in its own
process. A run = set-up (timed, several times) + timed repeats over the
same pre-materialised input with fresh program state per repeat, for
``seconds`` seconds; every host-time metric is the median over repeats,
with quartiles and sample count alongside. With ``trace`` the run keeps
a third of the time for untraced repeats (the tracing-overhead base),
then runs every pass once under the span recorder, the reference
``dict``+LRU loop, the sweep-driver rungs and the micro-rung ladder.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
from time import perf_counter
from typing import Any, Callable, Optional

from repro.experiments.runner import ExperimentScale, run_design_sweep
from repro.serve.service import key_address
from repro.sim.cmp import MISS as EVENT_MISS

from zbench import metrics, passes
from zbench.calib import Clock
from zbench.ladder import run_ladder
from zbench.passes import PassResult
from zbench.spans import SpanRecorder

#: set-ups per run (``setup_s`` is their median, plus the one-off imports)
SETUPS = 3

SETUP = {"sim": passes.sim_setup, "assoc": passes.assoc_setup, "serve": passes.serve_setup}
RUN = {"sim": passes.sim_run, "assoc": passes.assoc_run, "serve": passes.serve_run}


def quartiles(values: list[float]) -> dict:
    """Median, quartiles and count of one metric's per-repeat values."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def _timed(calibrated: list[float], raw: list[float]) -> dict:
    """A host time: quartiles of the calibrated samples, raw median alongside."""
    return dict(quartiles(calibrated), raw=statistics.median(raw))


def _release(inputs: Optional[dict]) -> None:
    if inputs and inputs.get("server") is not None:
        inputs["server"].stop()


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
    import_s: tuple[float, float] = (0.0, 0.0),
    golden: Optional[dict] = None,
    trace_path: Optional[str] = None,
    tweak_inputs: Optional[Callable[[dict], None]] = None,
) -> dict:
    """Run one workload; returns ``{"metrics", "attempted", "failed", ...}``.

    ``import_s`` is what the imports of :mod:`repro` took, in calibrated
    and in raw seconds (they are part of set-up but happen once, before
    this module exists). ``golden`` maps metric name -> the exact value expected for this
    (workload, seed, size); each compared value is one more operation.
    ``tweak_inputs`` lets the self-test plant a defect in the inputs.
    """
    workload = metrics.WORKLOAD_BY_NAME[name]
    kind = workload.kind
    size = workload.quick if quick else workload.full
    checks = PassResult()  # operations outside the passes: l2 checks, golden
    out: dict[str, dict] = {}
    inputs: Optional[dict] = None
    try:
        setups = []
        for _ in range(SETUPS):
            _release(inputs)
            clock = Clock()
            with clock.segment():
                inputs = SETUP[kind](size, seed)
            setups.append(clock)
        assert inputs is not None
        if tweak_inputs is not None:
            tweak_inputs(inputs)
        out["setup_s"] = _timed([import_s[0] + c.cal_s for c in setups],
                                [import_s[1] + c.raw_s for c in setups])

        off = SpanRecorder(enabled=False)
        budget = seconds / 3 if trace else seconds
        repeats: list[PassResult] = []
        start = perf_counter()
        while not repeats or perf_counter() - start < budget:
            repeats.append(RUN[kind](inputs, off))
        if kind == "sim":
            for d in metrics.DESIGNS:
                passes.check_l2(inputs, d, checks)

        out["wall_s"] = _timed([r.wall_s for r in repeats], [r.raw_s for r in repeats])
        # Steadier than the median of whole repeats: every repeat times the same
        # segments, so take each segment's median over the repeats and add them up.
        out["wall_s"]["value"] = sum(
            statistics.median(samples)
            for samples in zip(*(r.segments_s for r in repeats))
        )
        out["hit_rate"] = quartiles([r.hits / r.lookups for r in repeats])
        out["bench.calib_ns"] = quartiles([ns for r in repeats for ns in r.calib_ns])
        for key, value in repeats[-1].values.items():
            # exact values repeat; measured ones (lat_*, rps_1c) get quartiles
            samples = [r.values[key] for r in repeats]
            out[key] = quartiles(samples) if isinstance(value, float) else {"value": value}

        shares = (
            _traced(name, kind, inputs, seed, quick, repeats, out, checks, trace_path)
            if trace else {}
        )
    finally:
        _release(inputs)

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if size.get("tcp"):  # the program under test lives in the server process
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = {"value": usage / 1024.0}

    if golden is not None:
        for key, want in golden.items():
            checks.attempted += 1
            got = out.get(key, {}).get("value")
            same = got == want if isinstance(want, int) else (
                isinstance(got, float) and math.isclose(got, want, rel_tol=1e-9)
            )
            if not same:
                checks.fail(1, f"golden {key}: expected {want!r}, got {got!r}")

    for r in repeats:
        checks.absorb(r)
    out["fail_share"] = {"value": checks.failed / checks.attempted}
    for key, entry in out.items():
        entry["unit"] = metrics.BY_NAME[key].unit
    return {
        "workload": name, "seed": seed, "sizes": dict(size), "repeats": len(repeats),
        "attempted": checks.attempted, "failed": checks.failed,
        "errors": checks.errors[:5],
        "metrics": out,
        #: traced run only: span name -> share of the traced pass's wall
        "trace_shares": shares,
    }


def exact_values(result: dict) -> dict:
    """The part of a result that must repeat bit for bit (the golden part)."""
    kind = metrics.WORKLOAD_BY_NAME[result["workload"]].kind
    return {
        key: entry["value"]
        for key, entry in result["metrics"].items()
        if metrics.BY_NAME[key].exact or (key == "hit_rate" and kind != "serve")
    }


# ---------------------------------------------------------------------------
# the traced pass
# ---------------------------------------------------------------------------

def _traced(name: str, kind: str, inputs: dict, seed: int, quick: bool,
            repeats: list[PassResult], out: dict, checks: PassResult,
            trace_path: Optional[str]) -> dict[str, float]:
    """Every pass once under the recorder, the reference loop, the sweep
    driver and the ladder; fills ``out`` with the per-layer metrics and
    returns each span name's share of the workload's own traced pass."""
    spans = SpanRecorder()
    probe = metrics.PROBE_QUICK if quick else metrics.PROBE
    two_cpus = (os.cpu_count() or 1) > 1
    traced: dict[str, PassResult] = {}
    owned: dict[str, dict] = {}
    try:
        for k in ("sim", "assoc", "serve"):
            owned[k] = inputs if k == kind else SETUP[k](probe[k], seed)
            first, known = len(spans.name), len(out)
            if k == "serve":
                # Threads are not traced: the counters and latencies of the
                # probe come from an untraced repeat, the spans from one client.
                if k == kind:
                    base = repeats[-1]
                else:
                    base = passes.serve_run(owned[k], spans)
                    checks.absorb(base)
                res = traced[k] = passes.serve_traced(owned[k], spans)
                _serve_layer(base, res, spans, first, out, k == kind, two_cpus)
                ref = passes.dictlru_run(owned[k])
                checks.absorb(ref)
                out.update({key: {"value": v} for key, v in ref.values.items()})
            else:
                res = traced[k] = RUN[k](owned[k], spans)
                if k != kind:
                    out.update({key: {"value": v} for key, v in res.values.items()})
                _span_layer(k, res, spans, first, out)
            checks.absorb(res)
            if k != kind:
                _flag_probe(out, known)
        known = len(out)
        _sweep_driver(owned["sim"], traced["sim"], spans, out, two_cpus)
        if kind != "sim":
            _flag_probe(out, known)

        if kind == "sim":
            sample = [ev[2] for ev in inputs["captured"].events if ev[0] == EVENT_MISS]
            keys: list[Any] = sample
        elif kind == "assoc":
            sample = [a for a, _w in inputs["trace"]]
            keys = sample
        else:
            keys = inputs["one"][0][0]
            sample = [key_address(k) for k in keys]
        with spans.span("pass.ladder"):
            values = run_ladder(spans, sample, keys, seed, 40 if quick else 400,
                                owned["sim"], checks)
        out.update({key: {"value": v} for key, v in values.items()})
    finally:
        for k, its in owned.items():
            if k != kind:
                _release(its)

    # -- the harness's own numbers, from the workload's own traced pass
    native = traced[kind]
    root = spans.name.index(f"pass.{kind}")
    last = next((i for i in range(root + 1, len(spans.name)) if spans.parent[i] == -1),
                len(spans.name))
    totals = spans.totals(root, last)
    wall_ns = spans.end[root] - spans.start[root]
    glue = totals[f"pass.{kind}"][0] + totals.get("request", (0, 0))[0]
    out["bench.residual_share"] = {"value": glue / wall_ns}
    # Same work both ways (serve: the 1-client stream), in this host's seconds.
    out["bench.trace_overhead_pct"] = {
        "value": (native.raw_s / out["wall_s"]["raw"] - 1.0) * 100.0
    }
    if trace_path is not None:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        spans.dump(trace_path, {"workload": name, "seed": seed, "quick": quick})
    return {n: ns / wall_ns for n, (ns, _c) in sorted(totals.items())}


def _flag_probe(out: dict, known: int) -> None:
    """Mark the metrics added since ``known`` as measured on the probe
    input, not on the workload's own."""
    for key in list(out)[known:]:
        out[key]["probe"] = True


def _span_layer(kind: str, res: PassResult, spans: SpanRecorder, first: int,
                out: dict) -> None:
    """sim.* / assoc.* host times, from the spans of one traced pass."""
    totals = spans.totals(first)
    seconds = {n: ns / 1e9 for n, (ns, _c) in totals.items()}
    if kind == "assoc":
        out["assoc.fig2_s"] = {"value": seconds["assoc.fig2"]}
        for d in metrics.DESIGNS:
            out[f"assoc.measure_s.{d}"] = {"value": seconds[f"assoc.measure.{d}"]}
        return
    events = res.values["sim.l2_events"]
    out["sim.capture_s"] = {"value": seconds["sim.capture"]}
    out["sim.capture_ns_per_access"] = {"value": seconds["sim.capture"] / res.work * 1e9}
    for d in metrics.DESIGNS:
        out[f"sim.replay_s.{d}"] = {"value": seconds[f"sim.replay.{d}"]}
        out[f"sim.replay_us_per_event.{d}"] = {
            "value": seconds[f"sim.replay.{d}"] / events * 1e6
        }


def _serve_layer(base: PassResult, res: PassResult, spans: SpanRecorder, first: int,
                 out: dict, native: bool, two_cpus: bool) -> None:
    """serve.* from one untraced repeat (counters) and one traced client."""
    if not native:
        out.update({k: {"value": v} for k, v in base.values.items()})
    if two_cpus:
        out["serve.c2_over_c1"] = {"value": base.values["rps"] / base.values["rps_1c"]}
    root = spans.name.index("pass.serve", first)
    wall_ns = spans.end[root] - spans.start[root]
    outcome = res.values.pop("outcome")
    by_outcome: dict[int, list[int]] = {1: [], 2: []}
    requests = (i for i in range(root + 1, len(spans.name)) if spans.name[i] == "request")
    for i, code in zip(requests, outcome):
        if code:
            by_outcome[code].append(spans.end[i] - spans.start[i])
    for key, code in (("serve.hit_p50_us", 1), ("serve.miss_p50_us", 2)):
        out[key] = {"value": statistics.median(by_outcome[code]) / 1e3
                    if by_outcome[code] else 0.0}
    totals = spans.totals(root)
    for key, names in (("serve.get_busy_share", ("serve.shard_get", "serve.tcp_get")),
                       ("serve.put_busy_share", ("serve.shard_put", "serve.tcp_put"))):
        out[key] = {"value": sum(totals.get(n, (0, 0))[0] for n in names) / wall_ns}


def _sweep_driver(inputs: dict, direct: PassResult, spans: SpanRecorder, out: dict,
                  two_cpus: bool) -> None:
    """experiments.*: ``run_design_sweep`` against the direct capture+replays."""
    designs = list(passes.DESIGN_CFG.values())

    def sweep(jobs: int) -> float:
        start = perf_counter()
        for spec, instructions in inputs["proxies"]:
            run_design_sweep(
                spec.name, designs,
                scale=ExperimentScale(instructions, seed=inputs["seed"]), jobs=jobs,
            )
        return perf_counter() - start

    with spans.span("experiments.run_design_sweep"):
        serial = sweep(1)
    out["experiments.sweep_overhead_s"] = {"value": serial - direct.raw_s}
    if two_cpus:  # no scaling number on one CPU
        with spans.span("experiments.run_design_sweep.j2"):
            out["experiments.parallel_speedup_j2"] = {"value": serial / sweep(2)}
