"""Unit tests for the ZTrace timeline analyzers (repro.obs.timeline)."""

import json

import pytest

from repro.obs import timeline as tl
from repro.obs.spans import Span, SpanTracker


def _span(name, span_id, parent_id, start, duration, process="main",
          thread="main"):
    return Span(
        name=name, span_id=span_id, parent_id=parent_id, trace_id=1,
        process=process, thread=thread, start=start, duration=duration,
    )


def _sweep_tree():
    """A sweep tree on three tracks: root, two jobs, a nested replay.

    Layout (seconds)::

        sweep   |---------------------------| 0..10
        job.a      |--------|                 1..5   (worker-1)
        job.b      |------------------|       1..8.5 (worker-2)
          b.replay   |---------------|        1.5..8 (worker-2)
    """
    return [
        _span("sweep", 1, None, 0.0, 10.0),
        _span("job.a", 2, 1, 1.0, 4.0, process="worker-1", thread="a"),
        _span("job.b", 3, 1, 1.0, 7.5, process="worker-2", thread="b"),
        _span("replay.b", 4, 3, 1.5, 6.5, process="worker-2", thread="b"),
    ]


class TestTreeStructure:
    def test_children_index_sorted_by_start(self):
        spans = _sweep_tree()
        index = tl.children_index(spans)
        assert [s.name for s in index[1]] == ["job.a", "job.b"]
        assert [s.name for s in index[3]] == ["replay.b"]

    def test_root_spans_ignores_unknown_parents(self):
        spans = _sweep_tree()
        orphan = _span("orphan", 9, 999, 0.0, 1.0)
        roots = tl.root_spans(spans + [orphan])
        assert {s.name for s in roots} == {"sweep", "orphan"}

    def test_coverage_is_the_clipped_child_union(self):
        spans = _sweep_tree()
        # children of sweep: [1, 5] U [1, 8.5] = 7.5s of a 10s root
        assert tl.coverage(spans, spans[0]) == pytest.approx(0.75)

    def test_coverage_of_zero_duration_root_is_full(self):
        root = _span("r", 1, None, 0.0, 0.0)
        assert tl.coverage([root], root) == 1.0


class TestCriticalPath:
    def test_attribution_partitions_the_root_duration(self):
        spans = _sweep_tree()
        steps = tl.critical_path(spans, spans[0])
        assert sum(s.attributed for s in steps) == pytest.approx(10.0)

    def test_straggler_chain_is_descended(self):
        spans = _sweep_tree()
        steps = tl.critical_path(spans, spans[0])
        names = [s.span.name for s in steps]
        # job.b finished last, replay.b determined its end; job.a is
        # hidden under job.b's interval and never appears.
        assert "job.b" in names
        assert "replay.b" in names
        assert "job.a" not in names

    def test_steps_are_chronological(self):
        spans = _sweep_tree()
        steps = tl.critical_path(spans, spans[0])
        # each step ends where the next begins; total spans the root
        assert steps[0].span.name == "sweep"  # 0..1 leading segment

    def test_single_span_tree(self):
        root = _span("only", 1, None, 0.0, 2.0)
        steps = tl.critical_path([root], root)
        assert len(steps) == 1
        assert steps[0].attributed == pytest.approx(2.0)

    def test_render_lists_every_step(self):
        spans = _sweep_tree()
        steps = tl.critical_path(spans, spans[0])
        lines = tl.render_critical_path(steps)
        assert len(lines) == len(steps) + 1
        assert "critical path" in lines[0]


class TestStats:
    def test_phase_name_collapses_batch_suffixes(self):
        assert tl.phase_name("fig2.n4.batch17") == "fig2.n4.batch"
        assert tl.phase_name("fig2.n4.batch") == "fig2.n4.batch"
        assert tl.phase_name("job.a") == "job.a"

    def test_phase_stats_percentiles(self):
        spans = [
            _span("job", i, None, 0.0, float(i)) for i in range(1, 11)
        ]
        stats = tl.phase_stats(spans)["job"]
        assert stats["count"] == 10
        assert stats["max"] == 10.0
        # nearest rank: round(0.5 * 9) banker-rounds to index 4
        assert stats["p50"] == 5.0
        assert stats["total"] == 55.0


class TestChromeTrace:
    def test_export_schema_is_valid(self):
        payload = tl.to_chrome_trace(_sweep_tree())
        assert tl.validate_chrome_trace(payload) == []

    def test_main_is_pinned_to_pid_1(self):
        payload = tl.to_chrome_trace(_sweep_tree())
        names = {
            ev["args"]["name"]: ev["pid"]
            for ev in payload["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        assert names["main"] == 1
        assert len(set(names.values())) == 3  # one pid per process

    def test_threads_get_distinct_tids(self):
        payload = tl.to_chrome_trace(_sweep_tree())
        x = [ev for ev in payload["traceEvents"] if ev["ph"] == "X"]
        tracks = {(ev["pid"], ev["tid"]) for ev in x}
        assert len(tracks) == 3  # main/main, worker-1/a, worker-2/b

    def test_timestamps_are_microseconds(self):
        payload = tl.to_chrome_trace([_span("s", 1, None, 0.5, 1.5)])
        (ev,) = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert ev["ts"] == pytest.approx(5e5)
        assert ev["dur"] == pytest.approx(1.5e6)

    def test_write_round_trips_through_json(self, tmp_path):
        out = tl.write_chrome_trace(tmp_path / "t.json", _sweep_tree())
        with open(out, encoding="utf-8") as f:
            payload = json.load(f)
        assert tl.validate_chrome_trace(payload) == []

    def test_validator_rejects_malformed_payloads(self):
        assert tl.validate_chrome_trace([]) != []
        assert tl.validate_chrome_trace({}) != []
        bad_event = {"ph": "X", "name": "x", "pid": 2, "tid": 1,
                     "ts": -1.0, "dur": 0.0}
        errors = tl.validate_chrome_trace({"traceEvents": [bad_event]})
        assert any("ts" in e for e in errors)
        assert any("process_name" in e for e in errors)


class TestAnalyze:
    def test_report_from_a_live_tracker(self):
        tracker = SpanTracker(seed=0)
        with tracker.span("sweep"):
            with tracker.span("capture"):
                pass
            with tracker.span("job.a"):
                pass
        report = tl.analyze(tracker.spans())
        assert report.root.name == "sweep"
        assert 0.0 <= report.coverage <= 1.0
        total = sum(s.attributed for s in report.steps)
        assert total == pytest.approx(report.root.duration, rel=1e-6)
        lines = tl.render_report(
            report, wall=2 * report.root.duration, critical_path=True
        )
        assert any("root span 'sweep'" in line for line in lines)
        assert any("critical path" in line for line in lines)
        quiet = tl.render_report(report, wall=1.0, critical_path=False)
        assert not any("critical path" in line for line in quiet)
        assert "of 1000.000 ms measured wall" in quiet[0]

    def test_analyze_requires_spans(self):
        with pytest.raises(ValueError):
            tl.analyze([])

    def test_explicit_root_wins(self):
        spans = _sweep_tree()
        report = tl.analyze(spans, root=spans[2])
        assert report.root.name == "job.b"
