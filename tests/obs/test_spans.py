"""Unit tests for ZTrace span tracking (repro.obs.spans)."""

import pytest

from repro.obs import NULL_SPANS, SpanTracker
from repro.obs.spans import derive_span_id, derive_trace_id


class TestDeterministicIds:
    def test_trace_id_is_a_pure_function_of_the_seed(self):
        assert derive_trace_id(7) == derive_trace_id(7)
        assert derive_trace_id(7) != derive_trace_id(8)
        assert SpanTracker(seed=7).trace_id == derive_trace_id(7)

    def test_span_ids_follow_the_seeded_chain(self):
        tracker = SpanTracker(seed=3)
        with tracker.span("a"):
            with tracker.span("b"):
                pass
        a, b = tracker.spans()[1], tracker.spans()[0]
        assert a.span_id == derive_span_id(tracker.trace_id, 1)
        assert b.span_id == derive_span_id(tracker.trace_id, 2)

    def test_two_trackers_with_one_seed_agree_on_every_id(self):
        ids = []
        for _ in range(2):
            tracker = SpanTracker(seed=11)
            with tracker.span("x"):
                with tracker.span("y"):
                    pass
            ids.append([s.span_id for s in tracker.spans()])
        assert ids[0] == ids[1]


class TestSpanLifecycle:
    def test_nesting_sets_parent_ids(self):
        tracker = SpanTracker(seed=0)
        with tracker.span("outer") as outer:
            with tracker.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_yielded_span_takes_attrs(self):
        tracker = SpanTracker(seed=0)
        with tracker.span("job", key="k") as span:
            span.set_attr(status="ok")
        (done,) = tracker.spans()
        assert done.attrs == {"key": "k", "status": "ok"}

    def test_set_attr_targets_the_innermost_open_span(self):
        tracker = SpanTracker(seed=0)
        with tracker.span("outer"):
            with tracker.span("inner"):
                tracker.set_attr(hit=True)
        inner = next(s for s in tracker.spans() if s.name == "inner")
        assert inner.attrs == {"hit": True}

    def test_span_closes_on_exception(self):
        tracker = SpanTracker(seed=0)
        with pytest.raises(RuntimeError):
            with tracker.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracker.spans()
        assert span.duration >= 0.0

    def test_close_finishes_dangling_spans(self):
        tracker = SpanTracker(seed=0)
        gen = tracker.span("leaked")
        gen.__enter__()
        tracker.close()
        (span,) = tracker.spans()
        assert span.name == "leaked"
        assert span.duration >= 0.0

    def test_record_span_registers_a_measured_interval(self):
        tracker = SpanTracker(seed=0)
        span = tracker.record_span("job", start=1.0, end=3.5, status="parallel")
        assert span.start == 1.0
        assert span.duration == 2.5
        assert tracker.spans() == [span]

    def test_durations_are_non_negative_and_ordered(self):
        tracker = SpanTracker(seed=0)
        with tracker.span("outer"):
            with tracker.span("inner"):
                pass
        inner, outer = tracker.spans()
        assert 0.0 <= inner.duration <= outer.duration
        assert outer.start <= inner.start
        assert inner.end <= outer.end


class TestNullTracker:
    def test_disabled_tracker_records_nothing(self):
        with NULL_SPANS.span("x") as span:
            assert span is None
        assert NULL_SPANS.spans() == []
        assert NULL_SPANS.record_span("x", 0.0, 1.0) is None

    def test_null_spans_is_shared_and_disabled(self):
        assert NULL_SPANS.enabled is False


class TestTurboBatches:
    def test_batch_hook_rolls_spans(self):
        from repro.core import Cache, RandomCandidatesArray
        from repro.replacement import LRU

        tracker = SpanTracker(seed=0)
        cache = Cache(
            RandomCandidatesArray(64, 4, seed=1), LRU(), engine="turbo"
        )
        if cache.engine != "turbo":
            pytest.skip("turbo engine unavailable")
        with tracker.span("fig2"):
            with tracker.turbo_batches(cache._turbo, "fig2", every=16):
                for address in range(64):
                    cache.access(address)
        batches = [s for s in tracker.spans() if ".batch" in s.name]
        assert len(batches) >= 64 // 16
        fig2 = next(s for s in tracker.spans() if s.name == "fig2")
        assert all(b.parent_id == fig2.span_id for b in batches)

    def test_none_core_is_a_noop(self):
        tracker = SpanTracker(seed=0)
        with tracker.turbo_batches(None, "x"):
            pass
        assert tracker.spans() == []
