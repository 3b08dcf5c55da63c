"""Unit tests for the ZScope trace bus, events and sinks."""

import pytest

from repro.obs import (
    EvictionEvent,
    JsonlSink,
    NullSink,
    RingBufferSink,
    TraceBus,
    WalkEvent,
    collect_eviction_priorities,
    count_by_kind,
    event_from_dict,
    event_to_dict,
    read_jsonl,
)


def _emit_sample(bus):
    """Drive one of each event kind through ``bus``."""
    bus.access("l1", 0x10, write=False, hit=True)
    bus.miss("l1", 0x20, write=True)
    bus.walk("l1", 0x20, tag_reads=16, candidates=16, truncated=False,
             level_counts=(4, 12))
    bus.relocation("l1", 0x30, src=(0, 5), dst=(1, 9), level=1)
    bus.eviction("l1", 0x40, priority=0.75, level=1, dirty=True)


class TestEventsRoundTrip:
    def test_dict_round_trip_preserves_every_field(self):
        bus = TraceBus(RingBufferSink())
        _emit_sample(bus)
        for event in bus.sink.events():
            clone = event_from_dict(event_to_dict(event))
            assert clone == event
            assert type(clone) is type(event)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            event_from_dict({"ev": "martian", "seq": 1})

    def test_level_counts_restored_as_tuple(self):
        e = WalkEvent(1, "c", 0, 4, 4, False, (1, 3))
        assert event_from_dict(event_to_dict(e)).level_counts == (1, 3)


class TestBus:
    def test_seq_is_bus_monotonic_across_kinds(self):
        bus = TraceBus(RingBufferSink())
        _emit_sample(bus)
        assert [e.seq for e in bus.sink.events()] == [1, 2, 3, 4, 5]

    def test_default_bus_is_disabled(self):
        bus = TraceBus()
        assert isinstance(bus.sink, NullSink)
        assert bus.enabled is False
        _emit_sample(bus)  # must be a harmless no-op
        assert bus.seq == 5

    def test_ring_buffer_keeps_newest(self):
        sink = RingBufferSink(capacity=3)
        bus = TraceBus(sink)
        for addr in range(5):
            bus.miss("l1", addr, write=False)
        assert sink.written == 5
        assert [e.address for e in sink.events()] == [2, 3, 4]

    def test_ring_buffer_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestJsonl:
    def test_write_close_read_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        bus = TraceBus(JsonlSink(path))
        _emit_sample(bus)
        bus.close()
        events = list(read_jsonl(path))
        assert len(events) == 5
        assert count_by_kind(events) == {
            "access": 1, "miss": 1, "walk": 1, "relocation": 1, "eviction": 1,
        }

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        sink.close()

    def test_gz_suffix_compresses_transparently(self, tmp_path):
        import gzip

        path = tmp_path / "trace.jsonl.gz"
        bus = TraceBus(JsonlSink(path))
        _emit_sample(bus)
        bus.close()
        with open(path, "rb") as f:
            assert f.read(2) == b"\x1f\x8b"  # gzip magic
        with gzip.open(path, "rt", encoding="utf-8") as f:
            assert len(f.read().splitlines()) == 5
        events = list(read_jsonl(path))
        assert count_by_kind(events) == {
            "access": 1, "miss": 1, "walk": 1, "relocation": 1, "eviction": 1,
        }


class TestReconstructionHelpers:
    def test_collect_eviction_priorities_groups_by_cache(self):
        events = [
            EvictionEvent(1, "n4", 0, 0.5, 0, False),
            EvictionEvent(2, "n8", 0, 0.25, 0, False),
            EvictionEvent(3, "n4", 0, None, 0, False),  # untracked: skipped
            EvictionEvent(4, "n4", 0, 1.0, 1, True),
        ]
        assert collect_eviction_priorities(events) == {
            "n4": [0.5, 1.0], "n8": [0.25],
        }

    def test_count_by_kind_empty(self):
        assert count_by_kind([]) == {}
