"""Unit tests for the ZScope metrics registry and stats facade."""

import json

import pytest

from repro.obs import MetricsRegistry, RegistryStats, sanitize_component


class TestCounterAndGauge:
    def test_counter_increments(self):
        c = MetricsRegistry().counter("hits")
        c.inc()
        c.inc(3)
        c.value += 1
        assert c.value == 5
        assert c.snapshot_value() == 5

    def test_gauge_holds_last_value(self):
        g = MetricsRegistry().gauge("ways")
        g.set(4)
        g.set(16)
        assert g.snapshot_value() == 16


class TestHistograms:
    def test_fixed_buckets_and_exact_mean(self):
        h = MetricsRegistry().histogram("lat", bounds=[1.0, 2.0, 4.0])
        for x in (0.5, 1.5, 3.0, 100.0):
            h.observe(x)
        assert h.counts == [1, 1, 1, 1]  # last is the overflow bucket
        assert h.mean == pytest.approx((0.5 + 1.5 + 3.0 + 100.0) / 4)
        assert h.min == 0.5 and h.max == 100.0

    def test_cdf_excludes_overflow(self):
        h = MetricsRegistry().histogram("lat", bounds=[1.0, 2.0])
        for x in (0.5, 1.5, 9.0):
            h.observe(x)
        assert h.cdf() == [(1.0, pytest.approx(1 / 3)), (2.0, pytest.approx(2 / 3))]

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", bounds=[2.0, 1.0])

    def test_int_histogram_grows_and_merges(self):
        h = MetricsRegistry().int_histogram("levels")
        h.observe(0)
        h.observe(2)
        h.observe(2)
        assert h.counts == [1, 0, 2]
        h.add_counts([0, 5])
        assert h.counts == [1, 5, 2]
        assert h.count == 8

    def test_int_histogram_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().int_histogram("levels").observe(-1)


class TestRegistry:
    def test_scoped_views_share_one_store(self):
        root = MetricsRegistry()
        bank = root.scoped("l2").scoped("bank3")
        c = bank.counter("walk.tag_reads")
        assert c.name == "l2.bank3.walk.tag_reads"
        assert root.get("l2.bank3.walk.tag_reads") is c

    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("hits") is reg.counter("hits")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("hits")
        with pytest.raises(TypeError):
            reg.gauge("hits")

    def test_names_respect_scope(self):
        root = MetricsRegistry()
        root.scoped("a").counter("x")
        root.scoped("ab").counter("x")
        assert root.scoped("a").names() == ["a.x"]
        assert set(root.names()) == {"a.x", "ab.x"}

    def test_sum_counters_aggregates_suffix(self):
        root = MetricsRegistry()
        for b in range(3):
            root.scoped(f"l2.bank{b}").counter("hits").inc(b + 1)
        root.scoped("l2").counter("hits_total")  # must not match ".hits"
        assert root.scoped("l2").sum_counters("hits") == 6

    def test_snapshot_and_json_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(2)
        reg.gauge("ways").set(4)
        snap = json.loads(reg.to_json())
        assert snap == {"hits": 2, "ways": 4}

    def test_render_text_lists_every_metric(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(2)
        reg.int_histogram("levels").observe(1)
        text = reg.render_text()
        assert "hits" in text and "levels" in text

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("")

    def test_sanitize_component(self):
        assert sanitize_component("Z4/52") == "Z4_52"
        assert sanitize_component("SA-4h") == "SA-4h"
        assert "." not in sanitize_component("a.b c")


class _DemoStats(RegistryStats):
    """Facade fixture with two counters."""

    _COUNTER_FIELDS = ("hits", "misses")


class TestRegistryStats:
    def test_attribute_reads_and_writes_hit_the_registry(self):
        reg = MetricsRegistry().scoped("l1")
        stats = _DemoStats(reg)
        stats.hits += 2
        stats.misses = 5
        assert reg.counter("hits").value == 2
        assert reg.counter("misses").value == 5
        assert stats.as_dict() == {"hits": 2, "misses": 5}

    def test_unknown_counter_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            _ = _DemoStats().bogus

    def test_merge_counters(self):
        a, b = _DemoStats(), _DemoStats()
        a.hits = 1
        b.hits = 10
        b.misses = 3
        a.merge_counters(b)
        assert a.as_dict() == {"hits": 11, "misses": 3}

    def test_hot_path_counter_objects_alias_the_facade(self):
        stats = _DemoStats()
        c = stats.counters()["hits"]
        c.value += 7
        assert stats.hits == 7


class TestMergeSnapshot:
    def test_counters_add(self):
        worker = MetricsRegistry()
        worker.counter("l2.hits").value = 7
        parent = MetricsRegistry()
        parent.counter("l2.hits").value = 3
        parent.merge_snapshot(worker.snapshot())
        parent.merge_snapshot(worker.snapshot())
        assert parent.counter("l2.hits").value == 17

    def test_names_reroot_under_view_prefix(self):
        worker = MetricsRegistry()
        worker.counter("hits").value = 2
        parent = MetricsRegistry()
        parent.scoped("job0").merge_snapshot(worker.snapshot())
        assert parent.counter("job0.hits").value == 2

    def test_gauge_is_set_not_added(self):
        parent = MetricsRegistry()
        parent.gauge("occupancy").value = 10
        parent.merge_snapshot({"occupancy": 4})
        assert parent.gauge("occupancy").value == 4

    def test_histograms_merge_bucketwise(self):
        bounds = [1.0, 10.0]
        worker = MetricsRegistry()
        h = worker.histogram("lat", bounds)
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        parent = MetricsRegistry()
        parent.histogram("lat", bounds).observe(2.0)
        parent.merge_snapshot(worker.snapshot())
        merged = parent.histogram("lat", bounds)
        assert merged.count == 4
        assert merged.total == pytest.approx(57.5)
        assert merged.min == 0.5
        assert merged.max == 50.0

    def test_histogram_bounds_mismatch_rejected(self):
        worker = MetricsRegistry()
        worker.histogram("lat", [1.0, 10.0]).observe(2.0)
        parent = MetricsRegistry()
        parent.histogram("lat", [2.0, 20.0])
        with pytest.raises(ValueError, match="bounds"):
            parent.merge_snapshot(worker.snapshot())

    def test_int_histograms_merge(self):
        worker = MetricsRegistry()
        ih = worker.int_histogram("walks")
        ih.observe(2)
        ih.observe(2)
        parent = MetricsRegistry()
        parent.int_histogram("walks").observe(1)
        parent.merge_snapshot(worker.snapshot())
        assert parent.int_histogram("walks").counts[1] == 1
        assert parent.int_histogram("walks").counts[2] == 2

    def test_merge_is_order_independent(self):
        snaps = []
        for base in (1, 100):
            reg = MetricsRegistry()
            reg.counter("c").value = base
            reg.int_histogram("h").observe(base % 5)
            snaps.append(reg.snapshot())
        a, b = MetricsRegistry(), MetricsRegistry()
        for s in snaps:
            a.merge_snapshot(s)
        for s in reversed(snaps):
            b.merge_snapshot(s)
        assert a.snapshot() == b.snapshot()

    def test_unmergeable_entry_rejected(self):
        parent = MetricsRegistry()
        with pytest.raises(ValueError):
            parent.merge_snapshot({"weird": {"foo": 1}})
        with pytest.raises(ValueError):
            parent.merge_snapshot({"flag": True})
