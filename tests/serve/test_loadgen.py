"""Tests for the load generator, including the sanitized concurrent soak."""

import pytest

from repro.analysis.sanitizer import SanitizedArray
from repro.serve.baseline import DictLRUServe
from repro.serve.loadgen import LoadGenConfig, run_loadgen
from repro.serve.service import ServeConfig, ZServeCache


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LoadGenConfig(num_workers=0)
        with pytest.raises(ValueError):
            LoadGenConfig(requests_per_worker=0)
        with pytest.raises(ValueError):
            LoadGenConfig(payload_bytes=-1)


class TestReplay:
    def test_replay_against_zserve(self):
        svc = ZServeCache(ServeConfig(num_shards=2, lines_per_way=64))
        cfg = LoadGenConfig(
            workload="gcc",
            num_workers=2,
            requests_per_worker=2_000,
            footprint_blocks=512,
        )
        result = run_loadgen(svc, cfg)
        assert result.requests == 4_000
        assert result.throughput_rps > 0
        assert 0.0 < result.hit_rate <= 1.0
        assert 0.0 < result.p50_us <= result.p95_us <= result.p99_us
        assert result.backend["mode"] == "twophase"
        svc.check_consistency()

    def test_replay_against_dictlru(self):
        base = DictLRUServe(capacity=512)
        cfg = LoadGenConfig(
            workload="gcc",
            num_workers=2,
            requests_per_worker=1_000,
            footprint_blocks=512,
        )
        result = run_loadgen(base, cfg)
        assert result.requests == 2_000
        assert result.backend["capacity"] == 512

    def test_replay_is_deterministic_in_traffic(self):
        # Latency varies run to run; the request stream must not.
        results = []
        for _ in range(2):
            svc = ZServeCache(ServeConfig(num_shards=2, lines_per_way=64))
            cfg = LoadGenConfig(
                workload="canneal",
                num_workers=1,
                requests_per_worker=2_000,
                footprint_blocks=512,
                seed=3,
            )
            results.append(run_loadgen(svc, cfg))
        assert results[0].hits == results[1].hits
        assert results[0].misses == results[1].misses

    def test_bytes_payloads_with_fingerprinting(self):
        # Every read re-verifies its value's digest; a single
        # mismatch would raise out of run_loadgen.
        svc = ZServeCache(ServeConfig(
            num_shards=2, lines_per_way=64, fingerprint=True))
        cfg = LoadGenConfig(
            workload="gcc",
            num_workers=2,
            requests_per_worker=1_500,
            footprint_blocks=512,
            payload_bytes=64,
        )
        result = run_loadgen(svc, cfg)
        assert result.hits > 0
        svc.check_consistency()

    def test_worker_failure_propagates(self):
        class Broken:
            """Backend whose reads always explode."""

            def get(self, key):
                raise RuntimeError("boom")

            def put(self, key, value):
                return None

            def invalidate(self, key):
                return False

            def snapshot(self):
                return {}

        with pytest.raises(RuntimeError, match="boom"):
            run_loadgen(
                Broken(),
                LoadGenConfig(num_workers=2, requests_per_worker=50),
            )


class TestSanitizedSoak:
    def test_concurrent_soak_zero_violations(self):
        # The acceptance-criteria soak, and the only one (so its scale
        # is the point): 4 workers x 2500 requests over sanitized
        # two-phase shards under eviction pressure, fingerprinting on,
        # every walk checked, zero InvariantViolations or fingerprint
        # mismatches tolerated — run_loadgen re-raises the first worker
        # exception.
        svc = ZServeCache(
            ServeConfig(
                num_shards=2, num_ways=4, lines_per_way=64,
                mode="twophase", fingerprint=True,
            ),
            wrap_array=lambda array: SanitizedArray(array, seed=7),
        )
        cfg = LoadGenConfig(
            workload="canneal",
            num_workers=4,
            requests_per_worker=2_500,
            footprint_blocks=1_024,
            seed=7,
            payload_bytes=64,
        )
        result = run_loadgen(svc, cfg)
        assert result.requests == 10_000
        assert result.hit_rate > 0.0  # a soak that never hits tests nothing
        svc.check_consistency()
        for shard in svc.shards:
            shard.cache.array.final_check()
        # The discipline actually exercised its edges under contention:
        # any stale handling shows up in the counters, never as
        # corruption.
        snap = svc.snapshot()
        assert snap["stale_retries"] >= 0
        assert snap["fallback_fills"] >= 0
