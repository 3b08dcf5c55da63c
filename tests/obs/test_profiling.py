"""Unit tests for the ZScope heartbeat."""

import io

from repro.obs import NULL_HEARTBEAT, PROGRESS_LOG_ENV, Heartbeat


class TestHeartbeat:
    def test_disabled_by_default(self):
        hb = Heartbeat()
        hb.beat("ignored")
        assert hb.enabled is False
        assert hb.beats == 0
        assert NULL_HEARTBEAT.enabled is False

    def test_beats_append_to_one_file(self, tmp_path):
        log = tmp_path / "sweep" / "progress.log"
        hb = Heartbeat(path=log)
        hb.beat("captured stream")
        hb.beat("replayed Z4/16", done=2, total=12)
        lines = log.read_text().splitlines()
        assert len(lines) == 2
        assert "captured stream" in lines[0]
        assert lines[1].endswith("replayed Z4/16 (2/12)")

    def test_stream_output(self):
        buf = io.StringIO()
        Heartbeat(stream=buf).beat("alive")
        assert "alive" in buf.getvalue()

    def test_min_interval_rate_limits(self):
        buf = io.StringIO()
        hb = Heartbeat(stream=buf, min_interval=3600.0)
        hb.beat("first")
        hb.beat("suppressed")
        assert hb.beats == 1
        assert "suppressed" not in buf.getvalue()

    def test_from_env_disabled_without_variable(self, monkeypatch):
        monkeypatch.delenv(PROGRESS_LOG_ENV, raising=False)
        assert Heartbeat.from_env().enabled is False

    def test_from_env_uses_configured_path(self, tmp_path, monkeypatch):
        log = tmp_path / "hb.log"
        monkeypatch.setenv(PROGRESS_LOG_ENV, str(log))
        hb = Heartbeat.from_env()
        hb.beat("hello")
        assert "hello" in log.read_text()

    def test_construction_creates_missing_parents(self, tmp_path):
        # Fail fast on an unwritable location: the parent chain is
        # created when the heartbeat is built, not on the first beat
        # hours into a sweep.
        log = tmp_path / "deep" / "nested" / "run" / "progress.log"
        assert not log.parent.exists()
        Heartbeat(path=log)
        assert log.parent.is_dir()

    def test_from_env_creates_missing_parents(self, tmp_path, monkeypatch):
        log = tmp_path / "not" / "yet" / "there" / "hb.log"
        monkeypatch.setenv(PROGRESS_LOG_ENV, str(log))
        hb = Heartbeat.from_env()
        assert log.parent.is_dir()
        hb.beat("alive", done=1, total=2)
        assert "alive (1/2)" in log.read_text()
