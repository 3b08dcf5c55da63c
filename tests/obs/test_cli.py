"""Integration tests for ``zcache-repro stats`` and ``zcache-repro trace``."""

import json

from repro.cli import main


class TestStats:
    def test_fig2_text_snapshot(self, capsys):
        code = main([
            "stats", "fig2", "--blocks", "128", "--instructions", "800",
        ])
        out = capsys.readouterr().out
        assert code == 0
        # Hierarchical metric names for every candidate count, plus the
        # wall-time attribution section.
        for n in (4, 8, 16, 64):
            assert f"n{n}.misses" in out
        assert "wall-time attribution:" in out
        assert "fig2.n4" in out

    def test_fig2_json_snapshot(self, capsys):
        code = main([
            "stats", "fig2", "--blocks", "128", "--instructions", "800",
            "--format", "json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["experiment"] == "fig2"
        assert payload["metrics"]["n4.accesses"] == 800
        assert "fig2" in payload["phases"]

    def test_unknown_experiment_rejected(self, capsys):
        try:
            code = main(["stats", "fig9"])
        except SystemExit as exc:  # argparse exits on bad choices
            code = exc.code
        assert code == 2


class TestTrace:
    def test_fig2_trace_reconstruction_passes(self, tmp_path, capsys):
        out_path = tmp_path / "t.jsonl"
        code = main([
            "trace", "fig2", "--blocks", "128", "--instructions", "800",
            "--out", str(out_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out_path.exists()
        assert "reconstruction (trace CDF vs in-process):" in out
        assert "FAIL" not in out
        assert out.count("OK") == 4

    def test_trace_file_is_valid_jsonl(self, tmp_path, capsys):
        out_path = tmp_path / "t.jsonl"
        assert main([
            "trace", "fig2", "--blocks", "128", "--instructions", "400",
            "--out", str(out_path),
        ]) == 0
        capsys.readouterr()
        kinds = set()
        with open(out_path, encoding="utf-8") as f:
            for line in f:
                kinds.add(json.loads(line)["ev"])
        assert {"access", "miss", "walk", "eviction"} <= kinds

    def test_gzip_trace_read_transparently(self, tmp_path, capsys):
        out_path = tmp_path / "t.jsonl.gz"
        code = main([
            "trace", "fig2", "--blocks", "128", "--instructions", "400",
            "--out", str(out_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        with open(out_path, "rb") as f:
            assert f.read(2) == b"\x1f\x8b"  # really gzip on disk
        # the offline reconstruction re-read the compressed trace
        assert "reconstruction (trace CDF vs in-process):" in out
        assert "FAIL" not in out

    def test_progress_log_heartbeat(self, tmp_path, capsys):
        log = tmp_path / "hb.log"
        assert main([
            "stats", "sweep", "--workload", "canneal",
            "--instructions", "300", "--progress-log", str(log),
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "capture.canneal" in payload["phases"]
        assert any(k.startswith("replay.") for k in payload["phases"])
        text = log.read_text()
        assert "captured L2 stream" in text
        assert "(2/2)" in text


class TestTimeline:
    def test_fig2_timeline_checks_pass(self, tmp_path, capsys):
        out_path = tmp_path / "timeline.json"
        code = main([
            "timeline", "fig2", "--blocks", "64", "--instructions", "400",
            "--out", str(out_path), "--critical-path", "--check",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "CHECK FAIL" not in out
        assert "critical path" in out
        assert "root span 'fig2'" in out
        payload = json.loads(out_path.read_text())
        assert any(
            ev.get("name") == "fig2.n4" for ev in payload["traceEvents"]
        )

    def test_timeline_prints_the_one_report_renderer(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.obs import timeline as tl

        seen = {}

        def render_report(report, wall, critical_path):
            seen.update(wall=wall, critical_path=critical_path)
            return ["<<the report>>"]

        monkeypatch.setattr(tl, "render_report", render_report)
        assert main([
            "timeline", "fig2", "--blocks", "64", "--instructions", "200",
            "--out", str(tmp_path / "timeline.json"),
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("timeline: ")
        assert lines[1:] == ["<<the report>>"]  # no second printer
        assert seen["wall"] > 0 and seen["critical_path"] is False

    def test_parallel_sweep_timeline_stitches_workers(self, tmp_path, capsys):
        # No --check here: the >=90% coverage bar is timing-sensitive
        # when worker spawn competes with the rest of the suite for the
        # machine. CI smokes the checked variant in a dedicated step.
        out_path = tmp_path / "timeline.json"
        code = main([
            "timeline", "sweep", "--jobs", "2", "--workload", "gcc",
            "--instructions", "400", "--out", str(out_path),
            "--critical-path",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        payload = json.loads(out_path.read_text())
        processes = {
            ev["args"]["name"]
            for ev in payload["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        workers = {p for p in processes if p.startswith("worker-")}
        assert "main" in processes
        assert workers  # span trees crossed the process boundary
        assert "worker utilization:" in out
