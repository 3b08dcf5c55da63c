"""Integration tests for ``zcache-repro stats`` and ``zcache-repro timeline``."""

import json

import pytest

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

    @pytest.mark.parametrize(
        "argv", [["trace", "fig2"], ["faults", "--campaign"]],
        ids=["trace", "faults"],
    )
    def test_trace_subcommand_is_gone(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an unknown artifact
            code = exc.code
        assert code == 2

    def test_explicit_seed_zero_is_not_seed_one(self, capsys):
        def sweep_metrics(*seed):
            assert main([
                "stats", "sweep", "--workload", "canneal",
                "--instructions", "300", "--format", "json", *seed,
            ]) == 0
            return json.loads(capsys.readouterr().out)["metrics"]

        assert sweep_metrics("--seed", "0") != sweep_metrics("--seed", "1")
        # No --seed is the sweep's own default seed, 1.
        assert sweep_metrics() == sweep_metrics("--seed", "1")

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

    def test_parallel_sweep_timeline_has_one_job_span_per_job(
        self, tmp_path, capsys
    ):
        # No --check here: the >=90% coverage bar is timing-sensitive
        # when worker spawn competes with the rest of the suite for the
        # machine.
        out_path = tmp_path / "timeline.json"
        code = main([
            "timeline", "sweep", "--jobs", "2", "--workload", "gcc",
            "--instructions", "400", "--out", str(out_path),
            "--critical-path",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        payload = json.loads(out_path.read_text())
        processes = [
            ev["args"]["name"]
            for ev in payload["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        ]
        assert processes == ["main"]  # workers record no spans
        jobs = sorted(
            ev["name"]
            for ev in payload["traceEvents"]
            if ev["ph"] == "X" and ev["name"].startswith("job.")
        )
        assert jobs == ["job.SA-4h-S.lru", "job.Z4_16-S.lru"]
