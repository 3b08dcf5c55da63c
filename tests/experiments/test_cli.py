"""Integration tests for the zcache-repro CLI.

The invariant under test: ``zcache-repro <name>`` prints what that
artifact's one ``render`` returns for what its ``run`` returned, and
with no flags that text is ``results/<name>.txt`` byte for byte.
"""

import functools
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import ARTIFACTS, ExperimentScale

RESULTS = Path(__file__).resolve().parents[2] / "results"


def recorded(name):
    """The committed text of an artifact."""
    return (RESULTS / f"{name}.txt").read_text(encoding="utf-8")


def spy_on_run(monkeypatch, module, **shrink):
    """Record ``module.run``'s inputs and result, running it with ``shrink``."""
    calls = []
    real = module.run

    @functools.wraps(real)  # the CLI reads the recorded scale off the signature
    def run(**inputs):
        calls.append((inputs, real(**shrink, **inputs)))
        return calls[-1][1]

    monkeypatch.setattr(module, "run", run)
    return calls


class TestStaticExperiments:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "32 cores" in out
        assert "Scaled configuration" in out
        assert out == recorded("table1")

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Z4/52" in out
        assert "2.00x (2.0x)" in out
        assert out == recorded("table2")

    def test_merit(self, capsys):
        assert main(["merit"]) == 0
        out = capsys.readouterr().out
        assert "W=4 L=3: R=52" in out
        assert out == recorded("merit")

    def test_roster(self, capsys):
        assert main(["roster"]) == 0
        out = capsys.readouterr().out
        assert "canneal" in out
        assert "cpu2K6rand29" in out
        assert len(out.strip().splitlines()) == 72


class TestSimulationExperiments:
    def test_fig3_with_subset(self, capsys):
        # canneal is miss-heavy enough that every panel evicts at this
        # tiny scale (small footprints never fill the efficiently-
        # packing skew/z arrays, leaving their panels empty).
        code = main(
            ["fig3", "--workloads", "canneal", "--instructions", "3000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "canneal" in out
        assert "zcache" in out
        assert "wupwise" not in out  # subset respected

    def test_fig4_with_subset(self, capsys):
        code = main(
            ["fig4", "--workloads", "gcc,canneal", "--instructions", "800"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Z4/52-S" in out
        assert "mpki" in out and "ipc" in out

    def test_bandwidth_with_subset(self, capsys):
        code = main(
            ["bandwidth", "--workloads", "gcc", "--instructions", "800"]
        )
        assert code == 0
        assert "demand=" in capsys.readouterr().out


SUBSET = ["--workloads", "gcc,canneal", "--instructions", "800"]
SUBSET_SCALE = ExperimentScale(
    instructions_per_core=800, workloads=("gcc", "canneal"), seed=1
)

#: ``run`` keywords that shrink an artifact with no scale flag under the
#: CLI; the ones left out run at their recorded scale, so their stdout is
#: also held against ``results/<name>.txt`` (``conflict``, ~12 s, gets
#: both checks where its one tier-1 run lives: test_conflict_experiment)
SHRUNK = {
    "merit": {"accesses": 2_000},  # recorded scale: test_merit above
    "fig2": {"cache_blocks": 256, "accesses": 3_000},
    "hashquality": {"accesses": 4_000, "way_counts": (2,)},
}


class TestOneRendererPerArtifact:
    def test_artifact_table_is_the_results_directory(self):
        assert set(ARTIFACTS) == {p.stem for p in RESULTS.glob("*.txt")}

    def test_declared_hooks_are_the_modules_hooks(self):
        for name, artifact in ARTIFACTS.items():
            module = artifact.load()
            found = {h for h in ("payload", "svg") if hasattr(module, h)}
            assert found == set(artifact.hooks), name

    @pytest.mark.parametrize(
        "name", [n for n in ARTIFACTS if n != "conflict"]
    )
    def test_cli_prints_render_of_run(self, name, capsys, monkeypatch):
        artifact = ARTIFACTS[name]
        module = artifact.load()
        calls = spy_on_run(monkeypatch, module, **SHRUNK.get(name, {}))
        scaled = "scale" in artifact.inputs
        assert main([name, *(SUBSET if scaled else [])]) == 0
        ((inputs, result),) = calls
        assert inputs == ({"scale": SUBSET_SCALE} if scaled else {})
        out = capsys.readouterr().out
        assert out == "\n".join(module.render(result)) + "\n"
        if not scaled and name not in SHRUNK:
            assert out == recorded(name)

    def test_each_scale_flag_overrides_the_recorded_scale_alone(
        self, monkeypatch
    ):
        from repro.experiments import fig3

        seen = []

        @functools.wraps(fig3.run)
        def run(scale):
            seen.append(scale)
            return []

        monkeypatch.setattr(fig3, "run", run)
        assert main(["fig3", "--workloads", "gcc"]) == 0
        # fig3's recorded scale is 8000 instructions, not 6000.
        assert seen == [
            ExperimentScale(
                instructions_per_core=8_000, workloads=("gcc",), seed=1
            )
        ]

    def test_json_and_svg_come_from_the_modules_hooks(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.experiments import fig4

        monkeypatch.setattr(fig4, "payload", lambda result: {"sentinel": 1})
        out_json = tmp_path / "fig4.json"
        code = main(
            ["fig4", *SUBSET, "--json", str(out_json), "--svg", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.endswith(f"JSON written to {out_json}\n")
        assert out_json.read_text() == '{\n "sentinel": 1\n}'
        svgs = sorted(p.name for p in tmp_path.glob("*.svg"))
        assert svgs == [
            "fig4_ipc_lru.svg", "fig4_ipc_opt.svg",
            "fig4_mpki_lru.svg", "fig4_mpki_opt.svg",
        ]
        for svg in svgs:
            assert f"SVG written to {tmp_path / svg}\n" in out


class TestArgumentHandling:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig9"])

    def test_requires_experiment(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv,takes",
        [
            (["merit", "--instructions", "100"], "no flags"),
            (["fig1", "--json", "x.json"], "no flags"),
            (["bandwidth", "--svg", "d"],
             "--instructions, --workloads, --seed, --json"),
            (["fig2", "--instructions", "2000", "--seed", "5"],
             "--engine, --svg"),
            (["fig3", "--engine", "turbo"],
             "--instructions, --workloads, --seed, --json, --svg"),
            (["roster", "--seed", "3"], "no flags"),
        ],
    )
    def test_undeclared_flags_are_errors_not_ignored(
        self, argv, takes, capsys
    ):
        # Accepting a flag and ignoring it is the bug: each exits 2.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"{argv[0]} does not take {argv[1]}; it takes {takes}" in err
