"""Deep self-lint: src/repro must stay clean under the ZProve rules.

Same deal as the per-file self-lint — ZS101-ZS109 only have teeth if
the tree is pinned at zero deep findings. Also covers the CLI surface
of ``lint --deep``: the stats line, rule listing, select interaction,
the unknown-code exit, and the caller-edit case a per-module result
cache got wrong.
"""

from pathlib import Path

from repro.analysis.semantic import run_deep
from repro.cli import main as cli_main

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_source_tree_is_deep_clean():
    report, stats = run_deep([SRC])
    assert report.files_checked > 50
    assert stats.modules_total > 50
    rendered = "\n".join(f.render() for f in report.findings)
    assert not report.findings, f"src/repro has deep findings:\n{rendered}"


def test_cli_deep_exits_zero_on_source_tree(capsys):
    assert cli_main(["lint", "--deep", str(SRC)]) == 0
    captured = capsys.readouterr()
    assert "clean" in captured.out
    assert "zprove:" in captured.err
    assert "module(s) analyzed" in captured.err


HELPER_MODULE = (
    "def forget(array, address):\n"
    "    array._pos.pop(address, None)\n"
)
COMMIT_CALLER = (
    "from pkg.a import forget\n"
    "\n"
    "\n"
    "class Fill:\n"
    "    def prepare_fill(self, address):\n"
    "        return address\n"
    "\n"
    "    def commit(self, address):\n"
    "        forget(self.array, address)\n"
)
WALK_CALLER = COMMIT_CALLER.replace(
    "        return address\n",
    "        forget(self.array, address)\n        return address\n",
)


def test_caller_edit_changes_the_verdict_on_an_untouched_module(
    tmp_path, monkeypatch, capsys
):
    """ZS105 reachability depends on a helper's *callers*.

    ``a.py`` never changes; calling its ``forget`` from ``b.py``'s
    ``prepare_fill`` makes its mutation reachable from a walk. A result
    kept per module under an import-closure key would serve the first
    run's "clean" for ``a.py`` here, so every run analyzes every module
    and leaves nothing behind on disk.
    """
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "a.py").write_text(HELPER_MODULE, encoding="utf-8")
    (pkg / "b.py").write_text(COMMIT_CALLER, encoding="utf-8")
    sources = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    monkeypatch.chdir(tmp_path)
    command = ["lint", "--deep", "--select", "ZS105", "pkg"]

    assert cli_main(command) == 0
    capsys.readouterr()

    (pkg / "b.py").write_text(WALK_CALLER, encoding="utf-8")
    assert cli_main(command) == 1
    out = capsys.readouterr().out
    assert "pkg/a.py:2:1: ZS105 'forget' mutates array state" in out
    assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == sources


def test_cli_rules_listing_includes_deep_codes(capsys):
    assert cli_main(["lint", "--rules"]) == 0
    deep = [
        line.split()[0]
        for line in capsys.readouterr().out.splitlines()
        if "[deep]" in line
    ]
    assert deep == [f"ZS10{i}" for i in range(1, 10)]


def test_cli_unknown_code_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("X = 1\n", encoding="utf-8")
    assert cli_main(["lint", "--select", "ZS999", str(target)]) == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_cli_selecting_deep_code_runs_deep_pass(tmp_path, capsys):
    fixture = (
        Path(__file__).resolve().parent
        / "fixtures"
        / "deep"
        / "zs101_seed_provenance.py"
    )
    # Selecting ZS101 without --deep still triggers the deep pass, and
    # only ZS101 findings come back.
    code = cli_main(["lint", "--select", "ZS101", str(fixture)])
    captured = capsys.readouterr()
    assert code == 1
    assert "ZS101" in captured.out
    assert "ZS001" not in captured.out  # fixture imports `random` bare


def test_cli_shallow_select_skips_deep_pass(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("X = 1\n", encoding="utf-8")
    assert (
        cli_main(["lint", "--deep", "--select", "ZS004", str(target)]) == 0
    )
    # A shallow-only selection under --deep must not run ZProve.
    assert "zprove:" not in capsys.readouterr().err
