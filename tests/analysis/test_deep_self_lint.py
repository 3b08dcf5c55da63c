"""Deep self-lint: src/repro must stay clean under the ZProve rules.

Same deal as the per-file self-lint — ZS101-ZS108 only have teeth if
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


SHARD_MODULE = (
    "import threading\n"
    "\n"
    "\n"
    "class Shard:\n"
    "    def __init__(self):\n"
    "        self.lock = threading.Lock()\n"
    "        self.items = {}\n"
    "\n"
    "    def _bump(self, k):\n"
    "        self.items[k] = 1\n"
)
LOCKED_CALLER = (
    "from pkg.serve.a import Shard\n"
    "\n"
    "\n"
    "def use(shard: Shard, k):\n"
    "    with shard.lock:\n"
    "        shard._bump(k)\n"
)
UNLOCKED_CALLER = LOCKED_CALLER.replace(
    "    with shard.lock:\n        shard._bump(k)\n", "    shard._bump(k)\n"
)


def test_caller_edit_changes_the_verdict_on_an_untouched_module(
    tmp_path, monkeypatch, capsys
):
    """ZS110 entry locksets depend on a helper's *callers*.

    ``a.py`` never changes; dropping the ``with shard.lock:`` in
    ``b.py`` makes ``Shard._bump``'s write a race. A result kept per
    module under an import-closure key served the first run's "clean"
    for ``a.py`` here, so every run analyzes every module and leaves
    nothing behind on disk.
    """
    serve = tmp_path / "pkg" / "serve"
    serve.mkdir(parents=True)
    (tmp_path / "pkg" / "__init__.py").write_text("", encoding="utf-8")
    (serve / "__init__.py").write_text("", encoding="utf-8")
    (serve / "a.py").write_text(SHARD_MODULE, encoding="utf-8")
    (serve / "b.py").write_text(LOCKED_CALLER, encoding="utf-8")
    sources = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    monkeypatch.chdir(tmp_path)
    command = ["lint", "--deep", "--select", "ZS110", "pkg"]

    assert cli_main(command) == 0
    capsys.readouterr()

    (serve / "b.py").write_text(UNLOCKED_CALLER, encoding="utf-8")
    assert cli_main(command) == 1
    out = capsys.readouterr().out
    assert "pkg/serve/a.py:10:9: ZS110 'Shard._bump'" in out
    assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == sources


def test_cli_rules_listing_includes_deep_codes(capsys):
    assert cli_main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    for code in (
        "ZS101", "ZS102", "ZS103", "ZS104",
        "ZS105", "ZS106", "ZS107", "ZS108",
    ):
        assert code in out
    assert "[deep]" in out


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
