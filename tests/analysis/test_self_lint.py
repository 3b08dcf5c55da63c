"""Self-lint: the library must stay clean under its own rules.

This is the enforcement half of the ZSan deal — the rules only have
teeth if the tree is kept at zero findings, so this test pins
``zcache-repro lint src/repro`` to a clean exit. The structural
properties checked at run time rather than by a rule live here too.
"""

import dataclasses
import importlib
import pkgutil
from pathlib import Path

from repro.analysis.lint import LintEngine
from repro.cli import main as cli_main

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_source_tree_is_lint_clean():
    report = LintEngine().lint_paths([SRC])
    assert report.files_checked > 50
    rendered = "\n".join(f.render() for f in report.findings)
    assert not report.findings, f"src/repro has lint findings:\n{rendered}"


def test_cli_lint_exits_zero_on_source_tree(capsys):
    assert cli_main(["lint", str(SRC)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_lint_rules_listing(capsys):
    assert cli_main(["lint", "--rules"]) == 0
    codes = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert codes == ["ZS001", "ZS002", "ZS005", "ZS006", "ZS104", "ZS109"]


def test_one_forwarding_base_and_no_fourth_proxy():
    # Three hand-copied __getattr__ proxies over the array appeared one
    # PR at a time; a new forwarder extends ArrayProxy or argues its
    # way onto this list.
    import ast

    forwarders = {
        cls.name
        for path in SRC.rglob("*.py")
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        and any(getattr(item, "name", "") == "__getattr__" for item in cls.body)
    }
    assert forwarders == {"ArrayProxy", "RegistryStats"}


def test_core_dataclasses_declare_slots():
    # Hot-path records are allocated per access: slots=True keeps them
    # small and turns a typo'd attribute write into an AttributeError.
    import repro.core

    for info in pkgutil.iter_modules(repro.core.__path__, "repro.core."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if dataclasses.is_dataclass(cls) and cls.__module__ == info.name:
                assert "__slots__" in vars(cls), cls.__qualname__
