"""Framework-level tests for the ZSan lint engine.

Rule *content* is covered by test_lint_rules.py; here we pin the
engine mechanics: the rule tuple, text output, exit codes, and
parse-error handling.
"""

import ast
import re

import pytest

from repro.analysis.lint import (
    PARSE_ERROR_CODE,
    RULES,
    Finding,
    LintEngine,
    LintRule,
)
from repro.cli import main as cli_main

UNSEEDED = "import random\nx = random.random()\n"


class TestRules:
    def test_default_engine_runs_every_rule_once(self):
        codes = [r.code for r in LintEngine().rules]
        assert codes == [cls.code for cls in RULES]

    def test_rule_codes_are_zsnnn(self):
        for cls in RULES:
            assert re.fullmatch(r"ZS\d{3}", cls.code), cls.__name__

    def test_rule_codes_are_unique(self):
        codes = [cls.code for cls in RULES]
        assert len(set(codes)) == len(codes)

    def test_no_rule_takes_the_parse_error_code(self):
        assert PARSE_ERROR_CODE not in {cls.code for cls in RULES}


class TestOutput:
    def test_parse_error_becomes_zs000(self):
        findings = LintEngine().lint_text("def broken(:\n")
        assert [f.code for f in findings] == [PARSE_ERROR_CODE]

    def test_finding_render_format(self):
        f = Finding(code="ZS001", message="msg", path="a.py", line=3, column=4)
        assert f.render() == "a.py:3:5: ZS001 msg"

    def test_lint_paths_report(self, tmp_path):
        (tmp_path / "bad.py").write_text(UNSEEDED)
        (tmp_path / "good.py").write_text("x = 1\n")
        report = LintEngine().lint_paths([tmp_path])
        assert report.files_checked == 2
        assert report.exit_code == 1
        assert {f.code for f in report.findings} == {"ZS001"}
        assert report.render_text().endswith("zsan: 1 finding(s) in 2 files")

    def test_clean_report_exit_zero(self, tmp_path):
        (tmp_path / "good.py").write_text("x = 1\n")
        report = LintEngine().lint_paths([tmp_path])
        assert report.exit_code == 0
        assert "clean" in report.render_text()

    def test_findings_sorted_by_location(self, tmp_path):
        (tmp_path / "b.py").write_text(UNSEEDED)
        (tmp_path / "a.py").write_text(UNSEEDED)
        report = LintEngine().lint_paths([tmp_path])
        assert [f.path for f in report.findings] == sorted(
            f.path for f in report.findings
        )


class TestCustomRule:
    def test_path_scoping_via_applies_to(self, tmp_path):
        class OnlyCore(LintRule):
            code = "ZS998"
            name = "only-core"
            summary = "fires everywhere it applies"

            @classmethod
            def applies_to(cls, path):
                return "core" in path.parts

            def check(self, src):
                yield self.finding(src, ast.parse("x").body[0], "hit")

        engine = LintEngine(rules=[OnlyCore()])
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("x = 1\n")
        report = engine.lint_paths([tmp_path])
        assert len(report.findings) == 1
        assert "core" in report.findings[0].path


@pytest.mark.parametrize(
    "option",
    [["--select", "ZS001"], ["--ignore", "ZS001"], ["--format", "json"], ["--deep"]],
)
def test_cli_removed_options_are_usage_errors(option, tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("X = 1\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli_main(["lint", *option, str(target)])
    assert exc.value.code == 2
    assert option[0] in capsys.readouterr().err
