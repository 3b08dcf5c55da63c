"""Framework-level tests for the ZSan lint engine.

Rule *content* is covered by test_lint_rules.py; here we pin the
engine mechanics: registration, suppression comments, select/ignore
filtering, output formats, exit codes, and parse-error handling.
"""

import ast
import json

import pytest

from repro.analysis.lint import (
    PARSE_ERROR_CODE,
    RULE_REGISTRY,
    Finding,
    LintEngine,
    LintRule,
    default_rules,
    register_rule,
)
from repro.cli import main as cli_main

UNSEEDED = "import random\nx = random.random()\n"


class TestRegistry:
    def test_default_rules_cover_zs001_to_zs005(self):
        codes = {r.code for r in default_rules()}
        assert {"ZS001", "ZS002", "ZS003", "ZS004", "ZS005"} <= codes

    def test_register_rejects_bad_code(self):
        with pytest.raises(ValueError, match="ZSnnn"):

            @register_rule
            class Bad(LintRule):
                code = "X1"
                name = "bad"
                summary = "bad"

                def check(self, src):
                    return iter(())

    def test_register_rejects_duplicate_code(self):
        existing = next(iter(RULE_REGISTRY))
        with pytest.raises(ValueError, match="duplicate"):

            @register_rule
            class Clash(LintRule):
                code = existing
                name = "clash"
                summary = "clash"

                def check(self, src):
                    return iter(())

    def test_parse_error_code_reserved(self):
        with pytest.raises(ValueError, match="reserved"):

            @register_rule
            class Reserved(LintRule):
                code = PARSE_ERROR_CODE
                name = "reserved"
                summary = "reserved"

                def check(self, src):
                    return iter(())


class TestSuppression:
    def test_line_suppression_with_code(self):
        clean = "import random\nx = random.random()  # zsan: ignore[ZS001]\n"
        assert LintEngine().lint_text(clean) == []

    def test_bare_ignore_suppresses_all_codes(self):
        clean = "import random\nx = random.random()  # zsan: ignore\n"
        assert LintEngine().lint_text(clean) == []

    def test_wrong_code_does_not_suppress(self):
        text = "import random\nx = random.random()  # zsan: ignore[ZS002]\n"
        assert [f.code for f in LintEngine().lint_text(text)] == ["ZS001"]

    def test_suppression_is_per_line(self):
        text = (
            "import random\n"
            "a = random.random()  # zsan: ignore[ZS001]\n"
            "b = random.random()\n"
        )
        findings = LintEngine().lint_text(text)
        assert [f.line for f in findings] == [3]

    def test_multi_code_suppression(self):
        text = (
            "import random\n"
            "ok = random.random() == 0.5  # zsan: ignore[ZS001, ZS002]\n"
        )
        assert LintEngine().lint_text(text) == []

    def test_suppression_after_backslash_continuation(self):
        # The comment can only live on the last physical line of a
        # backslash-continued statement; the finding anchors on the
        # first. Suppression must cover the whole statement span.
        text = (
            "import random\n"
            "x = random.random() + \\\n"
            "    1.0  # zsan: ignore[ZS001]\n"
        )
        assert LintEngine().lint_text(text) == []

    def test_suppression_inside_multiline_call(self):
        text = (
            "import random\n"
            "x = max(\n"
            "    random.random(),  # zsan: ignore[ZS001]\n"
            "    0.5,\n"
            ")\n"
        )
        assert LintEngine().lint_text(text) == []

    def test_suppression_on_first_line_of_multiline_call(self):
        text = (
            "import random\n"
            "x = max(  # zsan: ignore[ZS001]\n"
            "    random.random(),\n"
            "    0.5,\n"
            ")\n"
        )
        assert LintEngine().lint_text(text) == []

    def test_suppression_does_not_leak_across_statements(self):
        # A suppression inside one statement must not silence the next,
        # and a suppression in a function body must not act as a
        # function-wide blanket.
        text = (
            "import random\n"
            "def f():\n"
            "    a = random.random()  # zsan: ignore[ZS001]\n"
            "    b = random.random()\n"
            "    return a + b\n"
        )
        findings = LintEngine().lint_text(text)
        assert [f.line for f in findings] == [4]

    def test_suppression_on_decorator_line_covers_class_header(self):
        # ZS004 anchors on the class statement; the natural place for
        # the ignore is the @dataclass decorator line just above.
        text = (
            "from dataclasses import dataclass\n"
            "@dataclass  # zsan: ignore[ZS004]\n"
            "class Hot:\n"
            "    x: int\n"
        )
        assert LintEngine().lint_text(text, path="core/hot.py") == []


class TestFiltering:
    def test_select_runs_only_named_rules(self):
        text = "import random\nbad = random.random() == 0.5\n"
        only = LintEngine(select=["ZS002"]).lint_text(text)
        assert {f.code for f in only} == {"ZS002"}

    def test_ignore_drops_named_rules(self):
        text = "import random\nbad = random.random() == 0.5\n"
        rest = LintEngine(ignore=["ZS002"]).lint_text(text)
        assert {f.code for f in rest} == {"ZS001"}

    def test_select_unknown_code_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            LintEngine(select=["ZS999"])


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
        assert report.codes() == {"ZS001"}
        payload = json.loads(report.render_json())
        assert payload["files_checked"] == 2
        assert payload["findings"][0]["code"] == "ZS001"

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


def test_cli_unknown_code_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("X = 1\n", encoding="utf-8")
    assert cli_main(["lint", "--select", "ZS999", str(target)]) == 2
    assert "unknown rule code" in capsys.readouterr().err
    # ZS104 and ZS109 are the only rules in the ZS1xx range
    assert cli_main(["lint", "--select", "ZS101", str(target)]) == 2
    assert "unknown rule code" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli_main(["lint", "--deep", str(target)])
    assert exc.value.code == 2
    assert "--deep" in capsys.readouterr().err
