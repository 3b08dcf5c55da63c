"""The ZSan lint engine: an AST rule framework for this repository.

The simulator's correctness rests on conventions no general-purpose
linter knows about — all randomness must flow through injected seeded
``random.Random`` instances, simulation code must not read the host
clock, and hot ``core/`` counters must live in the metrics registry.
This module provides the machinery; :mod:`repro.analysis.lint.rules`
provides the repository rules (the tuple ``RULES``, catalogued in
``docs/lint_rules.md``).

A rule is a :class:`LintRule` subclass that declares a
``code``/``name``/``summary`` and implements :meth:`LintRule.check`
over a parsed :class:`LintSource`. Output is one
``path:line:col: CODE message`` line per finding plus a summary line.
Unparsable files are reported as code ``ZS000`` rather than crashing
the run, so one syntax error cannot hide findings elsewhere.
"""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, Optional, Sequence, Union

#: Code reserved for files the engine could not parse.
PARSE_ERROR_CODE = "ZS000"


@dataclass(frozen=True, slots=True)
class Finding:
    """One lint violation: a rule code anchored to a source location."""

    code: str
    message: str
    path: str
    line: int
    column: int = 0

    def render(self) -> str:
        """Human-readable one-liner, ``path:line:col: CODE message``."""
        return f"{self.path}:{self.line}:{self.column + 1}: {self.code} {self.message}"


class LintSource:
    """A parsed Python file handed to each rule: its ``path`` (used by
    :meth:`LintRule.applies_to` scoping and in findings) and ``tree``."""

    def __init__(self, path: Union[str, Path], text: str) -> None:
        self.path = Path(path)
        self.tree: ast.Module = ast.parse(text, filename=str(path))


class LintRule(abc.ABC):
    """Base class for ZSan rules: set the class attributes and
    implement :meth:`check`."""

    #: Unique rule code, ``ZSnnn``.
    code: ClassVar[str] = ""
    #: Short kebab-case identifier (shown in ``lint --rules``).
    name: ClassVar[str] = ""
    #: One-line description of what the rule enforces.
    summary: ClassVar[str] = ""

    @classmethod
    def applies_to(cls, path: Path) -> bool:
        """Whether this rule runs on ``path`` (default: every file)."""
        return True

    @abc.abstractmethod
    def check(self, src: LintSource) -> Iterator[Finding]:
        """Yield every violation of this rule in ``src``."""

    def finding(self, src: LintSource, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at an AST node."""
        return Finding(
            code=self.code,
            message=message,
            path=str(src.path),
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
        )


@dataclass(slots=True)
class LintReport:
    """The outcome of linting a set of paths."""

    findings: list[Finding]
    files_checked: int

    @property
    def exit_code(self) -> int:
        """0 when clean, 1 when any finding (parse errors included)."""
        return 1 if self.findings else 0

    def render_text(self) -> str:
        """Human-readable report (one line per finding plus a summary)."""
        lines = [f.render() for f in self.findings]
        noun = "file" if self.files_checked == 1 else "files"
        if self.findings:
            lines.append(
                f"zsan: {len(self.findings)} finding(s) in "
                f"{self.files_checked} {noun}"
            )
        else:
            lines.append(f"zsan: clean ({self.files_checked} {noun})")
        return "\n".join(lines)


def _sort_key(f: Finding) -> tuple:
    return (f.path, f.line, f.column, f.code)


class LintEngine:
    """Runs a set of rules (default: one of each in ``RULES``) over
    files and directories."""

    def __init__(self, rules: Optional[Sequence[LintRule]] = None) -> None:
        if rules is None:
            from repro.analysis.lint.rules import RULES

            rules = [cls() for cls in RULES]
        self.rules = list(rules)

    def lint_text(
        self, text: str, path: Union[str, Path] = "<string>"
    ) -> list[Finding]:
        """Lint a source string as if it lived at ``path``."""
        try:
            src = LintSource(path, text)
        except SyntaxError as exc:
            return [
                Finding(
                    code=PARSE_ERROR_CODE,
                    message=f"syntax error: {exc.msg}",
                    path=str(path),
                    line=exc.lineno or 1,
                    column=(exc.offset or 1) - 1,
                )
            ]
        findings = [
            f
            for rule in self.rules
            if rule.applies_to(src.path)
            for f in rule.check(src)
        ]
        findings.sort(key=_sort_key)
        return findings

    def lint_file(self, path: Union[str, Path]) -> list[Finding]:
        """Lint one file from disk."""
        p = Path(path)
        return self.lint_text(p.read_text(encoding="utf-8"), p)

    def lint_paths(self, paths: Iterable[Union[str, Path]]) -> LintReport:
        """Lint files and directories (directories recurse over ``*.py``)."""
        files: list[Path] = []
        for raw in paths:
            p = Path(raw)
            if p.is_dir():
                files.extend(sorted(p.rglob("*.py")))
            else:
                files.append(p)
        findings: list[Finding] = []
        for f in files:
            findings.extend(self.lint_file(f))
        findings.sort(key=_sort_key)
        return LintReport(findings=findings, files_checked=len(files))
