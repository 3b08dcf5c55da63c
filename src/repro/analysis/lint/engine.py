"""The ZSan lint engine: an AST rule framework for this repository.

The simulator's correctness rests on conventions no general-purpose
linter knows about — all randomness must flow through injected seeded
``random.Random`` instances, statistics code must not compare floats
with ``==``, replacement policies must honour the
:class:`~repro.replacement.base.ReplacementPolicy` contract, and hot
``core/`` dataclasses must declare ``slots=True``. This module provides
the machinery; :mod:`repro.analysis.lint.rules` provides the repository
rules (codes ``ZS001``–``ZS006``, ``ZS104`` and ``ZS109``, catalogued
in ``docs/lint_rules.md``).

Design:

- :class:`LintRule` subclasses declare a ``code``/``name``/``summary``
  and implement :meth:`LintRule.check` over a parsed
  :class:`LintSource`. Registration is a decorator
  (:func:`register_rule`) feeding a module-level registry, so adding a
  rule is a single self-contained class.
- Suppression is per line: a ``# zsan: ignore[ZS001]`` (or bare
  ``# zsan: ignore``) comment on the flagged line silences it.
- Output is human-readable (``path:line:col: CODE message``) or JSON
  (``--format json``) for CI consumption.

Unparsable files are reported as code ``ZS000`` rather than crashing
the run, so one syntax error cannot hide findings elsewhere.
"""

from __future__ import annotations

import abc
import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, Optional, Sequence, Union

#: Code reserved for files the engine could not parse.
PARSE_ERROR_CODE = "ZS000"

_SUPPRESS_RE = re.compile(
    r"#\s*zsan:\s*ignore(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?"
)
_CODE_RE = re.compile(r"^ZS\d{3}$")

#: Sentinel stored for a bare ``# zsan: ignore`` (suppresses every code).
ALL_CODES = frozenset({"*"})


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

    def to_dict(self) -> dict:
        """JSON-serialisable representation (stable key order)."""
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "column": self.column,
        }


def _statement_spans(tree: ast.Module) -> list[tuple[int, int]]:
    """Line span ``(start, end)`` of every statement in ``tree``.

    Simple statements span every physical line they occupy (including
    backslash continuations and multi-line call expressions, via
    ``end_lineno``). Compound statements (``if``/``for``/``def``/...)
    contribute only their *header* — from the keyword (or the first
    decorator) to the line before their first body statement — so a
    suppression inside a function body never silences findings on other
    statements of that function.
    """
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            for dec in getattr(node, "decorator_list", None) or []:
                start = min(start, dec.lineno)
            end = max(node.lineno, body[0].lineno - 1)
        else:
            end = node.end_lineno or node.lineno
        spans.append((start, end))
    return spans


def _line_span_index(tree: ast.Module) -> dict[int, tuple[int, int]]:
    """Map each source line to the innermost statement span covering it."""
    index: dict[int, tuple[int, int]] = {}
    # Wider spans first, so nested (narrower) spans overwrite them.
    for start, end in sorted(
        _statement_spans(tree), key=lambda s: s[0] - s[1]
    ):
        for line in range(start, end + 1):
            index[line] = (start, end)
    return index


def _collect_suppressions(text: str) -> dict[int, frozenset[str]]:
    """Map line number -> set of suppressed codes (``ALL_CODES`` = all).

    A plain per-line regex scan: comments inside string literals can
    theoretically match, but a false *suppression* is benign and the
    simplicity keeps the engine dependency-free.
    """
    out: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if not m:
            continue
        raw = m.group("codes")
        if raw is None:
            out[lineno] = ALL_CODES
        else:
            codes = frozenset(
                c.strip().upper() for c in raw.split(",") if c.strip()
            )
            out[lineno] = codes or ALL_CODES
    return out


class LintSource:
    """A parsed Python file handed to each rule.

    Attributes
    ----------
    path:
        File path (used by :meth:`LintRule.applies_to` scoping and in
        findings).
    text:
        Raw source text.
    tree:
        The parsed ``ast.Module``.
    """

    def __init__(self, path: Union[str, Path], text: str) -> None:
        self.path = Path(path)
        self.text = text
        self.tree: ast.Module = ast.parse(text, filename=str(path))
        self._suppressions = _collect_suppressions(text)
        self._line_spans = _line_span_index(self.tree)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "LintSource":
        """Parse ``path`` from disk (UTF-8)."""
        p = Path(path)
        return cls(p, p.read_text(encoding="utf-8"))

    def statement_span(self, line: int) -> tuple[int, int]:
        """Full line span of the innermost statement covering ``line``."""
        return self._line_spans.get(line, (line, line))

    def suppressed(self, code: str, line: int) -> bool:
        """True if ``code`` is suppressed on ``line`` by a zsan comment.

        The lookup covers the whole physical span of the statement the
        finding is anchored in, so a ``# zsan: ignore[...]`` works on
        backslash-continued lines and anywhere inside a multi-line call
        expression — not only on the exact flagged line.
        """
        start, end = self.statement_span(line)
        for lineno in range(start, end + 1):
            codes = self._suppressions.get(lineno)
            if codes is not None and (codes is ALL_CODES or code in codes):
                return True
        return False


class LintRule(abc.ABC):
    """Base class for ZSan rules.

    Subclasses set the class attributes and implement :meth:`check`;
    they are registered with the :func:`register_rule` decorator.
    """

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


#: code -> rule class, populated by :func:`register_rule`.
RULE_REGISTRY: dict[str, type[LintRule]] = {}


def register_rule(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator adding a rule to :data:`RULE_REGISTRY`.

    Validates the code format (``ZSnnn``) and rejects duplicates, so a
    bad rule module fails at import time rather than silently shadowing
    another rule.
    """
    if not _CODE_RE.match(cls.code):
        raise ValueError(f"rule code {cls.code!r} does not match ZSnnn")
    if cls.code == PARSE_ERROR_CODE:
        raise ValueError(f"{PARSE_ERROR_CODE} is reserved for parse errors")
    existing = RULE_REGISTRY.get(cls.code)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"duplicate rule code {cls.code}: {existing.__name__} and "
            f"{cls.__name__}"
        )
    RULE_REGISTRY[cls.code] = cls
    return cls


def default_rules() -> list[LintRule]:
    """One instance of every registered rule (imports the rule module)."""
    from repro.analysis.lint import rules as _rules  # noqa: F401  (registers)

    return [cls() for _, cls in sorted(RULE_REGISTRY.items())]


@dataclass(slots=True)
class LintReport:
    """The outcome of linting a set of paths."""

    findings: list[Finding]
    files_checked: int

    @property
    def exit_code(self) -> int:
        """0 when clean, 1 when any finding (parse errors included)."""
        return 1 if self.findings else 0

    def codes(self) -> set[str]:
        """The distinct rule codes present in the findings."""
        return {f.code for f in self.findings}

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

    def render_json(self) -> str:
        """JSON report: ``{files_checked, findings: [...]}``."""
        return json.dumps(
            {
                "files_checked": self.files_checked,
                "findings": [f.to_dict() for f in self.findings],
            },
            indent=1,
        )


def _sort_key(f: Finding) -> tuple:
    return (f.path, f.line, f.column, f.code)


class LintEngine:
    """Runs a set of rules over files and directories.

    Parameters
    ----------
    rules:
        Rule instances to run; default = every registered rule.
    select:
        If given, only these codes run.
    ignore:
        Codes to skip (applied after ``select``).
    """

    def __init__(
        self,
        rules: Optional[Sequence[LintRule]] = None,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
    ) -> None:
        pool = list(rules) if rules is not None else default_rules()
        if select is not None:
            wanted = {c.upper() for c in select}
            unknown = wanted - {r.code for r in pool}
            if unknown:
                raise ValueError(f"unknown rule code(s): {sorted(unknown)}")
            pool = [r for r in pool if r.code in wanted]
        if ignore is not None:
            dropped = {c.upper() for c in ignore}
            pool = [r for r in pool if r.code not in dropped]
        self.rules = pool

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
        findings: list[Finding] = []
        for rule in self.rules:
            if not rule.applies_to(src.path):
                continue
            for f in rule.check(src):
                if not src.suppressed(f.code, f.line):
                    findings.append(f)
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
