"""ZSan: the repository's AST lint layer.

Public surface: the engine (:class:`LintEngine`, :class:`Finding`,
:class:`LintReport`, :class:`LintRule`) and ``RULES``, the repository
rules. See ``docs/lint_rules.md`` for the rule catalogue and
``zcache-repro lint --rules`` for a live listing.
"""

from repro.analysis.lint.engine import (
    PARSE_ERROR_CODE,
    Finding,
    LintEngine,
    LintReport,
    LintRule,
    LintSource,
)
from repro.analysis.lint.rules import RULES

__all__ = [
    "PARSE_ERROR_CODE",
    "RULES",
    "Finding",
    "LintEngine",
    "LintReport",
    "LintRule",
    "LintSource",
]
