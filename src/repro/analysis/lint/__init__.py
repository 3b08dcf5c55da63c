"""ZSan: the repository's AST lint layer.

Public surface: the engine (:class:`LintEngine`, :class:`Finding`,
:class:`LintReport`), the rule framework (:class:`LintRule`,
:func:`register_rule`), and the registered repository rules (imported
for their registration side effect). See ``docs/lint_rules.md`` for the
rule catalogue and ``zcache-repro lint --rules`` for a live listing.
"""

from repro.analysis.lint.engine import (
    ALL_CODES,
    PARSE_ERROR_CODE,
    RULE_REGISTRY,
    Finding,
    LintEngine,
    LintReport,
    LintRule,
    LintSource,
    default_rules,
    register_rule,
)
from repro.analysis.lint.rules import (
    DataclassSlots,
    FloatEquality,
    HiddenModuleState,
    PolicyContract,
    SpanDiscipline,
    UnseededRandomness,
    WallClockGlobalState,
)

__all__ = [
    "ALL_CODES",
    "PARSE_ERROR_CODE",
    "RULE_REGISTRY",
    "Finding",
    "LintEngine",
    "LintReport",
    "LintRule",
    "LintSource",
    "default_rules",
    "register_rule",
    "UnseededRandomness",
    "FloatEquality",
    "PolicyContract",
    "DataclassSlots",
    "WallClockGlobalState",
    "HiddenModuleState",
    "SpanDiscipline",
]
