"""ZProve: whole-program semantic analysis for the repository.

Layers (each its own module):

- :mod:`repro.analysis.semantic.modulegraph` — module discovery,
  import resolution, cycle detection;
- :mod:`repro.analysis.semantic.symbols` — per-module symbol tables
  (functions, classes, module-level bindings with mutability);
- :mod:`repro.analysis.semantic.dataflow` — def-use origin tracking
  with interprocedural function summaries;
- :mod:`repro.analysis.semantic.callgraph` — static call edges and
  reachability;
- :mod:`repro.analysis.semantic.deeprules` — the rule registry and the
  ZS101–ZS104 and ZS109 rules;
- :mod:`repro.analysis.semantic.effects` — interprocedural effect
  inference (array-state mutation, counter folds, RNG draws, raises)
  and the ZS105–ZS108 effect/typestate rules;
- :mod:`repro.analysis.semantic.model` — the
  :class:`~repro.analysis.semantic.model.SemanticModel` facade and the
  :func:`~repro.analysis.semantic.model.run_deep` driver behind
  ``zcache-repro lint --deep``.
"""

from repro.analysis.semantic.callgraph import CallGraph, func_key
from repro.analysis.semantic.dataflow import OriginEvaluator, ScopeWalker
from repro.analysis.semantic.deeprules import (
    DEEP_RULE_REGISTRY,
    DeepRule,
    default_deep_rules,
    register_deep_rule,
)
from repro.analysis.semantic.effects import (
    EffectAnalysis,
    FunctionEffects,
)
from repro.analysis.semantic.model import (
    DeepRunStats,
    SemanticModel,
    run_deep,
)
from repro.analysis.semantic.modulegraph import (
    ImportedName,
    ModuleGraph,
    ModuleInfo,
    module_name_for,
)
from repro.analysis.semantic.symbols import (
    ClassInfo,
    FunctionInfo,
    ModuleSymbols,
    extract_symbols,
)

__all__ = [
    "CallGraph",
    "ClassInfo",
    "DEEP_RULE_REGISTRY",
    "DeepRule",
    "DeepRunStats",
    "EffectAnalysis",
    "FunctionEffects",
    "FunctionInfo",
    "ImportedName",
    "ModuleGraph",
    "ModuleInfo",
    "ModuleSymbols",
    "OriginEvaluator",
    "ScopeWalker",
    "SemanticModel",
    "default_deep_rules",
    "extract_symbols",
    "func_key",
    "module_name_for",
    "register_deep_rule",
    "run_deep",
]
