"""The ZProve semantic model and the ``lint --deep`` driver.

:class:`SemanticModel` ties the layers together — module graph, symbol
tables, origin evaluator, call graph — and provides the name-resolution
services the deep rules and the call-graph builder share (chasing
re-export chains, module aliases, and class methods across the analyzed
tree).

:func:`run_deep` is the entry point the CLI uses: build the model over
a set of paths, run every registered deep rule module by module,
filter suppressions against the *flagged* file (a deep finding may be
anchored in a different module than the one whose analysis produced
it). Every run analyzes every module: a finding can depend on a
module's *callers* (ZS102 and ZS105 report a mutation reachable from a
root defined in another module), so no per-module result outlives the
tree it was computed on.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.lint.engine import (
    PARSE_ERROR_CODE,
    Finding,
    LintReport,
    LintSource,
)
from repro.analysis.semantic.callgraph import CallGraph
from repro.analysis.semantic.dataflow import OriginEvaluator
from repro.analysis.semantic.modulegraph import ModuleGraph
from repro.analysis.semantic.symbols import (
    ClassInfo,
    FunctionInfo,
    ModuleSymbols,
    extract_symbols,
)

#: re-export chains longer than this are treated as unresolvable
_MAX_CHASE = 12


class SemanticModel:
    """Whole-program view: modules, symbols, origins, and calls."""

    def __init__(self, graph: ModuleGraph) -> None:
        self.graph = graph
        self._symbols: Dict[str, ModuleSymbols] = {}
        self.evaluator = OriginEvaluator(self)
        self._callgraph: Optional[CallGraph] = None

    @classmethod
    def build(cls, paths: Iterable[Union[str, Path]]) -> "SemanticModel":
        """Parse and link everything under ``paths``."""
        return cls(ModuleGraph.build(paths))

    # -- layers ------------------------------------------------------------
    def symbols_of(self, module: str) -> Optional[ModuleSymbols]:
        """The (memoized) symbol table for an analyzed module."""
        if module not in self.graph.modules:
            return None
        table = self._symbols.get(module)
        if table is None:
            table = extract_symbols(module, self.graph.modules[module].tree)
            self._symbols[module] = table
        return table

    @property
    def callgraph(self) -> CallGraph:
        """The call graph (built on first use)."""
        if self._callgraph is None:
            self._callgraph = CallGraph.build(self)
        return self._callgraph

    # -- name resolution ---------------------------------------------------
    def resolve_symbol(
        self, module: str, name: str, depth: int = 0
    ) -> Optional[Tuple[str, object]]:
        """What ``name`` means at module scope of ``module``.

        Returns ``("function", FunctionInfo)``, ``("class", ClassInfo)``
        or ``("module", dotted_name)``; re-export chains (``from x
        import y`` where ``x`` itself imported ``y``) are chased.
        """
        if depth > _MAX_CHASE:
            return None
        symbols = self.symbols_of(module)
        if symbols is not None:
            if name in symbols.functions:
                return ("function", symbols.functions[name])
            if name in symbols.classes:
                return ("class", symbols.classes[name])
        imported = self.graph.imported(module, name)
        if imported is None:
            return None
        if imported.symbol is None:
            return ("module", imported.module) if imported.internal else None
        if not imported.internal:
            return None
        return self.resolve_symbol(imported.module, imported.symbol, depth + 1)

    def resolve_class(self, module: str, name: str) -> Optional[ClassInfo]:
        """``name`` as an analyzed class visible from ``module``."""
        resolved = self.resolve_symbol(module, name)
        if resolved is not None and resolved[0] == "class":
            info = resolved[1]
            assert isinstance(info, ClassInfo)
            return info
        return None

    def resolve_callable(
        self, module: str, name: str
    ) -> Optional[FunctionInfo]:
        """``name`` as an analyzed function; classes give ``__init__``."""
        resolved = self.resolve_symbol(module, name)
        if resolved is None:
            return None
        kind, info = resolved
        if kind == "function":
            assert isinstance(info, FunctionInfo)
            return info
        if kind == "class":
            assert isinstance(info, ClassInfo)
            return info.methods.get("__init__")
        return None

    def resolve_method(
        self, module: str, class_name: str, method: str
    ) -> Optional[FunctionInfo]:
        """A method of a class visible from ``module``."""
        cls = self.resolve_class(module, class_name)
        if cls is None:
            return None
        return cls.methods.get(method)

    def resolve_dotted_callable(
        self, module: str, chain: str
    ) -> Optional[FunctionInfo]:
        """Resolve ``a.b`` / ``a.b.c`` call targets through aliases."""
        parts = chain.split(".")
        if len(parts) == 1:
            return self.resolve_callable(module, parts[0])
        resolved = self.resolve_symbol(module, parts[0])
        if resolved is None:
            return None
        kind, info = resolved
        if kind == "module":
            assert isinstance(info, str)
            if len(parts) == 2:
                return self.resolve_callable(info, parts[1])
            if len(parts) == 3:
                return self.resolve_method(info, parts[1], parts[2])
            return None
        if kind == "class" and len(parts) == 2:
            assert isinstance(info, ClassInfo)
            return info.methods.get(parts[1])
        return None


@dataclasses.dataclass(slots=True)
class DeepRunStats:
    """Bookkeeping from one ``run_deep`` invocation."""

    modules_total: int = 0
    parse_errors: int = 0

    def render(self) -> str:
        """One-line summary for stderr/CI logs."""
        return f"zprove: {self.modules_total} module(s) analyzed"


def _sort_key(f: Finding) -> tuple:
    return (f.path, f.line, f.column, f.code)


def _filter_suppressed(
    graph: ModuleGraph,
    findings: List[Finding],
    sources: Dict[str, LintSource],
) -> List[Finding]:
    """Drop findings silenced by ``# zsan: ignore`` in the flagged file.

    Suppression is evaluated against the file the finding is anchored
    in — for cross-module findings (ZS102 reachability) that is the
    helper's file, not the dispatcher's.
    """
    by_path = {str(info.path): info for info in graph.modules.values()}
    kept: List[Finding] = []
    for f in findings:
        info = by_path.get(f.path)
        if info is None:
            kept.append(f)
            continue
        src = sources.get(f.path)
        if src is None:
            src = LintSource(info.path, info.text)
            sources[f.path] = src
        if not src.suppressed(f.code, f.line):
            kept.append(f)
    return kept


def run_deep(
    paths: Iterable[Union[str, Path]],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    rules: Optional[Sequence[object]] = None,
) -> Tuple[LintReport, DeepRunStats]:
    """Run the deep (whole-program) rules over ``paths``.

    ``select``/``ignore`` filter by rule code at report time;
    explicit ``rules`` (tests) replace the default rule set.
    """
    from repro.analysis.semantic.deeprules import default_deep_rules

    pool = list(rules) if rules is not None else default_deep_rules()
    known = {r.code for r in pool}  # type: ignore[attr-defined]
    selected: Optional[Set[str]] = None
    if select is not None:
        selected = {c.upper() for c in select}
        unknown = selected - known
        if unknown:
            raise ValueError(f"unknown deep rule code(s): {sorted(unknown)}")
    ignored: Set[str] = (
        {c.upper() for c in ignore} if ignore is not None else set()
    )

    graph = ModuleGraph.build(paths)
    model = SemanticModel(graph)
    stats = DeepRunStats(
        modules_total=len(graph), parse_errors=len(graph.parse_errors)
    )

    sources: Dict[str, LintSource] = {}
    collected: List[Finding] = []
    for path_str in sorted(graph.parse_errors):
        collected.append(
            Finding(
                code=PARSE_ERROR_CODE,
                message=graph.parse_errors[path_str],
                path=path_str,
                line=1,
            )
        )

    for module in sorted(graph.modules):
        path = graph.modules[module].path
        module_findings: List[Finding] = []
        for rule in pool:
            if not rule.applies_to_module(  # type: ignore[attr-defined]
                module, path
            ):
                continue
            module_findings.extend(
                rule.check_module(model, module)  # type: ignore[attr-defined]
            )
        collected.extend(_filter_suppressed(graph, module_findings, sources))

    # Report-time filtering and cross-module dedup.
    seen: Set[Tuple[str, str, int, int, str]] = set()
    final: List[Finding] = []
    for f in collected:
        if f.code != PARSE_ERROR_CODE:
            if selected is not None and f.code not in selected:
                continue
            if f.code in ignored:
                continue
        key = (f.code, f.path, f.line, f.column, f.message)
        if key in seen:
            continue
        seen.add(key)
        final.append(f)
    final.sort(key=_sort_key)

    report = LintReport(
        findings=final,
        files_checked=len(graph.modules) + len(graph.parse_errors),
    )
    return report, stats
