"""Deep (whole-program) lint rules: registry plus ZS101–ZS104, ZS109.

Where the classic ZSan rules (ZS001–ZS006) look at one file at a time,
deep rules run against the :class:`~repro.analysis.semantic.model.
SemanticModel` and may follow values through calls, imports, and the
call graph:

- **ZS101 seed-provenance** — every seed that reaches an RNG
  constructor or a ``seed=``/``hash_seed=`` keyword must trace back to
  a config field, a function parameter, or ``derive_job_seed``; bare
  constants and nondeterministic sources (wall clock, ``id()``,
  ``hash()``, OS entropy) are flagged.
- **ZS102 parallel-safety** — code reachable from a process-pool
  ``submit`` dispatch must not mutate module-level state, declare
  ``global``/``nonlocal``, or open file handles, and the dispatch
  itself must not pass lambdas, locally-defined functions, open
  handles, or module-level mutables across the process boundary.
- **ZS103 merge-completeness** — stats facades and metric registries
  must fold *every* metric they register in their merge paths, so the
  parallel sweep's deterministic merge cannot silently drop a counter.
- **ZS104 hidden-module-state** — simulator packages (``core``,
  ``sim``, ``replacement``) and the threaded ``serve`` package must
  not keep module-level mutable globals; state belongs in objects
  threaded through calls.
- **ZS109 span-discipline** — ``core``/``kernels``/``experiments``
  code opens ZTrace spans only as ``with`` items (or through
  ``record_span``), so a raising body can never leak an open span.

The effect/typestate rules (ZS105–ZS108) live in
:mod:`repro.analysis.semantic.effects` and register here through the
same decorator.

Rules register via :func:`register_deep_rule` (codes ``ZS1xx``,
deliberately disjoint from the classic registry) and are driven by
:func:`repro.analysis.semantic.model.run_deep`.
"""

from __future__ import annotations

import abc
import ast
import re
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar, Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.lint.engine import Finding
from repro.analysis.semantic.callgraph import func_key, resolve_call
from repro.analysis.semantic.dataflow import (
    CONST,
    LOCAL_FUNCTION,
    MODULE_MUTABLE,
    OPEN_HANDLE,
    Origins,
    ScopeWalker,
    is_taint,
)
from repro.analysis.semantic.modulegraph import ModuleInfo
from repro.analysis.semantic.symbols import ClassInfo, FunctionInfo, dotted_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.semantic.model import SemanticModel

_DEEP_CODE_RE = re.compile(r"^ZS[1-9]\d{2}$")


class DeepRule(abc.ABC):
    """Base class for whole-program rules."""

    #: unique rule code, ``ZS1xx`` (deep codes start at 100)
    code: ClassVar[str] = ""
    #: short kebab-case identifier (shown in ``lint --rules``)
    name: ClassVar[str] = ""
    #: one-line description of what the rule enforces
    summary: ClassVar[str] = ""

    @classmethod
    def applies_to_module(cls, module: str, path: Path) -> bool:
        """Whether this rule runs for ``module`` (default: always)."""
        return True

    @abc.abstractmethod
    def check_module(
        self, model: "SemanticModel", module: str
    ) -> Iterator[Finding]:
        """Yield every violation attributable to analyzing ``module``."""

    def finding(
        self, info: ModuleInfo, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at an AST node of ``info``'s file."""
        return Finding(
            code=self.code,
            message=message,
            path=str(info.path),
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
        )


#: code -> deep rule class, populated by :func:`register_deep_rule`
DEEP_RULE_REGISTRY: Dict[str, type] = {}


def register_deep_rule(cls: type) -> type:
    """Class decorator adding a rule to :data:`DEEP_RULE_REGISTRY`."""
    code = getattr(cls, "code", "")
    if not _DEEP_CODE_RE.match(code):
        raise ValueError(
            f"deep rule code {code!r} does not match ZS1xx (>= ZS100)"
        )
    existing = DEEP_RULE_REGISTRY.get(code)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"duplicate deep rule code {code}: {existing.__name__} and "
            f"{cls.__name__}"
        )
    DEEP_RULE_REGISTRY[code] = cls
    return cls


def default_deep_rules() -> List[DeepRule]:
    """One instance of every registered deep rule, code order."""
    # The effect rules register on import; imported lazily here
    # because that module imports DeepRule from this one.
    from repro.analysis.semantic import effects  # noqa: F401

    return [DEEP_RULE_REGISTRY[c]() for c in sorted(DEEP_RULE_REGISTRY)]


def _sort_key(f: Finding) -> tuple:
    return (f.path, f.line, f.column, f.code)


# ---------------------------------------------------------------------------
# ZS101: seed provenance
# ---------------------------------------------------------------------------

#: call keywords that materialize a seed wherever they appear
_SEED_KEYWORDS = frozenset({"seed", "hash_seed", "base_seed"})
_RNG_TAILS = frozenset({"Random", "default_rng", "SeedSequence"})


def _seed_sites(
    model: "SemanticModel", module: str, call: ast.Call
) -> List[Tuple[ast.expr, str]]:
    """The (seed expression, site description) pairs in one call."""
    sites: List[Tuple[ast.expr, str]] = []
    seen: Set[int] = set()
    func = call.func
    parts: Optional[List[str]] = None
    if isinstance(func, ast.Name):
        parts = [func.id]
    elif isinstance(func, ast.Attribute):
        chain = dotted_name(func)
        parts = chain.split(".") if chain else None
    tail = parts[-1] if parts else None
    if (
        parts is not None
        and tail in _RNG_TAILS
        and parts[0] not in ("self", "cls")
        and model.resolve_dotted_callable(module, ".".join(parts)) is None
    ):
        seed_expr: Optional[ast.expr] = call.args[0] if call.args else None
        if seed_expr is None:
            for kw in call.keywords:
                if kw.arg in ("seed", "x", "entropy"):
                    seed_expr = kw.value
                    break
        if seed_expr is not None:
            sites.append((seed_expr, f"{tail}()"))
            seen.add(id(seed_expr))
    for kw in call.keywords:
        if kw.arg in _SEED_KEYWORDS and id(kw.value) not in seen:
            label = tail if tail is not None else "call"
            sites.append((kw.value, f"{label}({kw.arg}=...)"))
            seen.add(id(kw.value))
    return sites


@register_deep_rule
class SeedProvenanceRule(DeepRule):
    """ZS101: seeds must trace to config, parameters, or derive_job_seed."""

    code = "ZS101"
    name = "seed-provenance"
    summary = (
        "RNG seeds must derive from config fields, parameters, or "
        "derive_job_seed — never constants or nondeterministic sources"
    )

    @classmethod
    def applies_to_module(cls, module: str, path: Path) -> bool:
        # The analysis tooling itself seeds fixed RNGs on purpose
        # (sanitizer probes, fixtures); everything else is simulator
        # code where seed provenance is a correctness property.
        return not module.startswith("repro.analysis")

    def check_module(
        self, model: "SemanticModel", module: str
    ) -> Iterator[Finding]:
        info = model.graph.modules[module]
        findings: List[Finding] = []
        evaluator = model.evaluator

        def visit(call: ast.Call, envs: List[Dict[str, Origins]]) -> None:
            for seed_expr, desc in _seed_sites(model, module, call):
                origins = evaluator.expr_origins(module, seed_expr, list(envs))
                taints = sorted(t for t in origins if is_taint(t))
                if taints:
                    findings.append(
                        self.finding(
                            info,
                            seed_expr,
                            f"{desc} seeded from nondeterministic source "
                            f"({', '.join(taints)}); seeds must derive "
                            f"from config fields, parameters, or "
                            f"derive_job_seed",
                        )
                    )
                elif origins and origins <= frozenset({CONST}):
                    findings.append(
                        self.finding(
                            info,
                            seed_expr,
                            f"{desc} takes a bare constant seed; thread "
                            f"it through a parameter or config field (or "
                            f"derive_job_seed) so sweeps stay reproducible",
                        )
                    )

        walker = ScopeWalker(evaluator, module, visit=visit)
        walker.run(list(info.tree.body), [{}])
        findings.sort(key=_sort_key)
        yield from findings


# ---------------------------------------------------------------------------
# ZS102: parallel safety
# ---------------------------------------------------------------------------

#: method names that mutate their receiver in place
_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault", "pop",
        "popitem", "remove", "discard", "clear", "appendleft", "extendleft",
        "write", "writelines",
    }
)


def _root_name(node: ast.expr) -> Optional[str]:
    """The base Name of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _local_store_names(func: FunctionInfo) -> Set[str]:
    """Parameters plus every name the function (re)binds locally."""
    names: Set[str] = set(func.params)
    for node in ast.walk(func.node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
    return names


@register_deep_rule
class ParallelSafetyRule(DeepRule):
    """ZS102: worker-reachable code must be pure w.r.t. module state."""

    code = "ZS102"
    name = "parallel-safety"
    summary = (
        "code dispatched to worker processes must not capture or mutate "
        "module-level state, hold open handles, or cross the pickle "
        "boundary with local functions"
    )

    def check_module(
        self, model: "SemanticModel", module: str
    ) -> Iterator[Finding]:
        info = model.graph.modules[module]
        findings: List[Finding] = []
        workers: List[FunctionInfo] = []
        evaluator = model.evaluator

        def visit(call: ast.Call, envs: List[Dict[str, Origins]]) -> None:
            func = call.func
            if not (isinstance(func, ast.Attribute) and func.attr == "submit"):
                return
            if not call.args:
                return
            worker_expr = call.args[0]
            if isinstance(worker_expr, ast.Lambda):
                findings.append(
                    self.finding(
                        info,
                        worker_expr,
                        "lambda submitted to a process pool is not "
                        "picklable; dispatch a module-level function",
                    )
                )
            else:
                target: Optional[FunctionInfo] = None
                origins = evaluator.expr_origins(
                    module, worker_expr, list(envs)
                )
                if LOCAL_FUNCTION in origins:
                    findings.append(
                        self.finding(
                            info,
                            worker_expr,
                            "locally-defined function submitted to a "
                            "process pool is not picklable; dispatch a "
                            "module-level function",
                        )
                    )
                elif isinstance(worker_expr, (ast.Name, ast.Attribute)):
                    fake_call = ast.Call(
                        func=worker_expr, args=[], keywords=[]
                    )
                    target = resolve_call(model, module, fake_call)
                if target is not None:
                    workers.append(target)
            for arg in [*call.args[1:], *[kw.value for kw in call.keywords]]:
                origins = evaluator.expr_origins(module, arg, list(envs))
                if isinstance(arg, ast.Lambda) or LOCAL_FUNCTION in origins:
                    findings.append(
                        self.finding(
                            info,
                            arg,
                            "unpicklable callable (lambda or local "
                            "function) passed as a worker argument",
                        )
                    )
                elif OPEN_HANDLE in origins:
                    findings.append(
                        self.finding(
                            info,
                            arg,
                            "open file handle passed across the process "
                            "boundary; pass a path and open in the worker",
                        )
                    )
                elif MODULE_MUTABLE in origins:
                    findings.append(
                        self.finding(
                            info,
                            arg,
                            "module-level mutable state passed to a "
                            "worker; the child gets a copy and mutations "
                            "are lost — pass values and merge returns",
                        )
                    )

        walker = ScopeWalker(evaluator, module, visit=visit)
        walker.run(list(info.tree.body), [{}])

        reached = model.callgraph.reachable(func_key(w) for w in workers)
        for key in sorted(reached):
            worker_fn = model.callgraph.functions[key]
            findings.extend(self._check_reachable(model, worker_fn))

        findings.sort(key=_sort_key)
        yield from findings

    def _check_reachable(
        self, model: "SemanticModel", fn: FunctionInfo
    ) -> List[Finding]:
        """Structural violations inside one worker-reachable function."""
        out: List[Finding] = []
        info = model.graph.modules.get(fn.module)
        if info is None:
            return out
        symbols = model.symbols_of(fn.module)
        bindings = symbols.bindings if symbols is not None else {}
        local = _local_store_names(fn)
        where = f"'{fn.qualname}' is reachable from a worker dispatch but"
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                kind = "global" if isinstance(node, ast.Global) else "nonlocal"
                out.append(
                    self.finding(
                        info,
                        node,
                        f"{where} declares '{kind} "
                        f"{', '.join(node.names)}'; mutate nothing outside "
                        f"the call — return results instead",
                    )
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if not isinstance(target, (ast.Attribute, ast.Subscript)):
                        continue
                    root = _root_name(target)
                    if root is None or root in ("self", "cls"):
                        continue
                    if root in local:
                        continue
                    if root in bindings or (
                        model.graph.imported(fn.module, root) is not None
                    ):
                        out.append(
                            self.finding(
                                info,
                                target,
                                f"{where} mutates module-level state "
                                f"'{root}'; worker results must flow "
                                f"through return values",
                            )
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "open":
                    out.append(
                        self.finding(
                            info,
                            node,
                            f"{where} opens a file handle; workers must "
                            f"not touch host files directly",
                        )
                    )
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATORS
                    and isinstance(func.value, ast.Name)
                    and func.value.id not in local
                    and func.value.id in bindings
                    and bindings[func.value.id].kind == "mutable"
                ):
                    out.append(
                        self.finding(
                            info,
                            node,
                            f"{where} calls .{func.attr}() on module-level "
                            f"mutable '{func.value.id}'; worker results "
                            f"must flow through return values",
                        )
                    )
        return out


# ---------------------------------------------------------------------------
# ZS103: merge completeness
# ---------------------------------------------------------------------------

_FACTORIES = frozenset({"counter", "gauge", "histogram", "int_histogram"})
_METRIC_CLASSES = frozenset({"Counter", "Gauge", "Histogram", "IntHistogram"})


def _referenced_names(node: ast.AST) -> Set[str]:
    """Every Name id and Attribute attr appearing under ``node``."""
    refs: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            refs.add(child.id)
        elif isinstance(child, ast.Attribute):
            refs.add(child.attr)
    return refs


def _factory_tail(node: ast.expr) -> Optional[str]:
    """The factory name when ``node`` is a metric-factory call."""
    if not isinstance(node, ast.Call):
        return None
    chain = dotted_name(node.func)
    if chain is None:
        return None
    tail = chain.split(".")[-1]
    return tail if tail in _FACTORIES else None


def _extra_metric_attrs(cls: ClassInfo) -> List[Tuple[str, int]]:
    """``self.<attr> = registry.<factory>(...)`` bindings in initializers.

    Both plain attribute assignment and the frozen-dataclass
    ``object.__setattr__(self, "attr", factory(...))`` shape count.
    """
    out: List[Tuple[str, int]] = []
    for mname in ("__init__", "__post_init__"):
        method = cls.methods.get(mname)
        if method is None:
            continue
        for node in ast.walk(method.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and _factory_tail(node.value) is not None
                ):
                    out.append((target.attr, node.lineno))
            elif isinstance(node, ast.Call):
                chain = dotted_name(node.func)
                if (
                    chain == "object.__setattr__"
                    and len(node.args) == 3
                    and isinstance(node.args[1], ast.Constant)
                    and isinstance(node.args[1].value, str)
                    and _factory_tail(node.args[2]) is not None
                ):
                    out.append((node.args[1].value, node.lineno))
    return sorted(set(out))


@register_deep_rule
class MergeCompletenessRule(DeepRule):
    """ZS103: every registered metric must be covered by a merge path."""

    code = "ZS103"
    name = "merge-completeness"
    summary = (
        "stats facades and metric registries must fold every metric "
        "they register in merge()/merge_snapshot(), or the parallel "
        "sweep silently drops data"
    )

    def check_module(
        self, model: "SemanticModel", module: str
    ) -> Iterator[Finding]:
        info = model.graph.modules[module]
        symbols = model.symbols_of(module)
        if symbols is None:
            return
        findings: List[Finding] = []
        for cname in sorted(symbols.classes):
            cls = symbols.classes[cname]
            findings.extend(self._check_stats_facade(info, cls))
            findings.extend(self._check_registry(info, cls))
        findings.sort(key=_sort_key)
        yield from findings

    def _check_stats_facade(
        self, info: ModuleInfo, cls: ClassInfo
    ) -> List[Finding]:
        """RegistryStats subclasses: merge() must cover what they add."""
        out: List[Finding] = []
        if "RegistryStats" not in cls.base_tails():
            return out
        extra = _extra_metric_attrs(cls)
        merge = cls.methods.get("merge")
        if merge is None:
            for attr, lineno in extra:
                out.append(
                    self.finding(
                        info,
                        cls.node,
                        f"{cls.name} registers metric attribute "
                        f"'{attr}' (line {lineno}) but defines no "
                        f"merge(); parallel sweeps would drop it",
                    )
                )
            return out
        refs = _referenced_names(merge.node)
        for attr, _lineno in extra:
            if attr not in refs:
                out.append(
                    self.finding(
                        info,
                        merge.node,
                        f"{cls.name}.merge() does not fold metric "
                        f"attribute '{attr}'; every registered metric "
                        f"must be merged",
                    )
                )
        if cls.counter_fields and "merge_counters" not in refs:
            missing = [f for f in cls.counter_fields if f not in refs]
            if missing:
                out.append(
                    self.finding(
                        info,
                        merge.node,
                        f"{cls.name}.merge() neither calls "
                        f"merge_counters() nor folds counter field(s) "
                        f"{', '.join(missing)}",
                    )
                )
        return out

    def _check_registry(
        self, info: ModuleInfo, cls: ClassInfo
    ) -> List[Finding]:
        """Registry classes: merge_snapshot must fold every metric kind."""
        out: List[Finding] = []
        factories: Dict[str, str] = {}
        for mname in sorted(cls.methods):
            for node in ast.walk(cls.methods[mname].node):
                if not isinstance(node, ast.Call):
                    continue
                chain = dotted_name(node.func)
                if chain is None or chain.split(".")[-1] != "_register":
                    continue
                if len(node.args) >= 2 and isinstance(node.args[1], ast.Call):
                    metric_chain = dotted_name(node.args[1].func)
                    if metric_chain is not None:
                        metric = metric_chain.split(".")[-1]
                        if metric in _METRIC_CLASSES:
                            factories[mname] = metric
        merge_snapshot = cls.methods.get("merge_snapshot")
        if not factories or merge_snapshot is None:
            return out
        refs = _referenced_names(merge_snapshot.node)
        for factory in sorted(factories):
            metric = factories[factory]
            if factory not in refs and metric not in refs:
                out.append(
                    self.finding(
                        info,
                        merge_snapshot.node,
                        f"{cls.name}.merge_snapshot() does not fold "
                        f"'{factory}' metrics ({metric}); snapshot "
                        f"entries of that kind would be dropped or "
                        f"crash the merge",
                    )
                )
        return out


# ---------------------------------------------------------------------------
# ZS104: hidden module state
# ---------------------------------------------------------------------------

#: ``serve`` is in scope because its code runs on many threads at once:
#: a module-level mutable there is state no shard lock guards
_SIM_PACKAGES = frozenset({"core", "sim", "replacement", "serve"})


@register_deep_rule
class HiddenModuleStateRule(DeepRule):
    """ZS104: simulator and serve packages keep no module-level mutables."""

    code = "ZS104"
    name = "hidden-module-state"
    summary = (
        "core/, sim/, replacement/ and serve/ modules must not hold "
        "mutable module-level globals; state lives in objects"
    )

    @classmethod
    def applies_to_module(cls, module: str, path: Path) -> bool:
        return bool(_SIM_PACKAGES & set(path.parts))

    def check_module(
        self, model: "SemanticModel", module: str
    ) -> Iterator[Finding]:
        info = model.graph.modules[module]
        symbols = model.symbols_of(module)
        if symbols is None:
            return
        for binding in symbols.mutable_globals():
            yield Finding(
                code=self.code,
                message=(
                    f"module-level mutable global '{binding.name}'; "
                    f"state must live in objects threaded "
                    f"through calls (freeze constants with tuple/"
                    f"frozenset/MappingProxyType)"
                ),
                path=str(info.path),
                line=binding.lineno,
                column=binding.col,
            )


# ---------------------------------------------------------------------------
# ZS109: span discipline
# ---------------------------------------------------------------------------

#: span-opening method names that must appear as a ``with`` item
_SPAN_OPENERS = frozenset({"span", "turbo_batches", "_start"})


@register_deep_rule
class SpanDisciplineRule(DeepRule):
    """ZS109: spans open only as ``with`` items in simulation code.

    A span (or a tracker-managed helper like ``turbo_batches``) opened
    outside a ``with`` statement leaks open when the enclosed work
    raises: its duration is never recorded and every later span on the
    thread parents under a ghost. ``record_span`` (an already-measured
    interval) is the sanctioned non-``with`` spelling.
    """

    code = "ZS109"
    name = "span-discipline"
    summary = (
        "core/, kernels/ and experiments/ code must open spans as "
        "`with tracker.span(...)` (or a tracker-managed helper) so "
        "spans cannot leak open on exceptions"
    )

    _SCOPED = frozenset({"core", "kernels", "experiments"})

    @classmethod
    def applies_to_module(cls, module: str, path: Path) -> bool:
        return bool(cls._SCOPED & set(path.parts))

    def check_module(
        self, model: "SemanticModel", module: str
    ) -> Iterator[Finding]:
        info = model.graph.modules[module]
        with_items: Set[int] = set()
        for node in ast.walk(info.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_items.add(id(item.context_expr))
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _SPAN_OPENERS
            ):
                continue
            if id(node) in with_items:
                continue
            yield self.finding(
                info,
                node,
                f"'.{func.attr}(...)' opens a span outside a 'with' "
                f"statement; use `with tracker.{func.attr}(...)` so the "
                f"span closes on exceptions (record_span is the "
                f"sanctioned non-with form)",
            )
