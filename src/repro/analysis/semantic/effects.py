"""Interprocedural effect inference and the ZS105–ZS108 deep rules.

Built on the ZProve semantic model (symbol tables + call graph), this
layer classifies every analyzed function by the *effects* it can have
on simulator state:

- **mutates array state** — writes/deletes through the canonical
  storage attributes (``_lines``, ``_pos``, ``_free``, ``tags``, and
  the zcache's ``_homes`` home-position table),
  whether by assignment, ``del``, or an in-place mutator method call;
- **folds a registered Counter** — ``sc["name"].value += n`` /
  ``self._c_name.value += n`` accumulations into the metrics registry;
- **draws raw RNG** — entropy taken directly from the ``random`` /
  ``numpy`` *modules* rather than a seeded ``random.Random`` instance
  (or its bit-synced :class:`~repro.kernels.rng.MTStream` twin);
- **may raise** — explicit ``raise`` statements, positioned relative
  to the function's first mutation.

Direct effects are extracted per function; reachable effects close
over the static call graph. Four deep rules consume the analysis:

- **ZS105 two-phase purity** — candidate collection (every
  ``build_replacement`` / ``build_reinsertion`` / ``prepare_fill`` and
  the turbo walk kernels' ``collect``) must not reach an array-state
  mutation: the walk phase of the two-phase protocol is read-only by
  contract (paper Section III-D; the off-lock walk discipline in "Limited
  Associativity Makes Concurrent Software Caches a Breeze").
- **ZS106 exception-state safety** — a function that both mutates
  array state and raises *after* its first mutation can strand a
  half-applied update exactly when the caller retries; guards must
  precede mutation (or the function carries ``# zspec: atomic``).
- **ZS107 engine fold parity** — the static dual of
  ``scripts/diff_engines.py``: every counter folded on the reference
  access path (``Cache`` + ``ZCacheArray``) must also be folded on the
  ``TurboCore`` path, minus the documented exemptions.
- **ZS108 RNG-draw discipline** — simulator packages (``core``,
  ``kernels``) must route all entropy through seeded ``random.Random``
  instances or MTStream-synced kernels; raw module-level draws are
  unreproducible and break engine lockstep.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.analysis.lint.engine import Finding
from repro.analysis.semantic.callgraph import FuncKey, func_key
from repro.analysis.semantic.deeprules import DeepRule, register_deep_rule
from repro.analysis.semantic.symbols import ClassInfo, FunctionInfo, dotted_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.semantic.model import SemanticModel

#: the canonical array-storage attributes (see ``CacheArray`` and
#: ``TurboCore``): any write through these is an array-state mutation
STATE_ATTRS = frozenset({"_lines", "_pos", "_free", "tags", "_homes"})

#: receiver methods that mutate their target in place
_STATE_MUTATORS = frozenset(
    {"add", "append", "extend", "insert", "remove", "discard", "clear",
     "update", "pop", "popitem", "setdefault"}
)

#: draw methods that consume entropy (constructors are deliberately
#: absent: ``random.Random(seed)`` *creates* a sanctioned stream)
_DRAW_METHODS = frozenset(
    {"random", "randrange", "randint", "getrandbits", "choice", "choices",
     "shuffle", "sample", "uniform", "gauss", "normalvariate", "betavariate",
     "rand", "randn", "integers", "permutation"}
)

#: external modules whose direct draws ZS108 flags
_RNG_MODULES = frozenset({"random", "numpy", "numpy.random"})

#: counters the reference path folds that the turbo path, by design,
#: never can: the turbo engine declines pinned caches (pin_overflows)
#: and candidate-limited walks (truncated_walks) in try_build_turbo,
#: so those counters are structurally zero under turbo
TURBO_EXEMPT_COUNTERS = frozenset({"pin_overflows", "truncated_walks"})

#: marker comment exempting a function from ZS106 (the author asserts
#: the raise-after-mutation either restores state or is unreachable)
_ATOMIC_MARKER = "# zspec: atomic"


def _attr_parts(node: ast.expr) -> List[str]:
    """Attribute names along a Name/Attribute/Subscript chain, in order.

    ``self._lines[way][index]`` -> ``["self", "_lines"]``;
    ``zc._c_walks.value`` -> ``["zc", "_c_walks", "value"]``.
    """
    parts: List[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    parts.reverse()
    return parts


def _touches_state(node: ast.expr) -> Optional[str]:
    """The state attribute a store/delete target writes through, if any."""
    for part in _attr_parts(node):
        if part in STATE_ATTRS:
            return part
    return None


@dataclass
class MutationSite:
    """One direct array-state mutation inside a function."""

    line: int
    attr: str  #: which of :data:`STATE_ATTRS` is written
    desc: str  #: human-readable site description


@dataclass
class RngSite:
    """One direct raw-module RNG draw inside a function."""

    line: int
    desc: str


@dataclass
class FunctionEffects:
    """Direct (non-transitive) effects of one analyzed function."""

    key: FuncKey
    mutations: List[MutationSite] = field(default_factory=list)
    folds: Set[str] = field(default_factory=set)
    rng_draws: List[RngSite] = field(default_factory=list)
    raise_lines: List[int] = field(default_factory=list)

    @property
    def mutates(self) -> bool:
        return bool(self.mutations)

    def first_mutation_line(self) -> Optional[int]:
        """Source line of the lexically first mutation, if any."""
        return min((m.line for m in self.mutations), default=None)


def _fold_name(target: ast.expr) -> Optional[str]:
    """The counter name a ``<x>.value += n`` target folds into, if any.

    Recognizes the two idioms the engines use:
    ``sc["name"].value += n`` (registry subscript) and
    ``obj._c_name.value += n`` (bound counter reference).
    """
    if not (isinstance(target, ast.Attribute) and target.attr == "value"):
        return None
    owner = target.value
    if isinstance(owner, ast.Subscript):
        index = owner.slice
        if isinstance(index, ast.Constant) and isinstance(index.value, str):
            return index.value
        return None
    if isinstance(owner, ast.Attribute) and owner.attr.startswith("_c_"):
        return owner.attr[len("_c_"):]
    return None


def _rng_draw(model: "SemanticModel", module: str, call: ast.Call) -> Optional[str]:
    """Describe ``call`` when it draws from a raw RNG module."""
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in _DRAW_METHODS:
        return None
    chain = dotted_name(func)
    if chain is None:
        return None
    parts = chain.split(".")
    root = parts[0]
    if root in ("self", "cls"):
        return None
    imported = model.graph.imported(module, root)
    if imported is None or imported.internal:
        return None
    target = imported.module
    if imported.symbol is not None:
        target = f"{imported.module}.{imported.symbol}"
    if target in _RNG_MODULES or any(
        target == m or target.startswith(m + ".") for m in _RNG_MODULES
    ):
        return chain
    return None


class EffectAnalysis:
    """Lazy per-function effect extraction plus call-graph closure."""

    def __init__(self, model: "SemanticModel") -> None:
        self.model = model
        self._direct: Dict[FuncKey, FunctionEffects] = {}

    # -- direct effects ------------------------------------------------------
    def direct(self, info: FunctionInfo) -> FunctionEffects:
        """Direct effects of one function (memoized)."""
        key = func_key(info)
        cached = self._direct.get(key)
        if cached is not None:
            return cached
        eff = FunctionEffects(key=key)
        for node in ast.walk(info.node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets: Iterable[ast.expr]
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AugAssign):
                    targets = [node.target]
                else:
                    targets = node.targets
                for target in targets:
                    attr = _touches_state(target)
                    if attr is not None:
                        verb = "del" if isinstance(node, ast.Delete) else "write"
                        eff.mutations.append(
                            MutationSite(
                                line=node.lineno,
                                attr=attr,
                                desc=f"{verb} through '{attr}'",
                            )
                        )
                if isinstance(node, ast.AugAssign):
                    name = _fold_name(node.target)
                    if name is not None:
                        eff.folds.add(name)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _STATE_MUTATORS
                ):
                    attr = _touches_state(func.value)
                    if attr is not None:
                        eff.mutations.append(
                            MutationSite(
                                line=node.lineno,
                                attr=attr,
                                desc=f".{func.attr}() on '{attr}'",
                            )
                        )
                draw = _rng_draw(self.model, info.module, node)
                if draw is not None:
                    eff.rng_draws.append(
                        RngSite(line=node.lineno, desc=draw)
                    )
            elif isinstance(node, ast.Raise):
                eff.raise_lines.append(node.lineno)
        self._direct[key] = eff
        return eff

    # -- closure over the call graph ----------------------------------------
    def reachable_effects(
        self, roots: Iterable[FuncKey]
    ) -> Iterator[Tuple[FunctionInfo, FunctionEffects]]:
        """Direct effects of every function reachable from ``roots``."""
        graph = self.model.callgraph
        for key in sorted(graph.reachable(roots)):
            info = graph.functions[key]
            yield info, self.direct(info)

    def reachable_mutations(
        self, roots: Iterable[FuncKey]
    ) -> List[Tuple[FunctionInfo, MutationSite]]:
        """Every mutation site reachable from ``roots``, stable order."""
        out: List[Tuple[FunctionInfo, MutationSite]] = []
        for info, eff in self.reachable_effects(roots):
            out.extend((info, site) for site in eff.mutations)
        return out

    def reachable_folds(self, roots: Iterable[FuncKey]) -> Set[str]:
        """Every counter name folded anywhere reachable from ``roots``."""
        folds: Set[str] = set()
        for _info, eff in self.reachable_effects(roots):
            folds |= eff.folds
        return folds


def _model_effects(model: "SemanticModel") -> EffectAnalysis:
    """The per-model memoized :class:`EffectAnalysis` instance."""
    analysis = getattr(model, "_effect_analysis", None)
    if analysis is None:
        analysis = EffectAnalysis(model)
        model._effect_analysis = analysis  # type: ignore[attr-defined]
    return analysis


def _classes_named(
    model: "SemanticModel", name: str
) -> List[Tuple[str, ClassInfo]]:
    """Every analyzed class with ``name``, as ``(module, info)`` pairs."""
    out: List[Tuple[str, ClassInfo]] = []
    for module in sorted(model.graph.modules):
        symbols = model.symbols_of(module)
        if symbols is not None and name in symbols.classes:
            out.append((module, symbols.classes[name]))
    return out


_SIM_PACKAGES = frozenset({"core", "kernels"})

#: candidate-collection entry points: the read-only phase of the
#: two-phase protocol, in both engines, and the serve shard's off-lock
#: walk (``TwoPhaseZCache.prepare_fill`` runs with no lock held)
_WALK_METHODS = frozenset(
    {"build_replacement", "build_reinsertion", "prepare_fill"}
)
_WALK_KERNEL_METHOD = "collect"


# ---------------------------------------------------------------------------
# ZS105: two-phase purity
# ---------------------------------------------------------------------------


@register_deep_rule
class TwoPhasePurityRule(DeepRule):
    """ZS105: candidate collection must not reach a state mutation."""

    code = "ZS105"
    name = "two-phase-purity"
    summary = (
        "build_replacement/build_reinsertion/prepare_fill walks and "
        "turbo walk kernels are read-only: no array-state mutation may be "
        "reachable from candidate collection"
    )

    def _roots(
        self, model: "SemanticModel", module: str
    ) -> List[FuncKey]:
        """Walk entry points *defined in* ``module``."""
        symbols = model.symbols_of(module)
        if symbols is None:
            return []
        roots: List[FuncKey] = []
        for cname in sorted(symbols.classes):
            cls = symbols.classes[cname]
            for mname in sorted(cls.methods):
                is_walk = mname in _WALK_METHODS or (
                    mname == _WALK_KERNEL_METHOD and cname.endswith("Walk")
                )
                if is_walk:
                    roots.append(func_key(cls.methods[mname]))
        return roots

    def check_module(
        self, model: "SemanticModel", module: str
    ) -> Iterator[Finding]:
        roots = self._roots(model, module)
        if not roots:
            return
        effects = _model_effects(model)
        findings: List[Finding] = []
        for info, site in effects.reachable_mutations(roots):
            owner = model.graph.modules.get(info.module)
            if owner is None:
                continue
            findings.append(
                Finding(
                    code=self.code,
                    message=(
                        f"'{info.qualname}' mutates array state "
                        f"({site.desc}) and is reachable from a "
                        f"candidate-collection walk; the walk phase is "
                        f"read-only — mutations belong in commit"
                    ),
                    path=str(owner.path),
                    line=site.line,
                )
            )
        findings.sort(key=lambda f: (f.path, f.line, f.column, f.message))
        yield from findings


# ---------------------------------------------------------------------------
# ZS106: exception-state safety
# ---------------------------------------------------------------------------


@register_deep_rule
class ExceptionStateSafetyRule(DeepRule):
    """ZS106: no raise after the first mutation without restoration."""

    code = "ZS106"
    name = "exception-state-safety"
    summary = (
        "a function mutating array state must not raise after its "
        "first mutation (guards precede writes, or mark the function "
        "'# zspec: atomic')"
    )

    @classmethod
    def applies_to_module(cls, module: str, path: Path) -> bool:
        return bool(_SIM_PACKAGES & set(path.parts))

    def check_module(
        self, model: "SemanticModel", module: str
    ) -> Iterator[Finding]:
        symbols = model.symbols_of(module)
        info = model.graph.modules.get(module)
        if symbols is None or info is None:
            return
        effects = _model_effects(model)
        source_lines = info.text.splitlines()
        findings: List[Finding] = []
        for fn in symbols.all_functions():
            eff = effects.direct(fn)
            first = eff.first_mutation_line()
            if first is None:
                continue
            def_line = source_lines[fn.lineno - 1] if (
                0 < fn.lineno <= len(source_lines)
            ) else ""
            if _ATOMIC_MARKER in def_line:
                continue
            for raise_line in eff.raise_lines:
                if raise_line > first:
                    findings.append(
                        Finding(
                            code=self.code,
                            message=(
                                f"'{fn.qualname}' raises at line "
                                f"{raise_line} after mutating array state "
                                f"(first mutation at line {first}); a "
                                f"rejected operation must leave state "
                                f"untouched — hoist the guard above the "
                                f"mutation or mark the def "
                                f"'{_ATOMIC_MARKER}'"
                            ),
                            path=str(info.path),
                            line=raise_line,
                        )
                    )
        findings.sort(key=lambda f: (f.path, f.line, f.column, f.message))
        yield from findings


# ---------------------------------------------------------------------------
# ZS107: engine fold parity
# ---------------------------------------------------------------------------

#: reference-path roots: controller surface plus the array operations
#: the controller invokes through ``self.array`` (attribute calls on
#: values are invisible to the static call graph, so they are listed
#: as explicit roots)
_REFERENCE_ROOTS = (
    ("Cache", ("access", "invalidate", "absorb_writeback")),
    ("ZCacheArray", ("build_replacement", "commit_replacement")),
)
_TURBO_ROOTS = (("TurboCore", ("access", "invalidate")),)


@register_deep_rule
class EngineFoldParityRule(DeepRule):
    """ZS107: reference-path counter folds must exist on the turbo path."""

    code = "ZS107"
    name = "engine-fold-parity"
    summary = (
        "every Counter folded on the reference access path must be "
        "folded on the TurboCore path (static dual of "
        "scripts/diff_engines.py)"
    )

    def _root_keys(
        self,
        model: "SemanticModel",
        spec: Tuple[Tuple[str, Tuple[str, ...]], ...],
    ) -> List[FuncKey]:
        keys: List[FuncKey] = []
        for cname, methods in spec:
            for _module, cls in _classes_named(model, cname):
                for mname in methods:
                    fn = cls.methods.get(mname)
                    if fn is not None:
                        keys.append(func_key(fn))
        return keys

    def check_module(
        self, model: "SemanticModel", module: str
    ) -> Iterator[Finding]:
        symbols = model.symbols_of(module)
        info = model.graph.modules.get(module)
        if symbols is None or info is None:
            return
        turbo = symbols.classes.get("TurboCore")
        if turbo is None:
            return  # parity is checked from TurboCore's defining module
        effects = _model_effects(model)
        ref_roots = self._root_keys(model, _REFERENCE_ROOTS)
        turbo_roots = self._root_keys(model, _TURBO_ROOTS)
        if not ref_roots or not turbo_roots:
            return
        ref_folds = effects.reachable_folds(ref_roots)
        turbo_folds = effects.reachable_folds(turbo_roots)
        missing = sorted(ref_folds - turbo_folds - TURBO_EXEMPT_COUNTERS)
        if missing:
            yield Finding(
                code=self.code,
                message=(
                    f"TurboCore path never folds counter(s) "
                    f"{', '.join(missing)} that the reference path "
                    f"folds; the engines would silently diverge on "
                    f"statistics (diff_engines would catch it at "
                    f"runtime — fix the kernel fold)"
                ),
                path=str(info.path),
                line=turbo.lineno,
            )


# ---------------------------------------------------------------------------
# ZS108: RNG-draw discipline
# ---------------------------------------------------------------------------


@register_deep_rule
class RngDisciplineRule(DeepRule):
    """ZS108: core/kernels entropy routes through seeded streams."""

    code = "ZS108"
    name = "rng-draw-discipline"
    summary = (
        "core/ and kernels/ must draw entropy only from seeded "
        "random.Random instances or MTStream-synced kernels, never "
        "from the raw random/numpy modules"
    )

    @classmethod
    def applies_to_module(cls, module: str, path: Path) -> bool:
        return bool(_SIM_PACKAGES & set(path.parts))

    def check_module(
        self, model: "SemanticModel", module: str
    ) -> Iterator[Finding]:
        info = model.graph.modules.get(module)
        if info is None:
            return
        findings: List[Finding] = []
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            draw = _rng_draw(model, module, node)
            if draw is not None:
                findings.append(
                    Finding(
                        code=self.code,
                        message=(
                            f"raw module-level RNG draw '{draw}()' in a "
                            f"simulator package; route entropy through a "
                            f"seeded random.Random (or its MTStream "
                            f"twin) so runs replay bit-identically"
                        ),
                        path=str(info.path),
                        line=node.lineno,
                    )
                )
        findings.sort(key=lambda f: (f.path, f.line, f.column, f.message))
        yield from findings


__all__ = [
    "STATE_ATTRS",
    "TURBO_EXEMPT_COUNTERS",
    "EffectAnalysis",
    "FunctionEffects",
    "MutationSite",
    "RngSite",
    "EngineFoldParityRule",
    "ExceptionStateSafetyRule",
    "RngDisciplineRule",
    "TwoPhasePurityRule",
]
