"""The repository rule set: codes ZS001–ZS006, ZS104 and ZS109.

Each rule encodes one of the simulator's correctness conventions; the
rationale for every code lives in ``docs/lint_rules.md``. Rules are
pure AST checks — no imports of the checked code are performed, so the
linter can run on broken trees and fixtures safely.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional

from repro.analysis.lint.engine import (
    Finding,
    LintRule,
    LintSource,
    register_rule,
)


def _dotted(node: ast.AST) -> Optional[str]:
    """Resolve an attribute chain to ``root.attr.attr`` or None.

    ``np.random.rand`` -> ``"np.random.rand"``; anything rooted in a
    call or subscript resolves to None (not a plain module reference).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _import_aliases(tree: ast.Module, module: str) -> set[str]:
    """Local names bound to ``module`` by ``import`` statements."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    names.add(alias.asname or module.split(".")[0])
    return names


@register_rule
class UnseededRandomness(LintRule):
    """ZS001: all randomness must flow through a seeded ``random.Random``.

    The determinism contract (``tests/test_determinism.py``) requires
    every simulation to be bit-reproducible from explicit seeds. Calls
    into the process-global RNG — ``random.random()``,
    ``random.choice()``, ``random.seed()``, ``numpy.random.rand()`` and
    friends — or an *unseeded* ``random.Random()`` break that contract
    silently: results drift between runs with no error.
    """

    code = "ZS001"
    name = "unseeded-randomness"
    summary = "randomness must come from an injected, seeded random.Random"

    #: names importable from ``random`` without tripping the rule
    _SAFE_FROM_RANDOM = frozenset({"Random", "SystemRandom"})
    #: bit-generator classes: deterministic when (and only when) seeded,
    #: so they get the same treatment as ``default_rng``
    _NP_BIT_GENERATORS = frozenset({"MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64"})
    #: numpy.random attributes that are seedable-by-construction
    _SAFE_FROM_NP_RANDOM = (
        frozenset({"Generator", "SeedSequence", "default_rng"}) | _NP_BIT_GENERATORS
    )

    def check(self, src: LintSource) -> Iterator[Finding]:
        """Flag global-RNG imports and calls in ``src``."""
        tree = src.tree
        random_names = _import_aliases(tree, "random")
        numpy_names = _import_aliases(tree, "numpy")

        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                yield from self._check_import_from(src, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(src, node, random_names, numpy_names)

    def _check_import_from(
        self, src: LintSource, node: ast.ImportFrom
    ) -> Iterator[Finding]:
        if node.module == "random":
            for alias in node.names:
                if alias.name not in self._SAFE_FROM_RANDOM:
                    yield self.finding(
                        src,
                        node,
                        f"'from random import {alias.name}' binds the "
                        "process-global RNG; import random.Random and seed it",
                    )
        elif node.module in ("numpy.random", "numpy"):
            for alias in node.names:
                if node.module == "numpy" and alias.name != "random":
                    continue
                if (
                    node.module == "numpy.random"
                    and alias.name in self._SAFE_FROM_NP_RANDOM
                ):
                    continue
                yield self.finding(
                    src,
                    node,
                    "importing numpy's global random state; use "
                    "numpy.random.default_rng(seed) and pass the generator",
                )

    def _check_call(
        self,
        src: LintSource,
        node: ast.Call,
        random_names: set[str],
        numpy_names: set[str],
    ) -> Iterator[Finding]:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        root, tail = parts[0], parts[-1]
        if root in random_names and len(parts) == 2:
            if tail == "SystemRandom":
                return
            if tail == "Random":
                if not node.args and not node.keywords:
                    yield self.finding(
                        src,
                        node,
                        "random.Random() without a seed is nondeterministic; "
                        "pass an explicit seed",
                    )
                return
            yield self.finding(
                src,
                node,
                f"random.{tail}() uses the process-global RNG; thread a "
                "seeded random.Random through instead",
            )
        elif root in numpy_names and len(parts) >= 3 and parts[1] == "random":
            if tail in ("Generator", "SeedSequence"):
                return
            if tail == "default_rng" or tail in self._NP_BIT_GENERATORS:
                if not node.args and not node.keywords:
                    yield self.finding(
                        src,
                        node,
                        f"numpy.random.{tail}() without a seed is "
                        "nondeterministic; pass an explicit seed",
                    )
                return
            yield self.finding(
                src,
                node,
                f"numpy.random.{tail}() uses numpy's global RNG; use a "
                "seeded default_rng(seed) generator",
            )


def _is_float_literal(node: ast.AST) -> bool:
    """True for ``1.5`` and ``-1.5`` (unary minus of a float constant)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


@register_rule
class FloatEquality(LintRule):
    """ZS002: no ``==`` / ``!=`` against float literals.

    The statistics and associativity pipelines accumulate floating
    point; exact comparison against a float literal is almost always a
    latent bug (``0.1 + 0.2 != 0.3``). Use ``math.isclose`` or an
    explicit tolerance. Intentional sentinel comparisons can be
    suppressed with ``# zsan: ignore[ZS002]``.
    """

    code = "ZS002"
    name = "float-equality"
    summary = "compare floats with math.isclose or a tolerance, not ==/!="

    def check(self, src: LintSource) -> Iterator[Finding]:
        """Flag ``==``/``!=`` comparisons with a float-literal operand."""
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for (left, right), op in zip(
                zip(operands, operands[1:]), node.ops
            ):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_literal(left) or _is_float_literal(right):
                    sym = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        src,
                        node,
                        f"float literal compared with '{sym}'; use "
                        "math.isclose or an explicit tolerance",
                    )
                    break


@register_rule
class PolicyContract(LintRule):
    """ZS003: ``ReplacementPolicy`` subclasses must honour the contract.

    Direct subclasses must override the four abstract hooks
    (``on_insert``/``on_access``/``on_evict``/``score``), and no policy
    method may mutate a ``candidates`` parameter — the controller owns
    the candidate list and hands the same sequence to instrumentation
    wrappers; a policy that sorts or pops it corrupts the measurement
    path.
    """

    code = "ZS003"
    name = "policy-contract"
    summary = "policies override the abstract hooks and never mutate candidates"

    REQUIRED_HOOKS = ("on_insert", "on_access", "on_evict", "score")
    _MUTATORS = frozenset(
        {"append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse"}
    )

    def check(self, src: LintSource) -> Iterator[Finding]:
        """Flag contract violations on every policy class in ``src``."""
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {b for b in (_dotted(base) for base in node.bases) if b}
            tails = {b.split(".")[-1] for b in bases}
            if "ReplacementPolicy" not in tails:
                continue
            yield from self._check_hooks(src, node)
            yield from self._check_mutation(src, node)

    @staticmethod
    def _is_abstract(node: ast.ClassDef) -> bool:
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in item.decorator_list:
                name = _dotted(dec)
                if name and name.split(".")[-1] == "abstractmethod":
                    return True
        return False

    def _check_hooks(
        self, src: LintSource, node: ast.ClassDef
    ) -> Iterator[Finding]:
        if self._is_abstract(node):
            return
        defined = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        missing = [h for h in self.REQUIRED_HOOKS if h not in defined]
        if missing:
            yield self.finding(
                src,
                node,
                f"policy class {node.name} does not override required "
                f"hook(s): {', '.join(missing)}",
            )

    def _check_mutation(
        self, src: LintSource, node: ast.ClassDef
    ) -> Iterator[Finding]:
        for item in ast.walk(node):
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = item.args
            params = {
                a.arg
                for a in (
                    *args.posonlyargs, *args.args, *args.kwonlyargs,
                )
            }
            if "candidates" not in params:
                continue
            for stmt in ast.walk(item):
                bad = self._mutation_site(stmt)
                if bad is not None:
                    yield self.finding(
                        src,
                        stmt,
                        f"method {item.name} mutates the 'candidates' "
                        f"parameter ({bad}); copy it first",
                    )

    def _mutation_site(self, stmt: ast.AST) -> Optional[str]:
        if isinstance(stmt, ast.Call):
            func = stmt.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "candidates"
                and func.attr in self._MUTATORS
            ):
                return f"candidates.{func.attr}()"
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (
                stmt.targets
                if isinstance(stmt, (ast.Assign, ast.Delete))
                else [stmt.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "candidates"
                ):
                    return "item assignment"
                if (
                    isinstance(stmt, ast.AugAssign)
                    and isinstance(target, ast.Name)
                    and target.id == "candidates"
                ):
                    return "augmented assignment"
        return None


@register_rule
class DataclassSlots(LintRule):
    """ZS004: ``core/`` dataclasses must declare ``slots=True``.

    The hot paths allocate result and statistics objects per access;
    ``slots=True`` cuts per-instance memory and speeds attribute access,
    and rejects typo'd attribute writes that a ``__dict__`` would
    silently absorb (exactly the failure mode a sanitizer exists to
    catch).
    """

    code = "ZS004"
    name = "dataclass-slots"
    summary = "core/ dataclasses declare slots=True"

    @classmethod
    def applies_to(cls, path: Path) -> bool:
        """Only files under a ``core`` directory are hot-path scoped."""
        return "core" in path.parts

    def check(self, src: LintSource) -> Iterator[Finding]:
        """Flag ``@dataclass`` decorations lacking ``slots=True``."""
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = _dotted(target)
                if not name or name.split(".")[-1] != "dataclass":
                    continue
                if isinstance(dec, ast.Call) and any(
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in dec.keywords
                ):
                    continue
                yield self.finding(
                    src,
                    node,
                    f"dataclass {node.name} in core/ must declare "
                    "slots=True (hot-path allocation)",
                )


@register_rule
class WallClockGlobalState(LintRule):
    """ZS005: no wall-clock reads or ``global`` state in simulation logic.

    Simulated time comes from the timeline model, never the host clock;
    a ``time.time()`` in a simulation path makes results
    machine-dependent. Likewise ``global`` statements introduce hidden
    cross-run state that defeats seed-based reproducibility. The CLI,
    the analysis tooling, the observability layer (whose profiler
    and heartbeat legitimately measure the simulator *process*), and
    the ZServe service layer (which measures real request latency on
    real traffic) are out of scope.
    """

    code = "ZS005"
    name = "wall-clock-global-state"
    summary = "simulation logic reads no host clock and mutates no globals"

    _WALLCLOCK = frozenset(
        {
            "time", "time_ns", "perf_counter", "perf_counter_ns",
            "monotonic", "monotonic_ns", "process_time", "process_time_ns",
        }
    )
    _DATETIME = frozenset({"now", "utcnow", "today"})

    @classmethod
    def applies_to(cls, path: Path) -> bool:
        """Everything except the CLI, analysis, obs and serve layers."""
        posix = path.as_posix()
        if posix.endswith("repro/cli.py"):
            return False
        if "repro/obs" in posix or "repro/serve" in posix:
            return False
        return "repro/analysis" not in posix

    def check(self, src: LintSource) -> Iterator[Finding]:
        """Flag host-clock reads, clock imports, and global statements."""
        tree = src.tree
        time_names = _import_aliases(tree, "time")
        datetime_names = _import_aliases(tree, "datetime")
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                yield self.finding(
                    src,
                    node,
                    "'global' statement mutates module state; pass state "
                    "explicitly (seed-reproducibility contract)",
                )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in self._WALLCLOCK:
                            yield self.finding(
                                src,
                                node,
                                f"'from time import {alias.name}' pulls the "
                                "host clock into simulation logic",
                            )
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                if (
                    len(parts) == 2
                    and parts[0] in time_names
                    and parts[1] in self._WALLCLOCK
                ):
                    yield self.finding(
                        src,
                        node,
                        f"{dotted}() reads the host clock; simulated time "
                        "comes from the timeline model",
                    )
                elif (
                    len(parts) >= 2
                    and parts[-1] in self._DATETIME
                    and (
                        parts[0] in datetime_names
                        or "datetime" in parts[:-1]
                        or parts[-2] in ("datetime", "date")
                    )
                ):
                    yield self.finding(
                        src,
                        node,
                        f"{dotted}() reads the wall clock; simulation "
                        "results must not depend on the host date",
                    )


@register_rule
class CounterBypass(LintRule):
    """ZS006: hot-path counters go through the metrics registry.

    Since the ZScope layer, every statistics counter in ``core/`` and
    ``sim/`` is a registered :class:`~repro.obs.metrics.Counter`; the
    sanctioned increment is ``counter.value += 1`` on a cached counter
    reference (or through a :class:`~repro.obs.metrics.RegistryStats`
    facade's ``counters()`` dict). A plain attribute increment —
    ``self.stats.hits += 1`` or a bare ``self.total_misses += 1`` —
    creates a shadow counter the registry never sees, so metric
    snapshots and ``zcache-repro stats`` silently under-report. Private
    epoch-local accumulators (underscore-prefixed) are fine: they are
    bookkeeping, not reported statistics.

    The ZTurbo kernels (``kernels/``) add a second hazard at their
    accumulator fold points: a vectorized stage computes a batch delta
    and must fold it *additively* into the registered counter. A plain
    assignment — ``counter.value = batch_total`` — overwrites whatever
    the counter already held (reference-path warm-up, invalidations,
    counts surviving a stats swap), so in kernels modules any ``=`` on
    a ``.value`` attribute is flagged alongside the facade bypasses.
    """

    code = "ZS006"
    name = "counter-bypass"
    summary = "core/sim counters increment registered Counters, not attributes"

    #: bare attribute names that are always reported statistics
    _VOCAB = frozenset(
        {
            "accesses", "reads", "writes", "hits", "misses", "evictions",
            "writebacks", "relocations", "invalidations", "walks",
            "candidates", "repeats", "swaps", "epochs", "upgrades",
        }
    )
    #: suffixes that mark an attribute as a counting statistic
    _SUFFIXES = (
        "_hits", "_misses", "_reads", "_writes", "_accesses", "_walks",
        "_wins", "_retries", "_probes", "_overflows", "_sent", "_fills",
    )

    @classmethod
    def applies_to(cls, path: Path) -> bool:
        """The hot-path packages (``core``/``sim``/``kernels`` dirs)."""
        return (
            "core" in path.parts
            or "sim" in path.parts
            or "kernels" in path.parts
        )

    def check(self, src: LintSource) -> Iterator[Finding]:
        """Flag ``+=``/``-=`` on counter-looking attributes.

        In kernels modules, additionally flag plain assignment to a
        ``.value`` attribute (an accumulator fold point must add, not
        overwrite).
        """
        in_kernels = "kernels" in src.path.parts
        for node in ast.walk(src.tree):
            if isinstance(node, ast.AugAssign):
                if not isinstance(node.op, (ast.Add, ast.Sub)):
                    continue
                message = self._bypass_message(node.target)
                if message is not None:
                    yield self.finding(src, node, message)
            elif in_kernels and isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "value"
                    ):
                        yield self.finding(
                            src,
                            node,
                            "'=' on a Counter's .value overwrites counts "
                            "accumulated outside this kernel; fold the "
                            "batch delta additively (counter.value += delta)",
                        )

    def _bypass_message(self, target: ast.AST) -> Optional[str]:
        node = target
        if isinstance(node, ast.Subscript):
            node = node.value
        if not isinstance(node, ast.Attribute):
            return None
        name = node.attr
        if name == "value":
            # counter.value += 1 — the sanctioned registry increment.
            return None
        parent = node.value
        # (a) anything incremented through a stats facade:
        # self.stats.hits, cache.stats.data_writes, self.victim_stats.swaps
        parent_name = None
        if isinstance(parent, ast.Attribute):
            parent_name = parent.attr
        elif isinstance(parent, ast.Name):
            parent_name = parent.id
        if parent_name is not None and parent_name != "self" and (
            parent_name == "stats" or parent_name.endswith("_stats")
        ):
            return (
                f"'{parent_name}.{name} +=' bypasses the metrics registry; "
                "increment the registered Counter's .value (see "
                "repro.obs.metrics.RegistryStats.counters)"
            )
        # (b) a bare counter attribute on self: self.writeback_hits += 1
        if (
            isinstance(parent, ast.Name)
            and parent.id == "self"
            and not name.startswith("_")
            and (name in self._VOCAB or name.endswith(self._SUFFIXES))
        ):
            return (
                f"'self.{name} +=' keeps an ad-hoc counter the registry "
                "never sees; register it (repro.obs.metrics) and increment "
                "the Counter's .value"
            )
        return None


#: constructors whose call builds a mutable container
_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter",
     "OrderedDict"}
)


def _builds_mutable(value: Optional[ast.expr]) -> bool:
    """True for a container display, comprehension or mutable constructor."""
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        name = _dotted(value.func)
        return name is not None and name.split(".")[-1] in _MUTABLE_CALLS
    return False


def _toplevel(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Module-level statements, looking through top-level ``if``/``try``.

    ``if TYPE_CHECKING:`` blocks are skipped: their bindings never
    exist at runtime.
    """
    for stmt in body:
        if isinstance(stmt, ast.If):
            name = _dotted(stmt.test)
            if name and name.split(".")[-1] == "TYPE_CHECKING":
                continue
            yield from _toplevel(stmt.body)
            yield from _toplevel(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            yield from _toplevel(stmt.body)
            for handler in stmt.handlers:
                yield from _toplevel(handler.body)
            yield from _toplevel(stmt.orelse)
            yield from _toplevel(stmt.finalbody)
        else:
            yield stmt


@register_rule
class HiddenModuleState(LintRule):
    """ZS104: simulator and serve packages keep no module-level mutables.

    A module-level list, dict or set in ``core``/``sim``/``replacement``
    is state that outlives one simulation and leaks into the next run in
    the same process. ``serve`` is in scope because its code runs on many
    threads at once: a module-level mutable there is state no shard lock
    guards. Constants are frozen (tuple, frozenset, ``MappingProxyType``);
    ``__all__`` is exempt.
    """

    code = "ZS104"
    name = "hidden-module-state"
    summary = (
        "core/, sim/, replacement/ and serve/ modules must not hold "
        "mutable module-level globals; state lives in objects"
    )

    _SCOPED = frozenset({"core", "sim", "replacement", "serve"})

    @classmethod
    def applies_to(cls, path: Path) -> bool:
        """Files under a simulator or serve package directory."""
        return bool(cls._SCOPED & set(path.parts))

    def check(self, src: LintSource) -> Iterator[Finding]:
        """Flag each name whose module-level binding builds a mutable."""
        flagged: dict[str, ast.stmt] = {}
        for stmt in _toplevel(src.tree.body):
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            else:
                continue
            if not _builds_mutable(stmt.value):
                continue
            for target in targets:
                for node in getattr(target, "elts", [target]):
                    if isinstance(node, ast.Name) and node.id != "__all__":
                        flagged[node.id] = stmt
        for name, stmt in flagged.items():
            yield self.finding(
                src,
                stmt,
                f"module-level mutable global '{name}'; state must live in "
                "objects threaded through calls (freeze constants with "
                "tuple/frozenset/MappingProxyType)",
            )


@register_rule
class SpanDiscipline(LintRule):
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
    #: span-opening method names that must appear as a ``with`` item
    _OPENERS = frozenset({"span", "turbo_batches", "_start"})

    @classmethod
    def applies_to(cls, path: Path) -> bool:
        """Files under a core, kernels or experiments directory."""
        return bool(cls._SCOPED & set(path.parts))

    def check(self, src: LintSource) -> Iterator[Finding]:
        """Flag span-opener calls that are not a ``with`` item."""
        with_items = {
            id(item.context_expr)
            for node in ast.walk(src.tree)
            if isinstance(node, (ast.With, ast.AsyncWith))
            for item in node.items
        }
        for node in ast.walk(src.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._OPENERS
                and id(node) not in with_items
            ):
                attr = node.func.attr
                yield self.finding(
                    src,
                    node,
                    f"'.{attr}(...)' opens a span outside a 'with' "
                    f"statement; use `with tracker.{attr}(...)` so the "
                    "span closes on exceptions (record_span is the "
                    "sanctioned non-with form)",
                )
