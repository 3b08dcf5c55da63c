"""The repository rule set: ZS001, ZS002, ZS005, ZS006, ZS104 and ZS109.

Each rule encodes one of the simulator's correctness conventions; the
rationale for every code lives in ``docs/lint_rules.md``. Rules are
pure AST checks — no imports of the checked code are performed, so the
linter can run on broken trees and fixtures safely.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional

from repro.analysis.lint.engine import Finding, LintRule, LintSource


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


class FloatEquality(LintRule):
    """ZS002: no ``==`` / ``!=`` against float literals.

    The statistics and associativity pipelines accumulate floating
    point; exact comparison against a float literal is almost always a
    latent bug (``0.1 + 0.2 != 0.3``). Use ``math.isclose`` or an
    explicit tolerance.
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


class CounterBypass(LintRule):
    """ZS006: hot-path counters go through the metrics registry.

    Every statistics counter in ``core/`` and ``sim/`` is a registered
    :class:`~repro.obs.metrics.Counter`, bumped as ``counter.value += 1``
    on a cached reference (or through a
    :class:`~repro.obs.metrics.RegistryStats` facade, whose
    ``__setattr__`` writes the same counter). A bare counter attribute
    on ``self`` — ``self.writeback_hits += 1`` — is a shadow counter the
    registry never sees, so metric snapshots and ``zcache-repro stats``
    silently under-report. Private (underscore-prefixed) accumulators
    are bookkeeping, not reported statistics, and are fine.
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
        """Flag ``+=``/``-=`` on counter-named ``self`` attributes."""
        for node in ast.walk(src.tree):
            if not (
                isinstance(node, ast.AugAssign)
                and isinstance(node.op, (ast.Add, ast.Sub))
            ):
                continue
            target = node.target
            if isinstance(target, ast.Subscript):
                target = target.value
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and not target.attr.startswith("_")
                and (
                    target.attr in self._VOCAB
                    or target.attr.endswith(self._SUFFIXES)
                )
            ):
                yield self.finding(
                    src,
                    node,
                    f"'self.{target.attr} +=' keeps an ad-hoc counter the "
                    "registry never sees; register it (repro.obs.metrics) "
                    "and increment the Counter's .value",
                )


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


#: the repository rules, in code order (``zcache-repro lint --rules``)
RULES: tuple[type[LintRule], ...] = (
    UnseededRandomness,
    FloatEquality,
    WallClockGlobalState,
    CounterBypass,
    HiddenModuleState,
    SpanDiscipline,
)
