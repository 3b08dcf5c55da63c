"""ZRace: thread-aware lockset analysis and deep rules ZS110–ZS113.

The serve layer (PR 8) runs the zcache under real threads with a prose
concurrency discipline: reads are lock-free GIL-atomic dict lookups,
replacement walks run off-lock through ``prepare_fill``, and every
mutation of shard state happens under the owning shard lock. The
effect rules ZS105–ZS108 reason about purity and state but are
thread-blind; this module makes the discipline checkable.

:class:`RaceAnalysis` extends the call-graph/effect machinery with:

- **guarded classes** — a class whose ``__init__`` binds a
  ``threading.Lock``/``RLock`` to an attribute declares, by that act,
  that its other instance attributes are shared state owned by that
  lock;
- an **attribute-type table** built from constructor calls, annotated
  parameters, and (string) annotations, so calls the name-based call
  graph cannot see (``self.cache.access(...)``) still resolve — with
  subclass widening, so an abstract receiver reaches every analyzed
  implementation;
- **thread roots** — ``threading.Thread(target=...)`` call sites and
  ``socketserver`` request-handler ``handle`` methods — and the code
  reachable from each;
- **locksets** — per function, which ``with <lock>:`` blocks are held
  lexically at each mutation/call site, plus an interprocedural
  *entry lockset*: the intersection, over every resolved in-tree call
  site, of the locks held when the function is entered. Entry locksets
  only ever *excuse* a mutation (a helper called exclusively under the
  shard lock is as locked as its callers), never condemn one.

Four deep rules consume the analysis:

- **ZS110 lock-discipline** — every mutation of a guarded class's
  shared state must hold one of the owning locks. Counter folds
  (``self._c_x.value += 1``) are sanctioned as GIL-atomic, and a
  ``# zrace: atomic`` marker (on the mutation line or the enclosing
  ``def``) whitelists deliberate lock-free writes such as the
  recency-buffer append.
- **ZS111 lock-ordering & hold hygiene** — builds the global
  lock-acquisition graph (lexical nesting plus calls that transitively
  acquire) and flags every edge on a cycle as a potential deadlock;
  also flags blocking calls (socket I/O, ``serve_forever``, digest
  construction) made — directly or transitively — while a lock is
  held, and raw ``.acquire()`` calls outside ``with``.
- **ZS112 off-lock purity** — everything reachable off-lock from a
  ``prepare_fill`` method or a guarded class's ``get`` must be
  mutation-free: no array-state writes, no guarded-field writes.
  Call sites under a lock prune their subtree (that is the commit
  half of the protocol).
- **ZS113 thread-escape** — code reachable from a thread root must
  not mutate module-level state or declare ``global``/``nonlocal``;
  parameters (the loadgen ``results[index] = ...`` idiom) and
  ``self`` are the sanctioned channels, and instance state is ZS110's
  concern.

The analysis scans only modules under ``serve``/``core`` path parts —
the packages the threaded service executes — which keeps the pass
cheap and keeps simulator-only code out of the thread rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.lint.engine import Finding
from repro.analysis.semantic.callgraph import FuncKey, func_key, resolve_call
from repro.analysis.semantic.deeprules import DeepRule, register_deep_rule
from repro.analysis.semantic.effects import (
    _STATE_MUTATORS,
    _attr_parts,
    _fold_name,
    _touches_state,
)
from repro.analysis.semantic.modulegraph import ModuleInfo
from repro.analysis.semantic.symbols import ClassInfo, FunctionInfo, dotted_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.semantic.model import SemanticModel

#: packages the thread-aware pass analyzes (path parts)
_RACE_PARTS = frozenset({"serve", "core"})
#: packages where the serve-only rules (ZS110/ZS111/ZS113) anchor
_SERVE_PARTS = frozenset({"serve"})

#: marker sanctioning a deliberate lock-free (GIL-atomic) mutation
_RACE_ATOMIC_MARKER = "# zrace: atomic"

#: constructors whose assignment declares a guarding lock attribute
_LOCK_CTORS = frozenset({"Lock", "RLock"})

#: ``socketserver`` bases whose ``handle`` runs on a server thread
_THREAD_HANDLER_BASES = frozenset(
    {"BaseRequestHandler", "StreamRequestHandler", "DatagramRequestHandler"}
)

#: attribute calls that mutate their receiver: the container mutators
#: the effect analysis knows, plus the cache/policy write entry points
_MUTATING_CALLS = _STATE_MUTATORS | frozenset(
    {
        "access",
        "invalidate",
        "commit_prepared",
        "commit_replacement",
        "commit_reinsertion",
        "evict_address",
        "absorb_writeback",
        "on_insert",
        "on_access",
        "on_evict",
        "drain_score_updates",
        "move_to_end",
    }
)

#: call tails that block or burn unbounded time: never while a shard
#: lock is held. Digest constructors are included because the serve
#: layer fingerprints whole payloads (large enough to drop the GIL).
_BLOCKING_CALLS = frozenset(
    {
        "serve_forever",
        "accept",
        "connect",
        "create_connection",
        "recv",
        "recv_into",
        "sendall",
        "send",
        "sendto",
        "makefile",
        "readline",
        "flush",
        "sleep",
        "wait",
        "select",
        "blake2b",
        "sha256",
        "md5",
    }
)

#: generic annotation wrappers to look through when typing attributes
_ANNOTATION_WRAPPERS = frozenset({"Optional", "Union", "Final", "ClassVar"})


def _in_parts(path: Path, parts: FrozenSet[str]) -> bool:
    return bool(parts & set(path.parts))


@dataclass(frozen=True)
class GuardedClass:
    """A class whose ``__init__`` binds one or more ``Lock`` attributes."""

    module: str
    name: str
    cls: ClassInfo = field(compare=False)
    #: ``"ClassName.lock_attr"`` tokens, one per lock attribute
    lock_tokens: FrozenSet[str]
    #: instance attributes assigned in ``__init__``/``__post_init__``
    #: (the shared state the locks own), lock attributes excluded
    fields: FrozenSet[str]


@dataclass(frozen=True)
class WriteSite:
    """One mutation of guarded or array state, with its held locks."""

    node: ast.AST = field(compare=False)
    line: int
    #: attribute written through
    attr: str
    #: guarded class owning ``attr``, or ``None`` for array-state writes
    owner: Optional[str]
    desc: str
    held: FrozenSet[str]
    #: counter fold or ``# zrace: atomic`` — exempt everywhere
    sanctioned: bool


@dataclass(frozen=True)
class CallSite:
    """One resolved call, with the lock tokens held lexically at it."""

    node: ast.Call = field(compare=False)
    line: int
    tail: str
    held: FrozenSet[str]
    targets: Tuple[FuncKey, ...]


@dataclass(frozen=True)
class Acquisition:
    """One ``with <lock>:`` entry and the locks already held there."""

    node: ast.AST = field(compare=False)
    line: int
    token: str
    held_before: FrozenSet[str]


@dataclass(frozen=True)
class BlockingSite:
    """One direct blocking call and the locks held lexically at it."""

    node: ast.Call = field(compare=False)
    line: int
    name: str
    held: FrozenSet[str]


@dataclass
class FunctionRaceInfo:
    """Everything the race rules need to know about one function."""

    key: FuncKey
    writes: List[WriteSite] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    acquisitions: List[Acquisition] = field(default_factory=list)
    blocking: List[BlockingSite] = field(default_factory=list)
    bare_acquires: List[ast.Call] = field(default_factory=list)
    #: lock tokens this function acquires lexically
    lock_tokens: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class ThreadRoot:
    """One inferred thread entry point."""

    key: FuncKey
    label: str
    module: str
    node: ast.AST = field(compare=False)


@dataclass(frozen=True)
class LockEdge:
    """Acquired ``dst`` while holding ``src`` (site in ``module``)."""

    src: str
    dst: str
    module: str
    node: ast.AST = field(compare=False)
    line: int


class RaceAnalysis:
    """Lazy thread/lockset extraction over the serve/core modules."""

    def __init__(self, model: "SemanticModel") -> None:
        self.model = model
        #: every function a scan resolved a call to, by key
        self.functions: Dict[FuncKey, FunctionInfo] = {}
        self._scanned: Dict[FuncKey, FunctionRaceInfo] = {}
        self._guarded: Dict[str, Dict[str, GuardedClass]] = {}
        self._attr_types: Dict[Tuple[str, str], Dict[str, Tuple[str, ...]]] = {}
        self._class_index: Optional[Dict[str, Tuple[str, ClassInfo]]] = None
        self._ancestor_tails: Dict[str, FrozenSet[str]] = {}
        self._source_lines: Dict[str, List[str]] = {}
        self._entry: Optional[Dict[FuncKey, FrozenSet[str]]] = None
        self._edges: Optional[List[LockEdge]] = None
        self._cyclic: Optional[Set[Tuple[str, str]]] = None
        self._roots: Optional[List[ThreadRoot]] = None
        self._trans_acquires: Dict[FuncKey, FrozenSet[str]] = {}
        self._trans_blocking: Dict[FuncKey, FrozenSet[str]] = {}

    # -- module universe ----------------------------------------------------
    def scope_modules(self) -> List[str]:
        """Modules the thread-aware pass analyzes, in stable order."""
        return sorted(
            name
            for name, info in self.model.graph.modules.items()
            if _in_parts(info.path, _RACE_PARTS)
        )

    def _module_info(self, module: str) -> Optional[ModuleInfo]:
        return self.model.graph.modules.get(module)

    def _lines_of(self, module: str) -> List[str]:
        lines = self._source_lines.get(module)
        if lines is None:
            info = self._module_info(module)
            lines = info.text.splitlines() if info is not None else []
            self._source_lines[module] = lines
        return lines

    # -- guarded classes ----------------------------------------------------
    def guarded_in(self, module: str) -> Dict[str, GuardedClass]:
        """Guarded classes defined in ``module`` (memoized)."""
        cached = self._guarded.get(module)
        if cached is not None:
            return cached
        out: Dict[str, GuardedClass] = {}
        symbols = self.model.symbols_of(module)
        if symbols is None:
            self._guarded[module] = out
            return out
        for cname in sorted(symbols.classes):
            cls = symbols.classes[cname]
            lock_attrs: Set[str] = set()
            fields: Set[str] = set()
            for mname in ("__init__", "__post_init__"):
                method = cls.methods.get(mname)
                if method is None:
                    continue
                for node in ast.walk(method.node):
                    if not isinstance(
                        node, (ast.Assign, ast.AnnAssign, ast.AugAssign)
                    ):
                        continue
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    value = getattr(node, "value", None)
                    for target in targets:
                        parts = _attr_parts(target)
                        if len(parts) < 2 or parts[0] != "self":
                            continue
                        fields.add(parts[1])
                        if isinstance(value, ast.Call):
                            tail = (dotted_name(value.func) or "").rsplit(
                                ".", 1
                            )[-1]
                            if tail in _LOCK_CTORS and len(parts) == 2:
                                lock_attrs.add(parts[1])
            if lock_attrs:
                out[cname] = GuardedClass(
                    module=module,
                    name=cname,
                    cls=cls,
                    lock_tokens=frozenset(
                        f"{cname}.{attr}" for attr in lock_attrs
                    ),
                    fields=frozenset(fields - lock_attrs),
                )
        self._guarded[module] = out
        return out

    # -- class index / attribute types --------------------------------------
    def class_index(self) -> Dict[str, Tuple[str, ClassInfo]]:
        """``name -> (module, ClassInfo)`` over the scope modules."""
        if self._class_index is None:
            index: Dict[str, Tuple[str, ClassInfo]] = {}
            for module in self.scope_modules():
                symbols = self.model.symbols_of(module)
                if symbols is None:
                    continue
                for cname, cls in symbols.classes.items():
                    index.setdefault(cname, (module, cls))
            self._class_index = index
        return self._class_index

    def ancestor_tails(self, cname: str) -> FrozenSet[str]:
        """Transitive base-class tails of an indexed class (plus self)."""
        cached = self._ancestor_tails.get(cname)
        if cached is not None:
            return cached
        self._ancestor_tails[cname] = frozenset({cname})  # cycle guard
        tails: Set[str] = {cname}
        entry = self.class_index().get(cname)
        if entry is not None:
            for base in entry[1].base_tails():
                tails.add(base)
                tails |= self.ancestor_tails(base)
        result = frozenset(tails)
        self._ancestor_tails[cname] = result
        return result

    def _annotation_names(self, node: Optional[ast.expr]) -> Tuple[str, ...]:
        """Class-name candidates an annotation expression denotes."""
        if node is None:
            return ()
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return ()
            return self._annotation_names(inner)
        if isinstance(node, ast.Name):
            return (node.id,)
        if isinstance(node, ast.Attribute):
            return (node.attr,)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return self._annotation_names(node.left) + self._annotation_names(
                node.right
            )
        if isinstance(node, ast.Subscript):
            head = _attr_parts(node.value)
            if head and head[-1] in _ANNOTATION_WRAPPERS:
                inner = node.slice
                if isinstance(inner, ast.Tuple):
                    out: Tuple[str, ...] = ()
                    for elt in inner.elts:
                        out += self._annotation_names(elt)
                    return out
                return self._annotation_names(inner)
        return ()

    def _param_types(self, fn: FunctionInfo) -> Dict[str, Tuple[str, ...]]:
        """``param -> candidate class names`` from signature annotations."""
        out: Dict[str, Tuple[str, ...]] = {}
        args = fn.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            names = self._annotation_names(arg.annotation)
            if names:
                out[arg.arg] = names
        return out

    def attr_types(self, module: str, cname: str) -> Dict[str, Tuple[str, ...]]:
        """``self.<attr> -> candidate class names`` for one class.

        Merges base-class tables (subclass assignments win), then folds
        in class-level annotations, ``self.x: T`` annotations, ``self.x
        = ClassName(...)`` constructor calls, and ``self.x = param``
        for annotated parameters.
        """
        memo_key = (module, cname)
        cached = self._attr_types.get(memo_key)
        if cached is not None:
            return cached
        self._attr_types[memo_key] = {}  # cycle guard for odd hierarchies
        out: Dict[str, Tuple[str, ...]] = {}
        entry = self.class_index().get(cname)
        if entry is None:
            return out
        cmodule, cls = entry
        for base in cls.base_tails():
            base_entry = self.class_index().get(base)
            if base_entry is not None:
                out.update(self.attr_types(base_entry[0], base))
        for stmt in cls.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                names = self._annotation_names(stmt.annotation)
                if names:
                    out[stmt.target.id] = names
        for method in cls.methods.values():
            params = self._param_types(method)
            for node in ast.walk(method.node):
                attr: Optional[str] = None
                names = ()
                if isinstance(node, ast.AnnAssign):
                    parts = _attr_parts(node.target)
                    if len(parts) == 2 and parts[0] == "self":
                        attr = parts[1]
                        names = self._annotation_names(node.annotation)
                elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                    parts = _attr_parts(node.targets[0])
                    if len(parts) == 2 and parts[0] == "self":
                        attr = parts[1]
                        if isinstance(node.value, ast.Call):
                            tail = (
                                dotted_name(node.value.func) or ""
                            ).rsplit(".", 1)[-1]
                            if tail in self.class_index():
                                names = (tail,)
                        elif isinstance(node.value, ast.Name):
                            names = params.get(node.value.id, ())
                if attr is not None and names:
                    out[attr] = names
        self._attr_types[memo_key] = out
        return out

    def _method_impls(self, tname: str, method: str) -> List[FunctionInfo]:
        """Implementations of ``tname.method``, widened to subclasses."""
        out: List[FunctionInfo] = []
        seen: Set[FuncKey] = set()

        def add(fn: Optional[FunctionInfo]) -> None:
            if fn is None:
                return
            key = func_key(fn)
            if key not in seen:
                seen.add(key)
                self.functions.setdefault(key, fn)
                out.append(fn)

        entry = self.class_index().get(tname)
        if entry is not None:
            add(self._lookup_method(entry[1], method))
        for dname, (_dmod, dcls) in self.class_index().items():
            if dname != tname and tname in self.ancestor_tails(dname):
                add(dcls.methods.get(method))
        return out

    def _lookup_method(
        self, cls: ClassInfo, method: str, depth: int = 0
    ) -> Optional[FunctionInfo]:
        if method in cls.methods:
            return cls.methods[method]
        if depth > 8:
            return None
        for base in cls.base_tails():
            entry = self.class_index().get(base)
            if entry is not None and entry[1] is not cls:
                found = self._lookup_method(entry[1], method, depth + 1)
                if found is not None:
                    return found
        return None

    def _resolve_targets(
        self, module: str, call: ast.Call, enclosing: FunctionInfo
    ) -> Tuple[FuncKey, ...]:
        """Call targets: the call graph's resolution plus attr types."""
        direct = resolve_call(self.model, module, call, enclosing)
        if direct is not None:
            key = func_key(direct)
            self.functions.setdefault(key, direct)
            return (key,)
        func = call.func
        if not isinstance(func, ast.Attribute):
            return ()
        parts = _attr_parts(func)
        type_names: Tuple[str, ...] = ()
        method = ""
        if (
            len(parts) == 3
            and parts[0] in ("self", "cls")
            and enclosing.class_name
        ):
            type_names = self.attr_types(module, enclosing.class_name).get(
                parts[1], ()
            )
            method = parts[2]
        elif len(parts) == 2 and parts[0] not in ("self", "cls"):
            type_names = self._param_types(enclosing).get(parts[0], ())
            method = parts[1]
        targets: List[FuncKey] = []
        for tname in type_names:
            for impl in self._method_impls(tname, method):
                key = func_key(impl)
                if key not in targets:
                    targets.append(key)
        return tuple(targets)

    # -- per-function scan ---------------------------------------------------
    def _lock_token(
        self,
        module: str,
        expr: ast.expr,
        enclosing: FunctionInfo,
        param_types: Dict[str, Tuple[str, ...]],
    ) -> Optional[str]:
        """Lock token a ``with`` item acquires, if it looks like one."""
        if isinstance(expr, ast.Call):
            return None
        parts = _attr_parts(expr)
        if not parts or "lock" not in parts[-1].lower():
            return None
        tail = parts[-1]
        if len(parts) == 1:
            return f"{module}:{tail}"
        root = parts[0]
        if root in ("self", "cls") and enclosing.class_name:
            if len(parts) == 2:
                return f"{enclosing.class_name}.{tail}"
            typed = self.attr_types(module, enclosing.class_name).get(
                parts[1], ()
            )
            owner = typed[0] if typed else ".".join(parts[:-1])
            return f"{owner}.{tail}"
        typed = param_types.get(root, ())
        owner = typed[0] if typed else ".".join(parts[:-1])
        return f"{owner}.{tail}"

    def _sanctioned(self, module: str, fn: FunctionInfo, line: int) -> bool:
        """``# zrace: atomic`` on the mutation line or the ``def`` line."""
        lines = self._lines_of(module)
        for lineno in (line, fn.node.lineno):
            if 1 <= lineno <= len(lines):
                if _RACE_ATOMIC_MARKER in lines[lineno - 1]:
                    return True
        return False

    def function_info(self, fn: FunctionInfo) -> FunctionRaceInfo:
        """Lockset-annotated scan of one function (memoized)."""
        key = func_key(fn)
        cached = self._scanned.get(key)
        if cached is not None:
            return cached
        self.functions.setdefault(key, fn)
        module = fn.module
        param_types = self._param_types(fn)
        guard = self.guarded_in(module).get(fn.class_name or "")
        fri = FunctionRaceInfo(key=key)
        acquired_tokens: Set[str] = set()

        def record_write(
            stmt: ast.AST, target: ast.expr, verb: str, held: FrozenSet[str]
        ) -> None:
            if isinstance(stmt, ast.AugAssign) and _fold_name(stmt.target):
                return  # GIL-atomic counter fold, sanctioned everywhere
            line = getattr(stmt, "lineno", fn.node.lineno)
            sanction = self._sanctioned(module, fn, line)
            parts = _attr_parts(target)
            if (
                guard is not None
                and len(parts) >= 2
                and parts[0] == "self"
                and parts[1] in guard.fields
            ):
                fri.writes.append(
                    WriteSite(
                        node=stmt,
                        line=line,
                        attr=parts[1],
                        owner=guard.name,
                        desc=f"{verb} through 'self.{parts[1]}'",
                        held=held,
                        sanctioned=sanction,
                    )
                )
                return
            attr = _touches_state(target)
            if attr is not None:
                fri.writes.append(
                    WriteSite(
                        node=stmt,
                        line=line,
                        attr=attr,
                        owner=None,
                        desc=f"{verb} through '{attr}'",
                        held=held,
                        sanctioned=sanction,
                    )
                )

        def handle_call(call: ast.Call, held: FrozenSet[str]) -> None:
            func = call.func
            tail = ""
            if isinstance(func, ast.Attribute):
                tail = func.attr
            elif isinstance(func, ast.Name):
                tail = func.id
            if isinstance(func, ast.Attribute) and tail in _MUTATING_CALLS:
                parts = _attr_parts(func.value)
                target_attr: Optional[str] = None
                owner: Optional[str] = None
                if (
                    guard is not None
                    and len(parts) >= 2
                    and parts[0] == "self"
                    and parts[1] in guard.fields
                ):
                    target_attr, owner = parts[1], guard.name
                else:
                    state = _touches_state(func.value)
                    if state is not None:
                        target_attr = state
                if target_attr is not None:
                    fri.writes.append(
                        WriteSite(
                            node=call,
                            line=call.lineno,
                            attr=target_attr,
                            owner=owner,
                            desc=f".{tail}() on '{target_attr}'",
                            held=held,
                            sanctioned=self._sanctioned(
                                module, fn, call.lineno
                            ),
                        )
                    )
            if isinstance(func, ast.Attribute) and tail in (
                "acquire",
                "release",
            ):
                receiver = _attr_parts(func.value)
                if receiver and "lock" in receiver[-1].lower():
                    if tail == "acquire":
                        fri.bare_acquires.append(call)
                    return
            targets = self._resolve_targets(module, call, fn)
            if targets:
                fri.calls.append(
                    CallSite(
                        node=call,
                        line=call.lineno,
                        tail=tail,
                        held=held,
                        targets=targets,
                    )
                )
            elif tail in _BLOCKING_CALLS:
                fri.blocking.append(
                    BlockingSite(
                        node=call, line=call.lineno, name=tail, held=held
                    )
                )

        def scan_exprs(node: ast.AST, held: FrozenSet[str]) -> None:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    handle_call(sub, held)
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        record_write(sub, target, "write", held)
                elif isinstance(sub, ast.AugAssign):
                    record_write(sub, sub.target, "write", held)
                elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                    record_write(sub, sub.target, "write", held)
                elif isinstance(sub, ast.Delete):
                    for target in sub.targets:
                        record_write(sub, target, "del", held)

        def scan_stmts(
            stmts: Sequence[ast.stmt], held: FrozenSet[str]
        ) -> None:
            for stmt in stmts:
                if isinstance(
                    stmt,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    continue  # nested defs run later, on their own terms
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    inner = held
                    for item in stmt.items:
                        scan_exprs(item.context_expr, held)
                        token = self._lock_token(
                            module, item.context_expr, fn, param_types
                        )
                        if token is not None:
                            fri.acquisitions.append(
                                Acquisition(
                                    node=stmt,
                                    line=item.context_expr.lineno,
                                    token=token,
                                    held_before=inner,
                                )
                            )
                            acquired_tokens.add(token)
                            inner = inner | {token}
                    scan_stmts(stmt.body, inner)
                elif isinstance(stmt, (ast.If, ast.While)):
                    scan_exprs(stmt.test, held)
                    scan_stmts(stmt.body, held)
                    scan_stmts(stmt.orelse, held)
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    scan_exprs(stmt.iter, held)
                    scan_exprs(stmt.target, held)
                    scan_stmts(stmt.body, held)
                    scan_stmts(stmt.orelse, held)
                elif isinstance(stmt, ast.Try):
                    scan_stmts(stmt.body, held)
                    for handler in stmt.handlers:
                        if handler.type is not None:
                            scan_exprs(handler.type, held)
                        scan_stmts(handler.body, held)
                    scan_stmts(stmt.orelse, held)
                    scan_stmts(stmt.finalbody, held)
                elif isinstance(stmt, ast.Match):
                    scan_exprs(stmt.subject, held)
                    for case in stmt.cases:
                        scan_stmts(case.body, held)
                else:
                    scan_exprs(stmt, held)

        scan_stmts(fn.node.body, frozenset())
        fri.lock_tokens = frozenset(acquired_tokens)
        self._scanned[key] = fri
        return fri

    def _all_scanned(self) -> Dict[FuncKey, FunctionRaceInfo]:
        """Scan every function in every scope module."""
        out: Dict[FuncKey, FunctionRaceInfo] = {}
        for module in self.scope_modules():
            symbols = self.model.symbols_of(module)
            if symbols is None:
                continue
            for fn in symbols.all_functions():
                out[func_key(fn)] = self.function_info(fn)
        return out

    # -- entry locksets ------------------------------------------------------
    def entry_locksets(self) -> Dict[FuncKey, FrozenSet[str]]:
        """Locks guaranteed held on entry, per scope function.

        The meet, over every *resolved* in-tree call site, of the locks
        held at that site. Functions with no resolved caller (public
        entry points, functions only called through locals the call
        graph cannot see) get the empty set: nothing is assumed, so an
        entry lockset can only ever excuse a mutation.
        """
        if self._entry is not None:
            return self._entry
        fris = self._all_scanned()
        sites: Dict[FuncKey, List[Tuple[FuncKey, FrozenSet[str]]]] = {}
        for key, fri in fris.items():
            for cs in fri.calls:
                for target in cs.targets:
                    if target in fris:
                        sites.setdefault(target, []).append((key, cs.held))
        # None is the lattice top: "no caller constrained this yet".
        entry: Dict[FuncKey, Optional[FrozenSet[str]]] = {
            key: (None if key in sites else frozenset()) for key in fris
        }
        changed = True
        while changed:
            changed = False
            for callee, callers in sites.items():
                acc: Optional[FrozenSet[str]] = None
                for caller, held in callers:
                    caller_entry = entry.get(caller, frozenset())
                    if caller_entry is None:
                        continue  # caller still unconstrained
                    value = caller_entry | held
                    acc = value if acc is None else acc & value
                if acc is not None and acc != entry[callee]:
                    entry[callee] = acc
                    changed = True
        resolved = {
            key: (value if value is not None else frozenset())
            for key, value in entry.items()
        }
        self._entry = resolved
        return resolved

    # -- transitive closures -------------------------------------------------
    def _closure(
        self,
        key: FuncKey,
        direct: "Dict[FuncKey, FrozenSet[str]]",
        memo: Dict[FuncKey, FrozenSet[str]],
        stack: Set[FuncKey],
    ) -> FrozenSet[str]:
        cached = memo.get(key)
        if cached is not None:
            return cached
        if key in stack:
            return frozenset()
        stack.add(key)
        acc = set(direct.get(key, frozenset()))
        fri = self._scanned.get(key)
        if fri is not None:
            for cs in fri.calls:
                for target in cs.targets:
                    acc |= self._closure(target, direct, memo, stack)
        stack.discard(key)
        result = frozenset(acc)
        memo[key] = result
        return result

    def transitive_acquires(self, targets: Sequence[FuncKey]) -> FrozenSet[str]:
        """Lock tokens (transitively) acquired by any of ``targets``."""
        fris = self._all_scanned()
        direct = {key: fri.lock_tokens for key, fri in fris.items()}
        acc: Set[str] = set()
        for target in targets:
            acc |= self._closure(target, direct, self._trans_acquires, set())
        return frozenset(acc)

    def transitive_blocking(self, targets: Sequence[FuncKey]) -> FrozenSet[str]:
        """Blocking call names (transitively) reached by ``targets``."""
        fris = self._all_scanned()
        direct = {
            key: frozenset(site.name for site in fri.blocking)
            for key, fri in fris.items()
        }
        acc: Set[str] = set()
        for target in targets:
            acc |= self._closure(target, direct, self._trans_blocking, set())
        return frozenset(acc)

    # -- lock-order graph ----------------------------------------------------
    def lock_edges(self) -> List[LockEdge]:
        """Every lock-acquisition edge, lexical and interprocedural."""
        if self._edges is not None:
            return self._edges
        fris = self._all_scanned()
        entry = self.entry_locksets()
        edges: List[LockEdge] = []
        seen: Set[Tuple[str, str, str, int]] = set()

        def add(src: str, dst: str, module: str, node: ast.AST) -> None:
            line = getattr(node, "lineno", 1)
            dedup = (src, dst, module, line)
            if dedup not in seen:
                seen.add(dedup)
                edges.append(
                    LockEdge(
                        src=src, dst=dst, module=module, node=node, line=line
                    )
                )

        for key, fri in fris.items():
            module = key[0]
            fn_entry = entry.get(key, frozenset())
            for acq in fri.acquisitions:
                for held in acq.held_before | fn_entry:
                    add(held, acq.token, module, acq.node)
            for cs in fri.calls:
                held = cs.held | fn_entry
                if not held:
                    continue
                for token in self.transitive_acquires(cs.targets):
                    for src in held:
                        add(src, token, module, cs.node)
        self._edges = edges
        return edges

    def cyclic_edges(self) -> Set[Tuple[str, str]]:
        """``(src, dst)`` pairs participating in an acquisition cycle."""
        if self._cyclic is not None:
            return self._cyclic
        adjacency: Dict[str, Set[str]] = {}
        for edge in self.lock_edges():
            adjacency.setdefault(edge.src, set()).add(edge.dst)
        reach_memo: Dict[str, FrozenSet[str]] = {}

        def reachable(token: str, stack: Set[str]) -> FrozenSet[str]:
            cached = reach_memo.get(token)
            if cached is not None:
                return cached
            if token in stack:
                return frozenset()
            stack.add(token)
            acc: Set[str] = set()
            for succ in adjacency.get(token, ()):
                acc.add(succ)
                acc |= reachable(succ, stack)
            stack.discard(token)
            result = frozenset(acc)
            reach_memo[token] = result
            return result

        cyclic: Set[Tuple[str, str]] = set()
        for edge in self.lock_edges():
            if edge.src == edge.dst or edge.src in reachable(
                edge.dst, set()
            ):
                cyclic.add((edge.src, edge.dst))
        self._cyclic = cyclic
        return cyclic

    # -- thread roots --------------------------------------------------------
    def thread_roots(self) -> List[ThreadRoot]:
        """Every inferred thread entry point in the scope modules."""
        if self._roots is not None:
            return self._roots
        roots: List[ThreadRoot] = []
        seen: Set[FuncKey] = set()

        def add(
            fn: Optional[FunctionInfo],
            label: str,
            module: str,
            node: ast.AST,
        ) -> None:
            if fn is None:
                return
            key = func_key(fn)
            self.functions.setdefault(key, fn)
            if key not in seen:
                seen.add(key)
                roots.append(
                    ThreadRoot(key=key, label=label, module=module, node=node)
                )

        for module in self.scope_modules():
            symbols = self.model.symbols_of(module)
            if symbols is None:
                continue
            for fn in symbols.all_functions():
                for node in ast.walk(fn.node):
                    if not isinstance(node, ast.Call):
                        continue
                    tail = (dotted_name(node.func) or "").rsplit(".", 1)[-1]
                    if tail != "Thread":
                        continue
                    for kw in node.keywords:
                        if kw.arg != "target":
                            continue
                        target = kw.value
                        resolved: Optional[FunctionInfo] = None
                        if isinstance(target, ast.Name):
                            resolved = self.model.resolve_callable(
                                module, target.id
                            )
                        elif isinstance(target, ast.Attribute):
                            parts = _attr_parts(target)
                            if (
                                len(parts) == 2
                                and parts[0] in ("self", "cls")
                                and fn.class_name
                            ):
                                resolved = self.model.resolve_method(
                                    module, fn.class_name, parts[1]
                                )
                        if resolved is not None:
                            add(
                                resolved,
                                f"Thread(target={resolved.qualname})",
                                module,
                                node,
                            )
            for cname in sorted(symbols.classes):
                cls = symbols.classes[cname]
                if set(cls.base_tails()) & _THREAD_HANDLER_BASES:
                    handler = cls.methods.get("handle")
                    if handler is not None:
                        add(
                            handler,
                            f"{cname}.handle (request handler)",
                            module,
                            handler.node,
                        )
        self._roots = roots
        return roots

    def reachable_from(self, root: FuncKey) -> List[FuncKey]:
        """Scope functions reachable from ``root`` via resolved calls."""
        fris = self._all_scanned()
        seen: Set[FuncKey] = set()
        order: List[FuncKey] = []
        stack = [root]
        while stack:
            key = stack.pop()
            if key in seen or key not in fris:
                continue
            seen.add(key)
            order.append(key)
            for cs in fris[key].calls:
                stack.extend(cs.targets)
        return order

    # -- off-lock purity -----------------------------------------------------
    def offlock_mutations(
        self, root: FunctionInfo
    ) -> List[Tuple[FunctionInfo, WriteSite]]:
        """Unsanctioned mutations reachable off-lock from ``root``.

        Call sites made under a lock prune their subtree: that is the
        locked (commit) half of the protocol, ZS110's jurisdiction.
        """
        fris = self._all_scanned()
        out: List[Tuple[FunctionInfo, WriteSite]] = []
        seen: Set[FuncKey] = set()
        stack = [func_key(root)]
        self.functions.setdefault(func_key(root), root)
        while stack:
            key = stack.pop()
            if key in seen or key not in fris:
                continue
            seen.add(key)
            fri = fris[key]
            info = self.functions[key]
            for write in fri.writes:
                if write.sanctioned or write.held:
                    continue
                out.append((info, write))
            for cs in fri.calls:
                if cs.held:
                    continue
                stack.extend(cs.targets)
        out.sort(key=lambda pair: (pair[0].module, pair[1].line))
        return out


def _model_races(model: "SemanticModel") -> RaceAnalysis:
    """The per-model memoized :class:`RaceAnalysis` instance."""
    analysis = getattr(model, "_race_analysis", None)
    if analysis is None:
        analysis = RaceAnalysis(model)
        model._race_analysis = analysis  # type: ignore[attr-defined]
    return analysis


def _info_of(model: "SemanticModel", module: str) -> Optional[ModuleInfo]:
    return model.graph.modules.get(module)


# ---------------------------------------------------------------------------
# ZS110: lock discipline
# ---------------------------------------------------------------------------


@register_deep_rule
class LockDisciplineRule(DeepRule):
    """Mutations of lock-guarded instance state must hold the lock."""

    code = "ZS110"
    name = "lock-discipline"
    summary = (
        "every mutation of a lock-guarded class's shared state holds "
        "the owning lock (counter folds and '# zrace: atomic' exempt)"
    )

    @classmethod
    def applies_to_module(cls, module: str, path: Path) -> bool:
        return _in_parts(path, _SERVE_PARTS)

    def check_module(
        self, model: "SemanticModel", module: str
    ) -> Iterator[Finding]:
        info = _info_of(model, module)
        if info is None:
            return
        races = _model_races(model)
        guarded = races.guarded_in(module)
        if not guarded:
            return
        entry = races.entry_locksets()
        findings: List[Finding] = []
        for cname in sorted(guarded):
            guard = guarded[cname]
            for mname in sorted(guard.cls.methods):
                if mname in ("__init__", "__post_init__"):
                    continue
                method = guard.cls.methods[mname]
                fri = races.function_info(method)
                fn_entry = entry.get(func_key(method), frozenset())
                for write in fri.writes:
                    if write.owner != guard.name or write.sanctioned:
                        continue
                    if guard.lock_tokens & (write.held | fn_entry):
                        continue
                    lock_names = ", ".join(sorted(guard.lock_tokens))
                    findings.append(
                        self.finding(
                            info,
                            write.node,
                            f"'{method.qualname}' mutates guarded state "
                            f"({write.desc}) without holding {lock_names}; "
                            "take the lock or mark a deliberate GIL-atomic "
                            f"access with '{_RACE_ATOMIC_MARKER}'",
                        )
                    )
        findings.sort(key=lambda f: (f.line, f.column, f.message))
        yield from findings


# ---------------------------------------------------------------------------
# ZS111: lock ordering and hold hygiene
# ---------------------------------------------------------------------------


@register_deep_rule
class LockOrderRule(DeepRule):
    """No acquisition cycles; nothing blocking while a lock is held."""

    code = "ZS111"
    name = "lock-ordering"
    summary = (
        "lock acquisitions are acyclic and never wrap blocking calls "
        "(socket I/O, serve_forever, digest construction) or raw "
        ".acquire()"
    )

    @classmethod
    def applies_to_module(cls, module: str, path: Path) -> bool:
        return _in_parts(path, _SERVE_PARTS)

    def check_module(
        self, model: "SemanticModel", module: str
    ) -> Iterator[Finding]:
        info = _info_of(model, module)
        if info is None:
            return
        races = _model_races(model)
        findings: List[Finding] = []
        cyclic = races.cyclic_edges()
        for edge in races.lock_edges():
            if edge.module != module or (edge.src, edge.dst) not in cyclic:
                continue
            what = (
                "re-acquires non-reentrant"
                if edge.src == edge.dst
                else "creates an acquisition cycle: acquires"
            )
            findings.append(
                self.finding(
                    info,
                    edge.node,
                    f"{what} '{edge.dst}' while holding '{edge.src}' — "
                    "potential deadlock; keep a global acquisition order",
                )
            )
        symbols = model.symbols_of(module)
        entry = races.entry_locksets()
        for fn in symbols.all_functions() if symbols is not None else []:
            fri = races.function_info(fn)
            fn_entry = entry.get(func_key(fn), frozenset())
            for site in fri.blocking:
                held = site.held | fn_entry
                if held:
                    findings.append(
                        self.finding(
                            info,
                            site.node,
                            f"blocking call '{site.name}' while holding "
                            f"{', '.join(sorted(held))}; move the slow work "
                            "off-lock",
                        )
                    )
            for cs in fri.calls:
                held = cs.held | fn_entry
                if not held:
                    continue
                blocked = races.transitive_blocking(cs.targets)
                if blocked:
                    findings.append(
                        self.finding(
                            info,
                            cs.node,
                            f"call to '{cs.tail}' reaches blocking "
                            f"{', '.join(sorted(blocked))} while holding "
                            f"{', '.join(sorted(held))}; move the slow work "
                            "off-lock",
                        )
                    )
            for call in fri.bare_acquires:
                findings.append(
                    self.finding(
                        info,
                        call,
                        "raw .acquire() outside 'with' — an exception "
                        "between acquire and release leaks the lock; use "
                        "'with <lock>:'",
                    )
                )
        findings.sort(key=lambda f: (f.line, f.column, f.message))
        yield from findings


# ---------------------------------------------------------------------------
# ZS112: off-lock purity
# ---------------------------------------------------------------------------


@register_deep_rule
class OffLockPurityRule(DeepRule):
    """The off-lock phase (get / prepare_fill) must be mutation-free."""

    code = "ZS112"
    name = "offlock-purity"
    summary = (
        "code reachable off-lock from get/prepare_fill performs no "
        "array-state or guarded-field mutations (locked calls prune)"
    )

    @classmethod
    def applies_to_module(cls, module: str, path: Path) -> bool:
        return _in_parts(path, _RACE_PARTS)

    def check_module(
        self, model: "SemanticModel", module: str
    ) -> Iterator[Finding]:
        symbols = model.symbols_of(module)
        if symbols is None:
            return
        races = _model_races(model)
        guarded = races.guarded_in(module)
        roots: List[FunctionInfo] = []
        for cname in sorted(symbols.classes):
            cls = symbols.classes[cname]
            if "prepare_fill" in cls.methods:
                roots.append(cls.methods["prepare_fill"])
            if cname in guarded and "get" in cls.methods:
                roots.append(cls.methods["get"])
        findings: List[Finding] = []
        for root in roots:
            for owner, write in races.offlock_mutations(root):
                target = _info_of(model, owner.module)
                if target is None:
                    continue
                findings.append(
                    self.finding(
                        target,
                        write.node,
                        f"'{owner.qualname}' mutates state ({write.desc}) "
                        f"on the off-lock path from '{root.qualname}' — "
                        "the read/walk phase must be pure; mutate under "
                        "the lock in the commit phase",
                    )
                )
        findings.sort(key=lambda f: (f.path, f.line, f.column, f.message))
        yield from findings


# ---------------------------------------------------------------------------
# ZS113: thread escape
# ---------------------------------------------------------------------------


@register_deep_rule
class ThreadEscapeRule(DeepRule):
    """Thread-root-reachable code keeps its hands off module state."""

    code = "ZS113"
    name = "thread-escape"
    summary = (
        "code reachable from a thread root mutates no module-level "
        "state and declares no global/nonlocal (parameters and self "
        "are the sanctioned channels)"
    )

    @classmethod
    def applies_to_module(cls, module: str, path: Path) -> bool:
        return _in_parts(path, _SERVE_PARTS)

    def check_module(
        self, model: "SemanticModel", module: str
    ) -> Iterator[Finding]:
        races = _model_races(model)
        roots = [r for r in races.thread_roots() if r.module == module]
        if not roots:
            return
        findings: List[Finding] = []
        reported: Set[Tuple[str, int, str]] = set()
        for root in roots:
            for key in races.reachable_from(root.key):
                fn = races.functions[key]
                target = _info_of(model, fn.module)
                if target is None:
                    continue
                for node, desc in _module_state_mutations(model, fn):
                    dedup = (fn.module, getattr(node, "lineno", 0), desc)
                    if dedup in reported:
                        continue
                    reported.add(dedup)
                    findings.append(
                        self.finding(
                            target,
                            node,
                            f"'{fn.qualname}', reachable from thread root "
                            f"{root.label}, {desc} — thread-shared data "
                            "must flow through parameters or lock-guarded "
                            "instance state",
                        )
                    )
        findings.sort(key=lambda f: (f.path, f.line, f.column, f.message))
        yield from findings


def _module_state_mutations(
    model: "SemanticModel", fn: FunctionInfo
) -> List[Tuple[ast.AST, str]]:
    """Module-state mutations inside one function body."""
    # Shares ZS102's definition of "module state": bindings of the
    # enclosing module, plus anything imported at module scope.
    from repro.analysis.semantic.deeprules import (
        _MUTATORS,
        _local_store_names,
        _root_name,
    )

    symbols = model.symbols_of(fn.module)
    if symbols is None:
        return []
    bindings = symbols.bindings
    local = _local_store_names(fn)
    out: List[Tuple[ast.AST, str]] = []
    for node in ast.walk(fn.node):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            kind = "global" if isinstance(node, ast.Global) else "nonlocal"
            out.append(
                (node, f"declares {kind} {', '.join(node.names)}")
            )
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = _root_name(target)
                elif isinstance(target, ast.Name):
                    root = target.id
                else:
                    continue
                if (
                    root is not None
                    and root not in ("self", "cls")
                    and root not in local
                    and root in bindings
                ):
                    out.append(
                        (node, f"writes module-level '{root}'")
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                root = _root_name(func.value)
                if (
                    root is not None
                    and root not in local
                    and root in bindings
                    and bindings[root].kind == "mutable"
                ):
                    out.append(
                        (
                            node,
                            f"calls .{func.attr}() on module-level "
                            f"mutable '{root}'",
                        )
                    )
    return out
