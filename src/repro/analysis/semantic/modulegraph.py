"""Module graph: discovery and import resolution over a source tree.

The first layer of the ZProve whole-program model. Every ``*.py`` file
under the analyzed roots becomes a :class:`ModuleInfo` (source text plus
parsed AST); import statements are resolved to *internal* modules
where the target lives inside the analyzed tree, giving a directed
module graph with forward edges (``imports``) and cycle detection
(strongly connected components).

Resolution handles the shapes this repository uses — absolute
``import x`` / ``import x as y`` / ``from pkg.mod import name as
alias`` — plus relative imports for robustness. ``from pkg import sub``
is disambiguated against the analyzed tree: when ``pkg.sub`` is an
internal module the alias binds that module, otherwise it binds a
symbol of ``pkg``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Union


@dataclass(frozen=True)
class ImportedName:
    """One local alias bound by an import statement.

    ``symbol`` is None when the alias binds a module object itself
    (``import x``, ``from pkg import submodule``); otherwise the alias
    binds attribute ``symbol`` of ``module``. ``internal`` marks
    modules that are part of the analyzed tree.
    """

    module: str
    symbol: Optional[str]
    internal: bool
    lineno: int = 0


def module_name_for(path: Path) -> str:
    """Dotted module name derived from the package structure on disk.

    Walks up while parent directories contain ``__init__.py``, so
    ``src/repro/core/zcache.py`` -> ``repro.core.zcache`` regardless of
    which root the analysis was pointed at. A standalone file outside
    any package is its own single-segment module.
    """
    resolved = path.resolve()
    parts: List[str] = [] if resolved.stem == "__init__" else [resolved.stem]
    parent = resolved.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        if parent.parent == parent:
            break
        parent = parent.parent
    return ".".join(reversed(parts)) or resolved.stem


class ModuleInfo:
    """One parsed module: source text and AST."""

    def __init__(self, name: str, path: Union[str, Path], text: str) -> None:
        self.name = name
        self.path = Path(path)
        self.text = text
        self.tree: ast.Module = ast.parse(text, filename=str(path))

    def __repr__(self) -> str:
        return f"ModuleInfo({self.name!r})"


def _discover_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    # Dedup while keeping a stable order.
    seen: Set[Path] = set()
    out: List[Path] = []
    for f in files:
        r = f.resolve()
        if r not in seen:
            seen.add(r)
            out.append(f)
    return out


class ModuleGraph:
    """The analyzed modules plus resolved import edges between them."""

    def __init__(self, modules: Dict[str, ModuleInfo]) -> None:
        self.modules = modules
        #: module -> local alias -> what the alias is bound to
        self.import_table: Dict[str, Dict[str, ImportedName]] = {}
        #: forward edges: module -> internal modules it imports
        self.imports: Dict[str, Set[str]] = {name: set() for name in modules}
        #: modules whose source failed to parse (path -> error message)
        self.parse_errors: Dict[str, str] = {}
        for name, info in modules.items():
            self.import_table[name] = self._resolve_imports(name, info.tree)
        for name, table in self.import_table.items():
            for imported in table.values():
                if imported.internal and imported.module != name:
                    self.imports[name].add(imported.module)

    @classmethod
    def build(cls, paths: Iterable[Union[str, Path]]) -> "ModuleGraph":
        """Discover, parse, and link every ``*.py`` under ``paths``.

        Unparsable files are excluded from the model and recorded in
        :attr:`parse_errors` (the classic engine reports them as ZS000;
        the deep pass must not crash on them).
        """
        modules: Dict[str, ModuleInfo] = {}
        errors: Dict[str, str] = {}
        for f in _discover_files(paths):
            name = module_name_for(f)
            try:
                modules[name] = ModuleInfo(
                    name, f, f.read_text(encoding="utf-8")
                )
            except SyntaxError as exc:
                errors[str(f)] = f"syntax error: {exc.msg}"
        graph = cls(modules)
        graph.parse_errors = errors
        return graph

    # -- import resolution -------------------------------------------------
    def _package_of(self, module: str) -> str:
        """The package containing ``module`` (itself, if a package)."""
        info = self.modules.get(module)
        if info is not None and info.path.name == "__init__.py":
            return module
        return module.rsplit(".", 1)[0] if "." in module else ""

    def _relative_base(self, module: str, level: int) -> str:
        base = self._package_of(module)
        for _ in range(level - 1):
            base = base.rsplit(".", 1)[0] if "." in base else ""
        return base

    def _resolve_imports(
        self, module: str, tree: ast.Module
    ) -> Dict[str, ImportedName]:
        table: Dict[str, ImportedName] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    target = alias.name
                    local = alias.asname or target.split(".")[0]
                    bound = target if alias.asname else target.split(".")[0]
                    table[local] = ImportedName(
                        module=bound,
                        symbol=None,
                        internal=bound in self.modules,
                        lineno=node.lineno,
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = self._relative_base(module, node.level)
                    source = f"{base}.{node.module}" if node.module else base
                else:
                    source = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    submodule = f"{source}.{alias.name}"
                    if submodule in self.modules:
                        table[local] = ImportedName(
                            module=submodule,
                            symbol=None,
                            internal=True,
                            lineno=node.lineno,
                        )
                    else:
                        table[local] = ImportedName(
                            module=source,
                            symbol=alias.name,
                            internal=source in self.modules,
                            lineno=node.lineno,
                        )
        return table

    def imported(self, module: str, local_name: str) -> Optional[ImportedName]:
        """What ``local_name`` is bound to in ``module`` by imports."""
        return self.import_table.get(module, {}).get(local_name)

    # -- cycles ------------------------------------------------------------
    def cycles(self) -> List[List[str]]:
        """Strongly connected components with more than one module.

        Iterative Tarjan, deterministic order (sorted roots and edges).
        Import cycles are legal Python but a maintenance smell; the
        model surfaces them for tests and future rules.
        """
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        sccs: List[List[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            work: List[tuple[str, Iterator[str]]] = [
                (root, iter(sorted(self.imports[root])))
            ]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, edges = work[-1]
                advanced = False
                for succ in edges:
                    if succ not in index:
                        index[succ] = low[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(sorted(self.imports[succ]))))
                        advanced = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        sccs.append(sorted(component))

        for name in sorted(self.modules):
            if name not in index:
                strongconnect(name)
        return sccs

    def __len__(self) -> int:
        return len(self.modules)

    def __contains__(self, name: str) -> bool:
        return name in self.modules
