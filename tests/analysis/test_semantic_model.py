"""Tests for the ZProve semantic model layers.

Covers the module graph (import resolution, cycle detection, parse
errors), name resolution through aliased imports and re-export chains,
the call graph, and intra-procedural def-use through the origin
evaluator.
"""

from repro.analysis.semantic import (
    ModuleGraph,
    SemanticModel,
    func_key,
    module_name_for,
    run_deep,
)
from repro.analysis.semantic.dataflow import (
    CONST,
    TAINT_WALLCLOCK,
    param_token,
)


def write_pkg(root, files):
    """Materialize ``{relpath: source}`` as a package tree under root."""
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        # Every directory on the way down becomes a package.
        for parent in path.parents:
            if parent == root:
                break
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
    return root


# ---------------------------------------------------------------------------
# Module graph


class TestModuleGraph:
    def test_module_names_follow_package_structure(self, tmp_path):
        write_pkg(tmp_path, {"pkg/sub/mod.py": "X = 1\n"})
        assert module_name_for(tmp_path / "pkg" / "sub" / "mod.py") == (
            "pkg.sub.mod"
        )
        assert module_name_for(tmp_path / "pkg" / "__init__.py") == "pkg"

    def test_import_edges_and_dependents(self, tmp_path):
        write_pkg(
            tmp_path,
            {
                "pkg/util.py": "def f(x):\n    return x\n",
                "pkg/main.py": "from pkg.util import f\n",
            },
        )
        graph = ModuleGraph.build([tmp_path])
        assert "pkg.util" in graph.imports["pkg.main"]
        assert graph.imports["pkg.util"] == set()

    def test_from_pkg_import_submodule_binds_the_module(self, tmp_path):
        write_pkg(
            tmp_path,
            {
                "pkg/leaf.py": "def f():\n    return 0\n",
                "pkg/main.py": "from pkg import leaf\n",
            },
        )
        graph = ModuleGraph.build([tmp_path])
        bound = graph.imported("pkg.main", "leaf")
        assert bound is not None
        assert bound.module == "pkg.leaf"
        assert bound.symbol is None
        assert bound.internal

    def test_cycle_detection_finds_the_scc(self, tmp_path):
        write_pkg(
            tmp_path,
            {
                "pkg/a.py": "from pkg import b\n",
                "pkg/b.py": "import pkg.c as c\n",
                "pkg/c.py": "from pkg.a import helper\n",
                "pkg/leaf.py": "X = 1\n",
            },
        )
        graph = ModuleGraph.build([tmp_path])
        assert graph.cycles() == [["pkg.a", "pkg.b", "pkg.c"]]

    def test_acyclic_diamond_has_no_cycles(self, tmp_path):
        write_pkg(
            tmp_path,
            {
                "pkg/base.py": "X = 1\n",
                "pkg/left.py": "from pkg.base import X\n",
                "pkg/right.py": "from pkg.base import X\n",
                "pkg/top.py": (
                    "from pkg.left import X\nfrom pkg.right import X\n"
                ),
            },
        )
        assert ModuleGraph.build([tmp_path]).cycles() == []

    def test_parse_errors_are_recorded_not_fatal(self, tmp_path):
        write_pkg(
            tmp_path,
            {
                "pkg/good.py": "X = 1\n",
                "pkg/bad.py": "def broken(:\n",
            },
        )
        graph = ModuleGraph.build([tmp_path])
        assert "pkg.bad" not in graph.modules
        assert any("bad.py" in p for p in graph.parse_errors)

        report, stats = run_deep([tmp_path])
        zs000 = [f for f in report.findings if f.code == "ZS000"]
        assert len(zs000) == 1
        assert "bad.py" in zs000[0].path
        assert stats.parse_errors == 1
        assert report.files_checked == len(graph.modules) + 1


# ---------------------------------------------------------------------------
# Name resolution and the call graph


class TestResolution:
    def test_aliased_import_resolves_to_the_definition(self, tmp_path):
        write_pkg(
            tmp_path,
            {
                "pkg/util.py": "def f(x):\n    return x\n",
                "pkg/main.py": (
                    "from pkg.util import f as g\n"
                    "def caller(x):\n"
                    "    return g(x)\n"
                ),
            },
        )
        model = SemanticModel.build([tmp_path])
        info = model.resolve_callable("pkg.main", "g")
        assert info is not None
        assert (info.module, info.qualname) == ("pkg.util", "f")

    def test_callgraph_edge_through_aliased_import(self, tmp_path):
        write_pkg(
            tmp_path,
            {
                "pkg/util.py": "def f(x):\n    return x\n",
                "pkg/main.py": (
                    "from pkg.util import f as g\n"
                    "def caller(x):\n"
                    "    return g(x)\n"
                ),
            },
        )
        model = SemanticModel.build([tmp_path])
        caller = model.symbols_of("pkg.main").lookup_function("caller")
        callees = model.callgraph.callees(func_key(caller))
        assert ("pkg.util", "f") in callees
        assert ("pkg.util", "f") in model.callgraph.reachable(
            [func_key(caller)]
        )

    def test_reexport_chain_is_chased(self, tmp_path):
        write_pkg(
            tmp_path,
            {
                "pkg/util.py": "def f(x):\n    return x\n",
                "pkg/__init__.py": "from pkg.util import f\n",
                "other.py": (
                    "from pkg import f\n"
                    "def use(x):\n"
                    "    return f(x)\n"
                ),
            },
        )
        model = SemanticModel.build([tmp_path])
        info = model.resolve_callable("other", "f")
        assert info is not None
        assert (info.module, info.qualname) == ("pkg.util", "f")

    def test_class_constructor_resolves_to_init(self, tmp_path):
        write_pkg(
            tmp_path,
            {
                "pkg/thing.py": (
                    "class Thing:\n"
                    "    def __init__(self, n):\n"
                    "        self.n = n\n"
                ),
                "pkg/main.py": "from pkg.thing import Thing\n",
            },
        )
        model = SemanticModel.build([tmp_path])
        info = model.resolve_callable("pkg.main", "Thing")
        assert info is not None
        assert info.qualname == "Thing.__init__"

    def test_module_alias_dotted_call(self, tmp_path):
        write_pkg(
            tmp_path,
            {
                "pkg/util.py": "def f(x):\n    return x\n",
                "pkg/main.py": "import pkg.util as u\n",
            },
        )
        model = SemanticModel.build([tmp_path])
        info = model.resolve_dotted_callable("pkg.main", "u.f")
        assert info is not None
        assert (info.module, info.qualname) == ("pkg.util", "f")


# ---------------------------------------------------------------------------
# Origin evaluator (def-use)


class TestOrigins:
    def _summary(self, tmp_path, source, qualname):
        write_pkg(tmp_path, {"pkg/mod.py": source})
        model = SemanticModel.build([tmp_path])
        func = model.symbols_of("pkg.mod").lookup_function(qualname)
        assert func is not None
        return model.evaluator.summary(func)

    def test_def_use_across_augmented_assignment(self, tmp_path):
        origins = self._summary(
            tmp_path,
            "def acc(seed):\n"
            "    total = 1\n"
            "    total += seed\n"
            "    return total\n",
            "acc",
        )
        # The augmented assignment folds the old binding into the new
        # one: both the constant and the parameter survive.
        assert param_token("seed") in origins
        assert CONST in origins

    def test_wall_clock_taint_flows_through_helper(self, tmp_path):
        origins = self._summary(
            tmp_path,
            "import time\n"
            "def now():\n"
            "    return time.time()\n"
            "def mk():\n"
            "    return now()\n",
            "mk",
        )
        assert TAINT_WALLCLOCK in origins

    def test_parameter_substitution_at_call_sites(self, tmp_path):
        origins = self._summary(
            tmp_path,
            "def shift(s):\n"
            "    return (s << 1) | 1\n"
            "def outer(seed):\n"
            "    return shift(seed)\n",
            "outer",
        )
        # shift()'s summary is param:s; binding the call argument must
        # rewrite it to the caller's param:seed.
        assert param_token("seed") in origins
        assert param_token("s") not in origins

    def test_recursion_stays_conservative(self, tmp_path):
        origins = self._summary(
            tmp_path,
            "def loop(n):\n"
            "    if n:\n"
            "        return loop(n - 1)\n"
            "    return 0\n",
            "loop",
        )
        assert "unknown" in origins or CONST in origins
