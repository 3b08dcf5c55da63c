"""Reproductions of every table and figure in the paper's evaluation.

One module per artifact, each exposing exactly ``run(...) -> result``
(its defaults are the recorded scale) and ``render(result) ->
list[str]`` (the text committed as ``results/<name>.txt``).
:data:`ARTIFACTS` is the one list of them: ``zcache-repro <name>``,
``scripts_run_all.py`` and the tests all iterate it, so an artifact
that is not in the table does not exist and one that is prints the same
text everywhere.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from types import ModuleType

from repro.experiments.runner import (
    DESIGNS_FIG4,
    ExperimentScale,
    baseline_design,
    representative_workloads,
    run_design_sweep,
)


@dataclass(frozen=True)
class Artifact:
    """One row of :data:`ARTIFACTS`.

    ``module`` is an import path, resolved by :meth:`load` only when
    the artifact runs (the table itself imports nothing). ``inputs``
    names the keyword arguments ``run`` accepts from a caller: ``scale``
    (an :class:`ExperimentScale`; the default of ``run``'s ``scale``
    parameter is the recorded one), ``jobs`` (worker processes),
    ``engine`` (``"reference"`` / ``"turbo"``). ``hooks`` names the
    optional module functions beside ``run``/``render``:
    ``payload(result)`` (a JSON-able structure) and
    ``svg(out_dir, result)`` (writes figures, returns their paths).
    """

    module: str
    inputs: tuple[str, ...] = ()
    hooks: tuple[str, ...] = ()

    def load(self) -> ModuleType:
        """Import and return the artifact's module."""
        return importlib.import_module(self.module)


#: name -> artifact, cheapest first (the order ``scripts_run_all.py``
#: regenerates ``results/`` in). What each one reproduces is the first
#: line of its module's docstring.
ARTIFACTS: dict[str, Artifact] = {
    "table1": Artifact("repro.experiments.table1"),
    "table2": Artifact("repro.experiments.table2"),
    "merit": Artifact("repro.experiments.merit"),
    "fig1": Artifact("repro.experiments.fig1"),
    "fig2": Artifact("repro.experiments.fig2", ("engine",), ("svg",)),
    "fig3": Artifact("repro.experiments.fig3", ("scale",), ("payload", "svg")),
    "fig4": Artifact(
        "repro.experiments.fig4", ("scale", "jobs"), ("payload", "svg")
    ),
    "fig5": Artifact(
        "repro.experiments.fig5", ("scale", "jobs"), ("payload", "svg")
    ),
    "bandwidth": Artifact("repro.experiments.bandwidth", ("scale",), ("payload",)),
    "buffering": Artifact("repro.experiments.buffering"),
    "conflict": Artifact("repro.experiments.conflict"),
    "hashquality": Artifact("repro.experiments.hashquality"),
    "pressure": Artifact("repro.experiments.pressure"),
}

__all__ = [
    "ARTIFACTS",
    "Artifact",
    "ExperimentScale",
    "baseline_design",
    "DESIGNS_FIG4",
    "representative_workloads",
    "run_design_sweep",
]
