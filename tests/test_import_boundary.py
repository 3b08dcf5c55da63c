"""numpy loads only where arrays are the point.

No sweep, service or server path calls numpy, and neither do Fig. 2,
Fig. 3 or the associativity probes: importing any of them, running
Fig. 2 or Fig. 3 and measuring a design's associativity (its CDF, its
KS distances, its mean, quantiles and summary, a dominance test) must
not load it (it costs ~14 MB and ~70 ms per process). Only
``repro.kernels`` imports numpy. ``AssociativityDistribution.mean``
and ``quantile`` reproduce numpy's pairwise sum and linear
interpolation in the standard library (``tests/util/test_util.py``
holds them to numpy bit for bit). Checked in a fresh interpreter,
since the test process has numpy loaded already.
"""

import subprocess
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")

_SCRIPT = """
import random, sys
import repro, repro.cli, repro.sim, repro.serve.server, repro.serve.cli
import repro.experiments.runner, repro.experiments.fig2, repro.assoc
import repro.experiments.fig3
assert "numpy" not in sys.modules, "numpy loaded at import"
from repro.assoc import dominates, measure_associativity
from repro.core import RandomCandidatesArray
from repro.replacement import LRU
repro.experiments.fig2.run(cache_blocks=64, accesses=500)
rng = random.Random(0)
trace = [(rng.randrange(1024), False) for _ in range(2000)]
array = lambda: RandomCandidatesArray(128, 16, seed=1)  # evicts only when full
dist, _ = measure_associativity(array, LRU, trace)
dist.cdf([0.25, 0.5, 0.75])
dist.ks_to_uniformity(16)
dist.ks_on_lattice(16, 128)
assert dominates(dist, dist)
dist.mean(), dist.summary(), dist.effective_candidates()
from repro.experiments import fig3
from repro.experiments.runner import ExperimentScale
cells = fig3.run(ExperimentScale(instructions_per_core=1000), workloads=["canneal"])
fig3.render(cells), fig3.payload(cells)
assert "numpy" not in sys.modules, "the associativity path loaded numpy"
"""


def test_numpy_loads_only_where_arrays_are_computed():
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": _SRC},
    )
    assert proc.returncode == 0, proc.stderr
