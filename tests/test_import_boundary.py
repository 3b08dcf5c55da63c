"""numpy loads only where arrays are computed.

No sweep, service or server path calls numpy, so importing any of them
must not load it (it costs ~14 MB and ~70 ms per process). Only
``repro.kernels`` and ``repro.viz`` import numpy at module level; the
associativity CDFs import it inside the functions that compute them.
Checked in a fresh interpreter, since the test process has numpy
loaded already.
"""

import subprocess
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")

_SCRIPT = """
import sys
import repro, repro.cli, repro.sim, repro.serve.server, repro.serve.cli
import repro.experiments.runner, repro.experiments.fig2, repro.assoc
assert "numpy" not in sys.modules, "numpy loaded at import"
repro.experiments.fig2.run(cache_blocks=64, accesses=500)
assert "numpy" in sys.modules, "fig2 computed its CDFs without numpy"
"""


def test_numpy_loads_only_where_arrays_are_computed():
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": _SRC},
    )
    assert proc.returncode == 0, proc.stderr
