"""Trace-driven CMP simulator (paper Table I system).

Models the paper's evaluation platform: 32 in-order x86-class cores
(IPC=1 except on memory accesses), private split L1s, a shared, banked,
inclusive L2 with MESI-style directory coherence, and memory controllers
with a zero-load latency plus bandwidth queueing.

One front end (cores, L1s, directory) and one back end (banked L2, bank
ports, memory channel), joined by a stream of L2-level events
(:mod:`repro.sim.cmp`), in two operating modes:

- **full** (:meth:`CMPSimulator.run`): execution-driven, event by
  event; the L2 design affects the L1 stream through inclusion victims
  and coherence.
- **trace** (:class:`TraceDrivenRunner`): the front end captures the
  L1-filtered stream once and the back end replays it against many L2
  designs — this is how the paper runs OPT, and it makes design sweeps
  (Fig. 4/5) cheap. Inclusion victims do not feed back into the L1
  stream in this mode; that is the only modelled difference.
"""

from repro.sim.config import CMPConfig, L2DesignConfig
from repro.sim.cmp import CMPResult, CMPSimulator, TraceDrivenRunner
from repro.sim.directory import Directory
from repro.sim.l2 import BankedL2

__all__ = [
    "CMPConfig",
    "L2DesignConfig",
    "CMPSimulator",
    "TraceDrivenRunner",
    "CMPResult",
    "Directory",
    "BankedL2",
]
