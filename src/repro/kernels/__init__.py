"""ZTurbo: vectorized hot-path kernels for the simulator.

The reference simulator (``repro.core``) is pure Python: every miss
appends its candidates to flat lists one tag read at a time and walks
dicts and sorted lists.
This package re-expresses the hot path as numpy array math while keeping
a hard determinism contract: **a turbo cache produces bit-identical
eviction sequences, statistics and eviction-priority streams to the
reference engine** (enforced by ``tests/kernels`` and
``scripts/diff_engines.py``).

Modules
-------
``rng``
    :class:`~repro.kernels.rng.MTStream`: a numpy ``MT19937`` bit-synced
    to a ``random.Random``, reproducing CPython's ``getrandbits`` /
    ``randrange`` / ``random`` draw-for-draw in bulk.
``h3``
    Vectorized H3 index hashing over address batches, plus generic
    vector adapters for the other hash kinds.
``walk``
    The breadth-first replacement walk as flat array slices — all
    ``R = W * sum (W-1)^l`` candidates of a miss collected without
    building the candidate tree out of Python objects.
``policy``
    Dense slot-indexed victim selection and eviction-priority ranking
    for the LRU / FIFO (coarse-timestamp) / random policies.
``engine``
    :class:`~repro.kernels.engine.TurboCore`, the drop-in access engine
    a :class:`~repro.core.controller.Cache` constructed with
    ``engine="turbo"`` delegates to.
``replay``
    Batched driver: bulk address generation for the Fig. 2 loop.

Engine selection is deliberately conservative: ``try_build_turbo``
returns ``None`` (and the cache stays on the reference path, recorded in
its metrics) for any array/policy combination the kernels cannot
reproduce exactly. See ``docs/kernels.md``.
"""

from repro.kernels.engine import TurboCore, try_build_turbo
from repro.kernels.h3 import VectorH3, vector_hashes
from repro.kernels.rng import MTStream

__all__ = [
    "MTStream",
    "TurboCore",
    "VectorH3",
    "try_build_turbo",
    "vector_hashes",
]
