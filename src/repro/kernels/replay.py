"""Batched driver for the turbo engine's Fig. 2 loop.

:func:`fig2_addresses` draws a whole synthetic access stream in one
vectorized pass from an :class:`~repro.kernels.rng.MTStream` that is
bit-synced to the experiment's ``random.Random``, replacing the
per-access ``rng.randrange(footprint)`` calls with a list walk. It is
exact: the drawn stream equals the reference draw-for-draw.
"""

from __future__ import annotations

import random

from repro.kernels.rng import MTStream


def fig2_addresses(source: random.Random, footprint: int, count: int) -> list[int]:
    """The next ``count`` results of ``source.randrange(footprint)``.

    Drawn in bulk through a bit-synced MT19937 stream; ``source`` itself
    is not advanced, so the caller must not draw from it afterwards.
    """
    stream = MTStream(source)
    return [int(a) for a in stream.randrange(footprint, count)]
