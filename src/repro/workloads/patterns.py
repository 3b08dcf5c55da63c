"""Access-pattern primitives.

Each primitive is an infinite stream of block addresses within
``[0, footprint)``, returned as a :class:`Pattern`. Workload specs
compose them (with weights) and add address-space offsets, instruction
gaps, and read/write labels.

All randomness is seeded — the same spec always produces the same trace.

**Blocks.** A pattern's one implementation is ``take(k)``: the next
``k`` addresses, one loop per call, state carried between calls.
Iterating is a view of it, ``BLOCK`` at a time. The CMP front end reads
whole blocks (:meth:`~repro.workloads.spec.WorkloadSpec.core_blocks`):
per-access generator resumes were most of what a capture cost.

**Draw-order contract.** Recorded experiment outputs depend on every
address of every stream, so each seeded generator below may be made
faster but never made to draw differently: same ``Random``, same draws,
same order — pinned by ``tests/goldens/stream_digests.json``. Every
pattern owns its ``Random``, so *when* it draws is free: ``mixed`` draws
a block's part choices first and reads each part through the part's
own iterator, and a reader may leave up to a block per pattern drawn
but unread.
Where a loop spells ``rng.randrange(n)`` as ``getrandbits(n.bit_length())``
redrawn while ``>= n``, that is ``Random._randbelow_with_getrandbits``
written out, so it consumes exactly the bits ``randrange`` would.

**Memory.** ``zipf`` and ``pointer_chase`` hold their permutation as a
4-byte ``array("I")``, shuffled in place: 4 bytes per block rather than
the ~36 of a list of ints. Shuffling a list and converting it would be
faster (a swap in an ``array`` boxes two ints), but the list's ~36
bytes per block would be the construction's peak. A footprint above
2**32 does not fit the typecode and raises ``OverflowError``.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from itertools import chain, repeat, starmap
from typing import Callable, Generator, Iterator, MutableSequence, Sequence


def _shuffle(x: MutableSequence[int], getrandbits) -> None:
    """``Random.shuffle`` with its ``randrange(i + 1)`` written out.

    ``k = (i + 1).bit_length()`` only changes at powers of two, so it is
    computed once per band of ``i`` rather than once per element.
    """
    hi = len(x) - 1
    while hi > 0:
        k = (hi + 1).bit_length()
        lo = (1 << (k - 1)) - 1  # the smallest i with this k
        for i in range(hi, lo - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        hi = lo - 1


#: Addresses per read of a pattern's iterator view and accesses per
#: core-stream block. Larger blocks over-generate more per run: 512
#: measured slower than 128 on a sweep.
BLOCK = 128


class Pattern(chain):
    """An infinite address stream with a block form.

    ``take(k)`` returns the next ``k`` addresses. Iterating yields the
    same sequence, read through ``take`` a ``BLOCK`` at a time (a
    ``chain``, so per-address reads stay in C); a ``take`` after
    iterating skips what the view already holds.
    """

    take: Callable[[int], list[int]]


def _pattern(blocks: Generator[list[int], int, None]) -> Pattern:
    """A :class:`Pattern` over a generator that answers ``n = yield block``."""
    next(blocks)  # run up to the first ``n = yield``
    pattern = Pattern.from_iterable(map(blocks.send, repeat(BLOCK)))
    pattern.take = blocks.send
    return pattern


def sequential_scan(footprint: int, start: int = 0) -> Pattern:
    """Wrap-around sequential scan: 0, 1, 2, ..., footprint-1, 0, ...

    Models streaming workloads (lbm, libquantum, streamcluster).
    """
    return strided(footprint, 1, start)


def strided(footprint: int, stride: int, start: int = 0) -> Pattern:
    """Strided scan: start, start+stride, ... (mod footprint).

    Power-of-two strides are the classic set-conflict pathology
    (Section II-A); stencil codes (mgrid, cactusADM) look like several
    of these superimposed.
    """
    if footprint < 1:
        raise ValueError(f"footprint must be >= 1, got {footprint}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")

    def blocks(addr):
        n = yield
        while True:
            end = addr + n * stride
            block = [a % footprint for a in range(addr, end, stride)]
            addr = end % footprint
            n = yield block

    return _pattern(blocks(start % footprint))


def uniform_random(footprint: int, seed: int = 0) -> Pattern:
    """Uniform random addresses — the no-locality stress case."""
    if footprint < 1:
        raise ValueError(f"footprint must be >= 1, got {footprint}")
    getrandbits = random.Random(seed).getrandbits
    k = footprint.bit_length()

    def blocks():
        n = yield
        while True:
            block = []
            for _ in range(n):
                r = getrandbits(k)  # randrange(footprint): the draw-order contract
                while r >= footprint:
                    r = getrandbits(k)
                block.append(r)
            n = yield block

    return _pattern(blocks())


def zipf(footprint: int, skew: float = 1.1, seed: int = 0) -> Pattern:
    """Zipf-like popularity over a shuffled footprint.

    ``skew`` > 1 concentrates traffic on few hot blocks (pointer-heavy
    integer codes); ``skew`` < 1 flattens towards uniform. Uses the
    bounded-Pareto inverse-CDF so no per-sample loops are needed.
    """
    if footprint < 1:
        raise ValueError(f"footprint must be >= 1, got {footprint}")
    if skew <= 0 or math.isclose(skew, 1.0):
        # skew ~ 1 makes the inverse-CDF exponent vanish (span -> 0);
        # anything isclose to 1 is numerically degenerate, not just 1.0.
        raise ValueError(f"skew must be positive and != 1, got {skew}")
    rng = random.Random(seed)
    # A fixed random permutation decouples popularity rank from address
    # value, so hot blocks do not cluster in one cache region.
    perm = array("I", range(footprint))
    _shuffle(perm, rng.getrandbits)
    exponent = 1.0 - skew
    span = footprint**exponent - 1.0
    inverse = 1.0 / exponent
    rand, floor = rng.random, math.floor  # floor: int() of a positive float

    def blocks():
        n = yield
        while True:
            n = yield [
                perm[floor((span * rand() + 1.0) ** inverse) % footprint]
                for _ in range(n)
            ]

    return _pattern(blocks())


def working_set_phases(
    footprint: int,
    ws_fraction: float = 0.25,
    phase_length: int = 10_000,
    locality: float = 0.9,
    seed: int = 0,
) -> Pattern:
    """Phased working sets: dense reuse inside a window that jumps.

    Models loop-nest programs (most of SPECfp): during a phase, accesses
    hit a contiguous window of ``ws_fraction * footprint`` blocks with
    probability ``locality`` (uniform within the window) and stray
    anywhere otherwise; each phase the window moves.
    """
    if footprint < 1:
        raise ValueError(f"footprint must be >= 1, got {footprint}")
    if not 0.0 < ws_fraction <= 1.0:
        raise ValueError(f"ws_fraction must be in (0,1], got {ws_fraction}")
    if not 0.0 <= locality <= 1.0:
        raise ValueError(f"locality must be in [0,1], got {locality}")
    if phase_length < 1:
        raise ValueError(f"phase_length must be >= 1, got {phase_length}")
    rng = random.Random(seed)
    rand = rng.random
    getrandbits = rng.getrandbits
    ws_size = max(1, int(footprint * ws_fraction))
    fp_bits = footprint.bit_length()
    ws_bits = ws_size.bit_length()

    # randrange(footprint) / randrange(ws_size): the draw-order contract
    def blocks():
        base = left = 0  # the window, and the accesses left in its phase
        n = yield
        while True:
            block = []
            append = block.append
            while len(block) < n:
                if not left:
                    base = getrandbits(fp_bits)
                    while base >= footprint:
                        base = getrandbits(fp_bits)
                    left = phase_length
                run = min(left, n - len(block))
                left -= run
                for _ in range(run):
                    if rand() < locality:
                        r = getrandbits(ws_bits)
                        while r >= ws_size:
                            r = getrandbits(ws_bits)
                        append((base + r) % footprint)
                    else:
                        r = getrandbits(fp_bits)
                        while r >= footprint:
                            r = getrandbits(fp_bits)
                        append(r)
            n = yield block

    return _pattern(blocks())


def pointer_chase(footprint: int, seed: int = 0, jump_every: int = 0) -> Pattern:
    """Chase through a random successor table.

    Models linked-data-structure codes (mcf, omnetpp, canneal): each
    access is data-dependent on the previous one, with no spatial
    pattern. The table is a shuffled permutation, not one cycle: it
    splits into about ``ln(footprint)`` cycles, and between jumps the
    chase stays on the start node's cycle, which may cover only part
    of the footprint. ``jump_every`` > 0 restarts the chase at a random
    node periodically (several traversals in flight, each on whichever
    cycle its start node lies).
    """
    if footprint < 1:
        raise ValueError(f"footprint must be >= 1, got {footprint}")
    rng = random.Random(seed)
    nxt = array("I", range(1, footprint))
    nxt.append(0)
    getrandbits = rng.getrandbits
    _shuffle(nxt, getrandbits)
    k = footprint.bit_length()
    node = getrandbits(k)  # randrange(footprint), twice: the draw-order contract
    while node >= footprint:
        node = getrandbits(k)

    def blocks(node):
        count = 0
        n = yield
        while True:
            block = []
            for _ in range(n):
                block.append(node)
                node = nxt[node]
                count += 1
                if jump_every and count % jump_every == 0:
                    node = getrandbits(k)
                    while node >= footprint:
                        node = getrandbits(k)
            n = yield block

    return _pattern(blocks(node))


def mixed(
    parts: Sequence[tuple[float, Iterator[int]]], seed: int = 0
) -> Pattern:
    """Probabilistic mix of pattern iterators.

    ``parts`` is a sequence of ``(weight, iterator)``; each access is
    drawn from one iterator with probability proportional to its weight.
    """
    if not parts:
        raise ValueError("mixed() needs at least one part")
    weights = [w for w, _ in parts]
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    rand = random.Random(seed).random
    total = sum(weights)
    cum = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cum.append(acc)
    # Every part owns its Random, so reading a part's iterator view a
    # block ahead of what the mix has used changes no draw.
    nexts = [it.__next__ for _, it in parts]
    first, c0, last = nexts[0], cum[0], cum[-1]

    def blocks():
        n = yield
        while True:
            u = list(starmap(rand, repeat((), n)))
            # A ``u`` above cum[-1] (rounding can leave it a hair under
            # 1.0) matches no part, yields nothing and costs one more
            # draw: that fall-through is part of the draw-order contract.
            while u and max(u) > last:
                u.remove(max(u))
                u.append(rand())
            # the first part with u <= cum[i]; no bisect for the first
            n = yield [
                first() if x <= c0 else nexts[bisect_left(cum, x)]() for x in u
            ]

    return _pattern(blocks())

