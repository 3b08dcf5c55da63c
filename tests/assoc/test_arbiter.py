"""An independent zcache, written from the paper text, as the arbiter of
the repo's measured associativity (Section IV-A).

The arbiter shares no code with ``repro``: per-way line lists, per-slot
LRU stamps that move with a relocated block, splitmix64 per-way hashes,
a breadth-first walk to L levels that never visits a slot twice, and
eviction of the globally least recently used candidate with its
ancestors relocated one step down the walk. Both it and the repo's
``ZCacheArray`` + LRU run the same uniform random trace (footprint 8x
the cache), and their effective candidate counts n = m / (1 - m) of the
mean eviction priority m must agree within 10%.

Both land well short of R (about 0.68 R at Z4/16 and 0.40 R at Z4/52),
which is why EXPERIMENTS.md marks Fig. 3 panel (d) not reproduced.
"""

import random
from bisect import bisect_left

import pytest

from repro.assoc import measure_associativity
from repro.core import ZCacheArray
from repro.replacement import LRU

MASK64 = (1 << 64) - 1
WAYS, LINES = 4, 512
ACCESSES, WARMUP = 30_000, 8_000


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


class ArbiterZCache:
    """A W-way zcache with an L-level walk and global LRU."""

    def __init__(self, ways, lines, levels, seed=7):
        self.ways, self.lines, self.levels = ways, lines, levels
        self.salts = [splitmix64(seed * 1000 + w) for w in range(ways)]
        self.block = [[None] * lines for _ in range(ways)]
        self.stamp = [[0] * lines for _ in range(ways)]
        self.where = {}  # resident block -> (way, line)
        self.stamps = []  # resident blocks' stamps, oldest first
        self.clock = 0
        self.priorities = []

    def home(self, way, block):
        return splitmix64(block ^ self.salts[way]) % self.lines

    def access(self, block):
        self.clock += 1
        slot = self.where.get(block)
        if slot is None:
            self.fill(block)
            return
        way, line = slot
        del self.stamps[bisect_left(self.stamps, self.stamp[way][line])]
        self.place(block, way, line, self.clock)
        self.stamps.append(self.clock)

    def place(self, block, way, line, stamp):
        self.block[way][line] = block
        self.stamp[way][line] = stamp
        self.where[block] = (way, line)

    def walk(self, block):
        """Breadth-first candidates as (way, line, parent node) triples;
        stops at the first empty slot, which is then the last node."""
        nodes = [(w, self.home(w, block), -1) for w in range(self.ways)]
        seen = {(w, line) for w, line, _ in nodes}
        start = 0
        for level in range(self.levels):
            end = len(nodes)
            for i in range(start, end):
                way, line, _ = nodes[i]
                held = self.block[way][line]
                if held is None:
                    return nodes[: i + 1]
                if level == self.levels - 1:
                    continue
                for w in range(self.ways):
                    child = (w, self.home(w, held))
                    if w != way and child not in seen:
                        seen.add(child)
                        nodes.append((*child, i))
            start = end
        return nodes

    def fill(self, block):
        nodes = self.walk(block)
        way, line, _ = nodes[-1]
        if self.block[way][line] is None:
            target = len(nodes) - 1
        else:
            target = min(
                range(len(nodes)),
                key=lambda i: self.stamp[nodes[i][0]][nodes[i][1]],
            )
            way, line, _ = nodes[target]
            self.evict(way, line)
        # Each ancestor's block moves into its child's slot.
        while nodes[target][2] >= 0:
            parent = nodes[target][2]
            pway, pline, _ = nodes[parent]
            moving = self.block[pway][pline]
            way, line, _ = nodes[target]
            self.place(moving, way, line, self.stamp[pway][pline])
            target = parent
        way, line, _ = nodes[target]
        self.place(block, way, line, self.clock)
        self.stamps.append(self.clock)

    def evict(self, way, line):
        victim, stamp = self.block[way][line], self.stamp[way][line]
        older = bisect_left(self.stamps, stamp)
        younger = len(self.stamps) - 1 - older
        self.priorities.append(younger / (len(self.stamps) - 1))
        del self.stamps[older]
        del self.where[victim]
        self.block[way][line] = None


def effective_n(priorities):
    mean = sum(priorities) / len(priorities)
    return mean / (1.0 - mean)


@pytest.mark.parametrize("levels, candidates", [(2, 16), (3, 52)])
def test_repo_zcache_matches_the_arbiter(levels, candidates):
    rng = random.Random(1)
    trace = [rng.randrange(8 * WAYS * LINES) for _ in range(ACCESSES)]

    arbiter = ArbiterZCache(WAYS, LINES, levels)
    for i, block in enumerate(trace):
        if i == WARMUP:
            arbiter.priorities.clear()
        arbiter.access(block)
    reference = effective_n(arbiter.priorities)

    dist, _ = measure_associativity(
        lambda: ZCacheArray(WAYS, LINES, levels=levels, hash_kind="mix"),
        LRU,
        [(block, False) for block in trace],
        warmup=WARMUP,
    )
    measured = dist.effective_candidates()

    assert measured == pytest.approx(reference, rel=0.10)
    # The walk's candidates are far from independent: neither cache
    # reaches R.
    assert max(measured, reference) < 0.8 * candidates
