"""The zcache array (paper Section III).

Each way is indexed by a different hash function; a block can live in
exactly one position per way, so a hit costs a single W-way lookup — the
latency and energy of a W-way cache. On a miss, the controller *walks*
the tag array: the W first-level candidates' addresses are re-hashed
with the other ways' functions, yielding up to W*(W-1) second-level
candidates, and so on — a breadth-first expansion giving

    R = W * sum_{l=0}^{L-1} (W-1)^l

replacement candidates after L levels (Section III-B). Evicting a
candidate at level ``l`` relocates its ``l`` ancestors (cuckoo-hashing
style) so the incoming block lands at a level-0 position.

Extensions implemented (Section III-D):

- *Early stop*: ``candidate_limit`` truncates the walk, trading
  associativity for tag bandwidth/energy.
- *Repeat suppression*: ``repeat_filter="exact"`` stops expansion through
  already-visited addresses with a precise set; ``"bloom"`` uses the
  paper's Bloom filter (false positives prune a few legitimate paths,
  which is safe — just fewer candidates).
- *Walk strategy*: ``strategy="bfs"`` (paper default) or ``"dfs"``
  (cuckoo-style single chain, more relocations per candidate).

In hardware the re-hash of a candidate's tag is a few XOR gates; here it
is a pass over the hash family's tables (``hashes.indices``), and the
walk is on the miss path. So the array keeps a *resident home-position
table* — block address → its line index in every way — and expanding a
candidate is one table read plus W-1 tag reads.
The table is a pure memo of the hash family, keyed by address (never
by line), so an entry cannot go stale: it is written when a
block enters the array, dropped when the block leaves, kept while the
block is relocated, and a tag that has no entry is simply hashed. Walks
only read it, so candidate collection stays pure
(``tests/core/test_walk_readonly.py``) and may run off-lock;
``check_invariants`` asserts it holds exactly the resident blocks,
which bounds it at W indices per line.

The walk builds no object per node: it appends each one to the flat
record of :class:`~repro.core.base.Replacement` (way, index, address,
parent), like the hardware walk table.
"""

from __future__ import annotations

import random
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.base import CacheArray, Candidate, CommitResult, Position, Replacement
from repro.hashing.base import HashFamily, HashFunction, make_hash_family
from repro.obs.metrics import IntHistogram, MetricsRegistry, RegistryStats
from repro.util.bloom import BloomFilter

if TYPE_CHECKING:
    from repro.obs import ObsContext


def replacement_candidates(num_ways: int, levels: int) -> int:
    """Paper formula: R = W * sum_{l=0}^{L-1} (W-1)^l, assuming no repeats.

    A one-level walk (L=1) is a skew-associative cache: R = W. The walk
    needs at least two ways: with W=1 there are no alternative
    positions to expand into and the formula degenerates to R=1 for
    every L, which silently misrepresents the geometry — so it is
    rejected rather than returned.
    """
    if num_ways < 2:
        raise ValueError(
            f"num_ways must be >= 2 for a zcache walk, got {num_ways}"
        )
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    return num_ways * sum((num_ways - 1) ** l for l in range(levels))


def expected_relocations(num_ways: int, levels: int) -> float:
    """Expected relocations per replacement under the uniformity assumption.

    If every candidate is equally likely to be the victim (exchangeable
    priorities), the chosen level's distribution is proportional to the
    level sizes, so E[m] = sum(l * W*(W-1)^l) / R. Real walks measure
    slightly below this (repeats, free-slot endings, and the residual
    candidate correlation all bias towards shallower commits).
    """
    r = replacement_candidates(num_ways, levels)
    weighted = sum(
        level * num_ways * (num_ways - 1) ** level for level in range(levels)
    )
    return weighted / r


def levels_for_candidates(num_ways: int, target: int) -> int:
    """Smallest walk depth L such that R(W, L) >= target.

    ``num_ways`` is validated by :func:`replacement_candidates` (>= 2);
    R(W, L) is then strictly increasing in L — R(2, L) = 2L, more ways
    grow geometrically — so the loop always terminates.
    """
    if target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    levels = 1
    while replacement_candidates(num_ways, levels) < target:
        levels += 1
    return levels


class WalkStats(RegistryStats):
    """Cumulative replacement-walk statistics.

    Registry-backed since ZScope: every counter is a registered
    :class:`~repro.obs.metrics.Counter` and the commit-level histogram
    a registered :class:`~repro.obs.metrics.IntHistogram`, so walk
    behaviour shows up in metric snapshots as ``<scope>.walks``,
    ``<scope>.commit_level`` and friends. Attribute reads and writes
    work exactly as they did when this was a slotted dataclass.
    """

    _COUNTER_FIELDS = (
        "walks",
        "tag_reads",
        "candidates",
        "repeats",
        "truncated_walks",
        "relocations",
    )

    _levels: IntHistogram

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        super().__init__(registry)
        object.__setattr__(
            self, "_levels", self.registry.int_histogram("commit_level")
        )

    @property
    def level_hist(self) -> list[int]:
        """Histogram of chosen-candidate levels (index = level).

        A live view of the registered histogram's dense counts.
        """
        return self._levels.counts

    def record_commit_level(self, level: int) -> None:
        """Count one committed replacement at walk depth ``level``."""
        self._levels.observe(level)

    def merge(self, other: "WalkStats") -> None:
        """Accumulate another instance's counts into this one."""
        self.merge_counters(other)
        self._levels.add_counts(other.level_hist)

    @property
    def mean_candidates_per_walk(self) -> float:
        """Average candidates collected per walk (0.0 before any walk)."""
        c = self.counters()
        walks = c["walks"].value
        return c["candidates"].value / walks if walks else 0.0

    @property
    def mean_relocations_per_walk(self) -> float:
        """Average relocations committed per walk (0.0 before any walk)."""
        c = self.counters()
        walks = c["walks"].value
        return c["relocations"].value / walks if walks else 0.0


class ZCacheArray(CacheArray):
    """A W-way zcache with an L-level replacement walk.

    Parameters
    ----------
    num_ways:
        Physical ways, each with its own hash function.
    lines_per_way:
        Lines per way (power of two).
    levels:
        Walk depth L. ``levels=1`` collects only first-level candidates,
        i.e. behaves as a skew-associative cache.
    hash_kind:
        ``"h3"`` (paper default), ``"mix"`` or ``"bitsel"``.
    hash_seed:
        Seed for the hash family.
    candidate_limit:
        Optional cap on candidates collected; the walk stops early once
        reached (bandwidth-pressure mode). ``None`` = full walk.
    repeat_filter:
        ``None`` (allow repeats, paper default for large caches),
        ``"exact"`` or ``"bloom"``.
    strategy:
        ``"bfs"`` (paper default) or ``"dfs"`` (cuckoo-style chain whose
        depth is chosen to examine a comparable number of candidates).
    seed:
        RNG seed for the DFS strategy's random chain choices.
    """

    def __init__(
        self,
        num_ways: int,
        lines_per_way: int,
        levels: int = 2,
        hash_kind: str = "h3",
        hash_seed: int = 0,
        candidate_limit: Optional[int] = None,
        repeat_filter: Optional[str] = None,
        strategy: str = "bfs",
        seed: int = 0,
        hashes: Optional[Sequence[HashFunction]] = None,
    ) -> None:
        super().__init__(num_ways, lines_per_way)
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        if repeat_filter not in (None, "exact", "bloom"):
            raise ValueError(f"unknown repeat_filter: {repeat_filter!r}")
        if strategy not in ("bfs", "dfs"):
            raise ValueError(f"unknown strategy: {strategy!r}")
        if candidate_limit is not None and candidate_limit < num_ways:
            raise ValueError(
                f"candidate_limit must allow at least the {num_ways} "
                f"first-level candidates"
            )
        self.levels = levels
        self.candidate_limit = candidate_limit
        self.repeat_filter = repeat_filter
        self.strategy = strategy
        if hashes is not None:
            if len(hashes) != num_ways:
                raise ValueError("need exactly one hash function per way")
            self.hashes = (
                hashes if isinstance(hashes, HashFamily) else HashFamily(hashes)
            )
            if self.hashes.num_lines != lines_per_way:
                raise ValueError("hashes sized for a different lines_per_way")
        else:
            self.hashes = make_hash_family(hash_kind, num_ways, lines_per_way, hash_seed)
        self._rng = random.Random(seed)
        #: Resident home-position table: block address -> its line index
        #: in every way (``hashes.indices``: the way is the tuple
        #: position). A pure memo of the hash family, keyed by address,
        #: so an entry is right for as long as it exists; written when a
        #: block enters the array, dropped when it leaves, kept across
        #: relocations, never written by a walk.
        self._homes: dict[int, tuple[int, ...]] = {}
        #: the ways a block in way ``w`` expands into, in way order; the
        #: last entry (reached as ``[-1]``) is every way, for the
        #: incoming block, which sits in none
        self._other_ways = [
            tuple(way for way in range(num_ways) if way != own)
            for own in range(num_ways)
        ] + [tuple(range(num_ways))]
        self.stats = WalkStats()
        self._bind_stat_refs()

    def _bind_stat_refs(self) -> None:
        """Cache counter objects for the walk's hot increments.

        ``counter.value += 1`` on a cached ref costs the same as the old
        plain-attribute increment; going through the stats facade each
        time would not.
        """
        c = self.stats.counters()
        self._c_walks = c["walks"]
        self._c_tag_reads = c["tag_reads"]
        self._c_candidates = c["candidates"]
        self._c_repeats = c["repeats"]
        self._c_truncated_walks = c["truncated_walks"]
        self._c_relocations = c["relocations"]
        self._observe_level = self.stats._levels.observe

    def attach_obs(self, obs: "ObsContext") -> None:
        """Re-home walk statistics under ``<scope>.walk`` in the registry.

        Replaces the private :class:`WalkStats` built at construction
        with one registered in the context (resetting the counters, so
        attach before use) and records the walk depth as a gauge.
        """
        super().attach_obs(obs)
        self.stats = WalkStats(obs.metrics.scoped("walk"))
        self._bind_stat_refs()
        obs.metrics.scoped("array").gauge("levels").set(self.levels)

    # -- helpers -------------------------------------------------------------
    def _hash_homes(self, address: int) -> tuple[int, ...]:
        """A block's line index in every way, by hashing it."""
        return self.hashes.indices(address)

    def nominal_candidates(self) -> int:
        """R for this configuration, per the paper's formula."""
        r = replacement_candidates(self.num_ways, self.levels)
        if self.candidate_limit is not None:
            r = min(r, self.candidate_limit)
        return r

    # -- walk ----------------------------------------------------------------
    def build_replacement(self, address: int) -> Replacement:
        if address in self._pos:
            raise RuntimeError(f"build_replacement for resident block {address:#x}")
        repl = self._collect(address, self.hashes.indices(address), None)
        if repl.truncated:
            self._c_truncated_walks.value += 1
        return repl

    def build_reinsertion(self, address: int) -> Replacement:
        """Walk for *re-inserting* a resident block elsewhere.

        Used by the two-phase BFS extension (Section III-D): after the
        primary walk picks victim N, a second walk rooted at N's
        alternative positions finds somewhere to move N instead of
        evicting it, doubling the candidate pool with no extra walk
        state. Level 0 consists of N's W-1 other home positions.
        """
        pos = self._pos.get(address)
        if pos is None:
            raise RuntimeError(
                f"build_reinsertion for non-resident block {address:#x}"
            )
        homes = self._homes.get(address)
        if homes is None:
            homes = self._hash_homes(address)
        return self._collect(address, homes, pos)

    def _collect(
        self,
        incoming: int,
        homes: tuple[int, ...],
        own: Optional[Position],
    ) -> Replacement:
        """Collect the candidates for ``incoming``: the one loop behind
        every walk.

        Each round expands the blocks of the current frontier into the
        next level: a block's children are the lines at its home
        indices in every way but the one it sits in. Level 0 is the
        expansion of the incoming block itself (its ``homes``), which
        sits nowhere — or, for a reinsertion, at ``own``. The breadth-
        first walk carries every expandable child into the next round
        and stops after ``levels`` rounds; the depth-first walk is the
        same loop with the frontier narrowed to one random child per
        round, stopping at a free slot or at the breadth-first walk's
        candidate count. Reinsertions always walk breadth-first.

        A round appends every frontier block's children (way, index,
        tag read, parent). The plain breadth-first walk expands a level
        straight from the record, skipping empty and invalid nodes; a
        repeat filter or the depth-first walk first decides which nodes
        the next round expands. Home indices come from the resident
        table; a tag that is not in it (rewritten behind the array's
        back) is hashed. The loop only reads — array, table and all — so
        it may run off-lock.
        """
        lines = self._lines
        table = self._homes
        hash_homes = self.hashes.indices
        other_ways = self._other_ways
        # A repeat filter's blocks, and the lines read so far (without a
        # filter, repeats are counted once the walk is done).
        tracker: set[int] | BloomFilter | None = None
        if self.repeat_filter == "exact":
            tracker = {incoming}
        elif self.repeat_filter == "bloom":
            tracker = BloomFilter(num_bits=1024, num_hashes=2)
            tracker.add(incoming)
        if tracker is not None:
            seen: set[tuple[int, int]] = set() if own is None else {own}
        limit = self.candidate_limit
        if limit is None:
            limit = sys.maxsize
        dfs = self.strategy == "dfs" and own is None
        # DFS stops at the BFS walk's size even when no limit is set.
        cap = self.nominal_candidates() if dfs else limit
        ways: list[int] = []
        indices: list[int] = []
        addresses: list[Optional[int]] = []
        parents: list[int] = []
        level_starts: list[int] = []
        invalid: set[int] = set()
        truncated = False
        repeats = 0
        for way in other_ways[-1 if own is None else own[0]]:
            index = homes[way]
            ways.append(way)
            indices.append(index)
            addresses.append(lines[way][index])
            parents.append(-1)
        start = level = 0
        grown: list[int] | range  # the nodes this round expands
        while True:
            end = len(ways)
            # Never true at level 0: the limit is at least W.
            capped = end > cap
            if capped:
                end = cap
                invalid.difference_update(range(end, len(ways)))
                del ways[end:], indices[end:], addresses[end:], parents[end:]
                truncated = end >= limit
            if end > start:
                level_starts.append(start)
            level += 1
            last = not dfs and (capped or level == self.levels)
            if tracker is not None:
                free = False
                grown = []
                for i in range(start, end):
                    line = (ways[i], indices[i])
                    repeat = line in seen
                    if repeat:
                        repeats += 1
                    else:
                        seen.add(line)
                    resident = addresses[i]
                    if resident is not None:
                        if resident in tracker:
                            repeat = True
                            repeats += 1
                        else:
                            tracker.add(resident)
                    if not repeat and i not in invalid:
                        if resident is None:
                            free = True
                        else:
                            grown.append(i)
            elif last:
                break
            elif dfs:
                grown = [
                    i for i in range(start, end)
                    if addresses[i] is not None and i not in invalid
                ]
                free = any(
                    addresses[i] is None and i not in invalid
                    for i in range(start, end)
                )
            else:
                # Plain BFS: the expansion below skips empty and invalid
                # nodes itself; a level with none to expand adds no nodes,
                # so the next round ends the walk.
                grown = range(start, end)
            if dfs:
                # Level 0 only seeds the chain; below it a free slot ends
                # the walk (the chain can terminate there).
                if (free and level > 1) or not grown:
                    break
                grown = [self._rng.choice(grown)]
                if end >= cap:
                    break
            elif last or not grown:
                break
            start = end
            for parent in grown:
                block = addresses[parent]
                if block is None or parent in invalid:
                    continue
                expand = table.get(block)
                if expand is None:
                    expand = hash_homes(block)
                skip = ways[parent]
                first = len(ways)
                for way in other_ways[skip]:
                    index = expand[way]
                    ways.append(way)
                    indices.append(index)
                    addresses.append(lines[way][index])
                    parents.append(parent)
                # A relocation path must not visit a line twice. Only the
                # child in an ancestor's way can land on the ancestor, and
                # the parent sits in another way, so the scan starts at
                # the grandparent.
                ancestor = parents[parent]
                while ancestor >= 0:
                    way = ways[ancestor]
                    if way != skip and expand[way] == indices[ancestor]:
                        invalid.add(first + way - (way > skip))
                    ancestor = parents[ancestor]
        count = len(ways)
        if tracker is None:
            # Repeats are nodes minus distinct lines (``own`` holds
            # ``incoming``); only empty lines need positions compared.
            blocks = set(addresses)
            repeats = count - len(blocks) + (own is not None and incoming in blocks)
            if None in blocks:
                repeats -= len({
                    (ways[i], indices[i]) for i, a in enumerate(addresses) if a is None
                }) - 1
        self._c_repeats.value += repeats
        self._c_walks.value += 1
        self._c_tag_reads.value += count
        self._c_candidates.value += count
        return Replacement(
            incoming, ways, indices, addresses,
            parents if len(level_starts) > 1 else None, level_starts,
            invalid or None, count, truncated, homes=homes,
        )

    def commit_reinsertion(self, repl: Replacement, node: int) -> CommitResult:
        """Move the (resident) block of ``repl.incoming`` into the slot
        freed by evicting node ``node``, relocating the path between them.

        The block's old position is left empty for the caller (the
        two-phase controller installs the original incoming block
        there). The path is validated *before* the block is detached so
        a stale path raises without mutating the array; a path through
        the block's own old line goes stale by that detachment, and the
        commit rejects it with the block already out."""
        lines, parents = self._lines, repl.parents
        j = node
        while j >= 0:
            if lines[repl.ways[j]][repl.indices[j]] != repl.addresses[j]:
                raise self._stale(repl, j)
            j = -1 if parents is None else parents[j]
        self.evict_address(repl.incoming)
        return self.commit_replacement(repl, node)

    def commit_replacement(
        self, repl: Replacement, node: "int | Candidate"
    ) -> CommitResult:
        result = super().commit_replacement(repl, node)
        homes = self._homes
        if result.evicted is not None:
            homes.pop(result.evicted, None)
        # The incoming block is in: its homes come with the plan when the
        # walk hashed them (hand-built plans did not).
        homes[repl.incoming] = repl.homes or self._hash_homes(repl.incoming)
        self._c_relocations.value += result.relocations
        # A node's level is the number of ancestors its commit relocates.
        self._observe_level(result.relocations)
        return result

    def evict_address(self, address: int) -> None:
        super().evict_address(address)
        self._homes.pop(address, None)

    def check_invariants(self) -> None:
        super().check_invariants()
        # Every block must sit at the hash of its address for its way.
        for addr, pos in self._pos.items():
            expected = self.hashes[pos.way](addr)
            if pos.index != expected:
                raise AssertionError(
                    f"block {addr:#x} at index {pos.index} of way {pos.way}, "
                    f"but hashes to {expected}"
                )
        # The home-position table holds exactly the resident blocks (so
        # it is bounded by the array, W indices a line) and memoises
        # the hash family faithfully. An empty table is the one legal
        # exception: the turbo engine writes lines itself and never
        # walks the array, so it keeps none.
        if self._homes and self._homes.keys() != self._pos.keys():
            leaked = self._homes.keys() - self._pos.keys()
            missing = self._pos.keys() - self._homes.keys()
            raise AssertionError(
                f"home-position table out of sync with the resident set: "
                f"{len(leaked)} entries for absent blocks, {len(missing)} "
                f"resident blocks without an entry"
            )
        for addr, homes in self._homes.items():
            if homes != self._hash_homes(addr):
                raise AssertionError(
                    f"home-position table entry for block {addr:#x} is "
                    f"{homes}, but the block hashes to {self._hash_homes(addr)}"
                )
