"""Workload specifications and per-core stream synthesis.

A :class:`WorkloadSpec` declares a workload's statistical shape:

- ``mem_ratio`` — memory accesses per instruction (gaps between accesses
  are geometric with mean ``1/mem_ratio - 1``);
- ``write_frac`` — fraction of accesses that are stores;
- ``patterns`` — a weighted mix of :mod:`repro.workloads.patterns`
  primitives, with footprints expressed *relative to the L2 size* so
  experiments scale: ``{"kind": "pointer_chase", "footprint_mult": 8.0}``
  means "a pointer chase over 8x the L2's capacity";
- ``sharing_frac`` — for multithreaded workloads, the fraction of
  accesses that fall in a region shared by all cores.

:meth:`WorkloadSpec.core_blocks` turns a spec into an infinite per-core
stream of access blocks for the CMP simulator; :meth:`~WorkloadSpec.
core_stream` reads the same stream one :class:`CoreAccess` at a time.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat, starmap
from typing import Iterator, NamedTuple

from repro.workloads import patterns as pat

#: Private address spaces are separated by this stride (in blocks);
#: large enough that scaled footprints never overlap across cores.
CORE_ADDRESS_STRIDE = 1 << 28

#: Shared regions (multithreaded workloads) live above this base.
SHARED_ADDRESS_BASE = 1 << 40


class CoreAccess(NamedTuple):
    """One memory access in a core's instruction stream.

    ``gap`` is the number of non-memory instructions executed since the
    previous access (they retire at IPC=1 per the paper's core model).
    """

    gap: int
    address: int
    is_write: bool


def _build_pattern(desc: dict, footprint: int, seed: int) -> pat.Pattern:
    """Instantiate one pattern primitive from its descriptor."""
    kind = desc["kind"]
    if kind == "sequential":
        return pat.sequential_scan(footprint, start=seed % footprint)
    if kind == "strided":
        return pat.strided(footprint, stride=desc.get("stride", 64), start=seed % footprint)
    if kind == "uniform":
        return pat.uniform_random(footprint, seed=seed)
    if kind == "zipf":
        return pat.zipf(footprint, skew=desc.get("skew", 1.2), seed=seed)
    if kind == "working_set":
        return pat.working_set_phases(
            footprint,
            ws_fraction=desc.get("ws_fraction", 0.25),
            phase_length=desc.get("phase_length", 10_000),
            locality=desc.get("locality", 0.9),
            seed=seed,
        )
    if kind == "pointer_chase":
        return pat.pointer_chase(
            footprint, seed=seed, jump_every=desc.get("jump_every", 0)
        )
    raise ValueError(f"unknown pattern kind: {kind!r}")


@dataclass(frozen=True)
class WorkloadSpec:
    """Statistical description of one workload proxy."""

    name: str
    suite: str  # "parsec" | "specomp" | "spec2006" | "mix"
    multithreaded: bool
    mem_ratio: float  # memory accesses per instruction, in (0, 1]
    write_frac: float
    patterns: tuple = field(default_factory=tuple)  # ((weight, desc), ...)
    sharing_frac: float = 0.0
    #: short human description of what the proxy models
    note: str = ""

    def __post_init__(self):
        if not 0.0 < self.mem_ratio <= 1.0:
            raise ValueError(f"{self.name}: mem_ratio must be in (0,1]")
        if not 0.0 <= self.write_frac <= 1.0:
            raise ValueError(f"{self.name}: write_frac must be in [0,1]")
        if not 0.0 <= self.sharing_frac <= 1.0:
            raise ValueError(f"{self.name}: sharing_frac must be in [0,1]")
        if not self.patterns:
            raise ValueError(f"{self.name}: needs at least one pattern")
        if self.sharing_frac > 0 and not self.multithreaded:
            raise ValueError(f"{self.name}: sharing requires multithreaded")

    # -- synthesis -----------------------------------------------------------
    def _pattern_footprint(
        self, desc: dict, l2_blocks: int, num_cores: int, shared: bool
    ) -> int:
        """Blocks covered by one pattern instance.

        ``footprint_mult`` is relative to the whole L2 and describes the
        *aggregate* footprint: private per-core regions get a 1/num_cores
        share (the paper's multiprogrammed runs divide the 8 MB L2 among
        32 copies); a multithreaded workload's shared region is one
        region, so it keeps the full size.
        """
        if "footprint_abs" in desc:
            return max(1, int(desc["footprint_abs"]))
        mult = desc.get("footprint_mult", 1.0)
        blocks = l2_blocks * mult
        if not shared:
            blocks /= num_cores
        return max(16, int(blocks))

    def core_stream(
        self,
        core_id: int,
        l2_blocks: int,
        seed: int = 0,
        num_cores: int = 32,
    ) -> Iterator[CoreAccess]:
        """Infinite access stream for one core: :meth:`core_blocks`
        read one :class:`CoreAccess` at a time."""
        blocks = self.core_blocks(core_id, l2_blocks, seed, num_cores)
        # tuple.__new__ is CoreAccess._make minus its length check
        new_access = partial(tuple.__new__, CoreAccess)
        return map(new_access, chain.from_iterable(starmap(zip, blocks)))

    def core_blocks(
        self, core_id: int, l2_blocks: int, seed: int = 0, num_cores: int = 32
    ) -> Iterator[tuple[list[int], list[int], list[bool]]]:
        """One core's accesses, ``BLOCK`` at a time, as parallel lists
        ``(gaps, addresses, writes)``.

        Multithreaded workloads share the region above
        ``SHARED_ADDRESS_BASE`` (``sharing_frac`` of accesses land
        there); everything else is private to the core.
        """
        # zlib.crc32 rather than hash(): str hashing is salted per
        # process, and traces must be bit-identical across runs.
        name_digest = zlib.crc32(self.name.encode("utf-8"))
        rng = random.Random(name_digest * 31 + seed * 7 + core_id)
        private_base = core_id * CORE_ADDRESS_STRIDE
        mix_parts = []
        shared_parts = []
        for weight, desc in self.patterns:
            fp = self._pattern_footprint(desc, l2_blocks, num_cores, shared=False)
            mix_parts.append(
                (weight, _build_pattern(desc, fp, seed=rng.randrange(1 << 30)))
            )
            if self.multithreaded and self.sharing_frac > 0:
                shared_fp = self._pattern_footprint(
                    desc, l2_blocks, num_cores, shared=True
                )
                shared_parts.append(
                    (weight, _build_pattern(desc, shared_fp, seed=rng.randrange(1 << 30)))
                )
        private = pat.mixed(mix_parts, seed=rng.randrange(1 << 30))
        shared = (
            pat.mixed(shared_parts, seed=rng.randrange(1 << 30))
            if shared_parts
            else None
        )
        # Geometric gaps: each instruction is a memory access with
        # probability mem_ratio, so E[gap] = 1/mem_ratio - 1 exactly.
        has_gap = self.mem_ratio < 1.0
        log_q = math.log(1.0 - self.mem_ratio) if has_gap else 1.0
        # Draw-order contract (repro.workloads.patterns): per access one
        # draw for the gap (none at mem_ratio 1), one for is_write, one
        # for shared-vs-private iff there is a shared region. All are
        # rng.random(), so a block's draws are one list dealt by stride.
        # floor is int() on these non-negative floats, and cheaper.
        draws = has_gap + 1 + (shared is not None)
        log, floor, rand = math.log, math.floor, rng.random
        write_frac, sharing_frac = self.write_frac, self.sharing_frac
        next_private = private.__next__
        next_shared = shared.__next__ if shared is not None else None
        no_gaps = [0] * pat.BLOCK
        while True:
            u = list(starmap(rand, repeat((), draws * pat.BLOCK)))
            gaps = [floor(log(1.0 - x) / log_q) for x in u[::draws]] if has_gap else no_gaps
            writes = [x < write_frac for x in u[has_gap::draws]]
            if next_shared is None:
                addresses = [private_base + a for a in private.take(pat.BLOCK)]
            else:
                addresses = [
                    SHARED_ADDRESS_BASE + next_shared()
                    if x < sharing_frac
                    else private_base + next_private()
                    for x in u[draws - 1 :: draws]
                ]
            yield gaps, addresses, writes

    def describe(self) -> str:
        """One-line report string."""
        kinds = ",".join(d["kind"] for _, d in self.patterns)
        return (
            f"{self.name:16s} [{self.suite:8s}] mem={self.mem_ratio:.2f} "
            f"wr={self.write_frac:.2f} share={self.sharing_frac:.2f} ({kinds})"
        )
