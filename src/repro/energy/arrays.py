"""CACTI-like analytical model of a cache bank's tag and data arrays.

Geometry: ``capacity_bytes`` of data in 64-byte lines, ``ways`` ways.
Tag and data arrays are modelled separately (the paper designs them
separately with a full design-space exploration; we use closed forms).

Energy model (per access, nanojoules):

- reading one way's tag costs ``E_TAG_READ`` (tags are narrow);
- reading one way's data line costs a wire/decode term growing with
  sqrt(capacity) plus a readout term for the 512-bit line;
- a *serial* hit reads W tags + 1 data way;
- a *parallel* hit reads W tags and speculatively activates all W data
  ways' wordlines, of which one propagates: data energy is multiplied by
  ``1 + PARALLEL_WAY_FACTOR * (W - 1)``;
- writes cost ``WRITE_FACTOR`` x the corresponding read.

Latency model (cycles at 2 GHz, 32 nm): the tag path grows with
``log2(W)`` (wider port, deeper comparator mux); serial lookups add the
full data-array latency after the tag resolves, parallel lookups overlap
the two and pay only a way-select margin.

The coefficients are calibrated so the published Table II ratios hold
exactly at 8 MB (see module docstring of :mod:`repro.energy`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LINE_BYTES = 64
#: stored tag width (full block address for hashed/skewed indexing,
#: plus coherence state and an 8-bit bucketed-LRU timestamp)
TAG_BITS = 58

# -- calibrated coefficients (32 nm, 2 GHz) ---------------------------------
#: energy to read one way's tag, nJ, for a 1 MB bank (scales with sqrt cap)
E_TAG_READ_1MB = 0.010
#: energy to read one data line from a 1 MB bank, nJ
E_DATA_READ_1MB = 0.240
#: extra data-array energy per additional way activated in parallel mode
PARALLEL_WAY_FACTOR = 0.072
#: write energy relative to read energy
WRITE_FACTOR = 1.2
#: data-array latency for a 1 MB bank, cycles
T_DATA_1MB = 5.0
#: tag-path latency: T = T_TAG_BASE + T_TAG_PER_LOG2WAY * log2(W)
T_TAG_BASE = 5.0 / 3.0
T_TAG_PER_LOG2WAY = 2.0 / 3.0
#: parallel lookup way-select margin, cycles
T_WAYSEL = -1.0 / 3.0  # net of tag/data overlap; fitted, see tests
#: area: data cells + overhead, mm^2 per MB
AREA_DATA_PER_MB = 3.2
#: tag area port/comparator growth per way
AREA_TAG_WAY_FACTOR = 0.08
#: static power, W per MB (low-leakage process for the L2)
LEAKAGE_W_PER_MB = 0.06


@dataclass(frozen=True)
class CacheGeometry:
    """Physical shape of one cache bank."""

    capacity_bytes: int
    ways: int
    line_bytes: int = LINE_BYTES

    def __post_init__(self):
        if self.capacity_bytes < self.line_bytes:
            raise ValueError("capacity smaller than one line")
        if self.ways < 1:
            raise ValueError(f"ways must be >= 1, got {self.ways}")
        if self.blocks % self.ways:
            raise ValueError("capacity must divide evenly into ways")

    @property
    def blocks(self) -> int:
        return self.capacity_bytes // self.line_bytes

    @property
    def lines_per_way(self) -> int:
        return self.blocks // self.ways

    @property
    def capacity_mb(self) -> float:
        return self.capacity_bytes / (1 << 20)


@dataclass(frozen=True)
class ArrayEnergy:
    """Per-event energies for one bank, nanojoules."""

    tag_read: float
    tag_write: float
    data_read: float
    data_write: float

    @property
    def relocation(self) -> float:
        """One relocation reads and rewrites a block's tag and data."""
        return self.tag_read + self.tag_write + self.data_read + self.data_write


class ArrayModel:
    """Timing/area/energy for one cache bank.

    Parameters
    ----------
    geometry:
        Bank shape.
    parallel_lookup:
        Parallel (overlapped tag+data) vs. serial lookup.
    """

    def __init__(self, geometry: CacheGeometry, parallel_lookup: bool = False) -> None:
        self.geometry = geometry
        self.parallel_lookup = parallel_lookup
        # Wire/decode energy grows with the square root of capacity
        # (H-tree depth); normalise to the 1 MB calibration point.
        scale = math.sqrt(geometry.capacity_mb)
        self._e_tag_read = E_TAG_READ_1MB * scale
        self._e_data_read = E_DATA_READ_1MB * scale
        self._t_data = T_DATA_1MB * max(1.0, math.sqrt(geometry.capacity_mb))

    # -- energies -------------------------------------------------------------
    def energies(self) -> ArrayEnergy:
        """Per-event array energies (E_rt, E_wt, E_rd, E_wd of §III-B)."""
        return ArrayEnergy(
            tag_read=self._e_tag_read,
            tag_write=self._e_tag_read * WRITE_FACTOR,
            data_read=self._e_data_read,
            data_write=self._e_data_read * WRITE_FACTOR,
        )

    def hit_energy(self) -> float:
        """Energy of one hit, nJ."""
        w = self.geometry.ways
        e = self.energies()
        tag = w * e.tag_read
        if self.parallel_lookup:
            data = e.data_read * (1.0 + PARALLEL_WAY_FACTOR * (w - 1))
        else:
            data = e.data_read
        return tag + data

    # -- latency ----------------------------------------------------------------
    def tag_latency(self) -> float:
        """Tag-path latency in cycles (grows with log2 of the ways)."""
        return T_TAG_BASE + T_TAG_PER_LOG2WAY * math.log2(self.geometry.ways)

    def hit_latency(self) -> float:
        """Bank hit latency in cycles (fractional; round for Table II)."""
        if self.parallel_lookup:
            # Tag and data overlap; only the way-select margin and the
            # tag path's way-dependent growth remain exposed. Fitted so
            # a 1 MB 4-way parallel bank lands on 6 cycles (Table I).
            return (
                self._t_data
                + T_WAYSEL
                + T_TAG_PER_LOG2WAY * math.log2(self.geometry.ways)
            )
        return self.tag_latency() + self._t_data

    def hit_latency_cycles(self) -> int:
        """Hit latency rounded to whole cycles (Table II form)."""
        return max(1, round(self.hit_latency()))

    # -- area ----------------------------------------------------------------------
    def area_mm2(self) -> float:
        """Bank area: data cells plus way-dependent tag overhead."""
        data = AREA_DATA_PER_MB * self.geometry.capacity_mb
        tag_bits = self.geometry.blocks * TAG_BITS
        data_bits = self.geometry.capacity_bytes * 8
        tag = data * (tag_bits / data_bits) * (
            1.0 + AREA_TAG_WAY_FACTOR * self.geometry.ways
        )
        return data + tag

    def leakage_watts(self) -> float:
        """Static power of the bank (low-leakage L2 process)."""
        return LEAKAGE_W_PER_MB * self.geometry.capacity_mb
