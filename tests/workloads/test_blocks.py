"""Block-form streams across block boundaries.

Every pattern and every core stream is drawn a ``BLOCK`` at a time. The
crc32 digests below were taken from the per-access generators (one
``yield`` per address) that the block form replaced, over a prefix that
crosses more than three block boundaries; ``stream_digests.json`` pins
only 300 accesses. Each stream is also read through its block form in
ragged pieces, and the CMP front end's read of a core (plain tuples
over ``core_blocks``) must equal the public ``core_stream``.
"""

import itertools
import zlib

import pytest

from repro.workloads import get_workload, patterns
from repro.workloads.patterns import BLOCK
from repro.workloads.spec import WorkloadSpec

PREFIX = 600

#: block-form reads of uneven sizes, some zero, some a block or more
RAGGED = (1, 0, 7, BLOCK - 1, BLOCK, BLOCK + 1, 3, 2 * BLOCK)

PRIMITIVES = {
    "sequential_scan": lambda: patterns.sequential_scan(1000, start=7),
    "strided": lambda: patterns.strided(1000, stride=64, start=7),
    "uniform_random": lambda: patterns.uniform_random(1000, seed=1),
    "zipf": lambda: patterns.zipf(1000, skew=1.2, seed=1),
    # phases shorter than a block, so phase and block edges cross
    "working_set_phases": lambda: patterns.working_set_phases(
        1000, ws_fraction=0.1, phase_length=64, locality=0.8, seed=1
    ),
    "pointer_chase": lambda: patterns.pointer_chase(1000, seed=1, jump_every=50),
    "mixed": lambda: patterns.mixed(
        [
            (0.5, patterns.zipf(1000, skew=1.2, seed=2)),
            (0.3, patterns.uniform_random(1000, seed=3)),
            (0.2, patterns.sequential_scan(1000)),
        ],
        seed=4,
    ),
}

_NO_GAP_PATTERNS = (
    (0.7, {"kind": "zipf", "footprint_abs": 1000}),
    (0.3, {"kind": "sequential", "footprint_abs": 500}),
)

#: mem_ratio 1.0 draws no gap (no roster proxy has it): once with a
#: shared region (two draws per access), once without (one)
NO_GAPS = WorkloadSpec(
    name="no_gaps", suite="mix", multithreaded=True, mem_ratio=1.0,
    write_frac=0.3, patterns=_NO_GAP_PATTERNS, sharing_frac=0.2,
)
NO_GAPS_PRIVATE = WorkloadSpec(
    name="no_gaps_private", suite="spec2006", multithreaded=False,
    mem_ratio=1.0, write_frac=0.3, patterns=_NO_GAP_PATTERNS,
)

WORKLOADS = {
    "blackscholes": get_workload("blackscholes"),  # shared region
    "gamess": get_workload("gamess"),  # private only
    "no_gaps": NO_GAPS,
    "no_gaps_private": NO_GAPS_PRIVATE,
}

#: crc32 of the first PREFIX items, from the per-access generators
PARENT_DIGESTS = {
    "sequential_scan": 1636489603,
    "strided": 1134547581,
    "uniform_random": 1877916600,
    "zipf": 1149078471,
    "working_set_phases": 4079220823,
    "pointer_chase": 1465577254,
    "mixed": 411121674,
    "blackscholes/0": 4112476323,
    "blackscholes/31": 3128748430,
    "gamess/0": 1821806722,
    "gamess/31": 2355997098,
    "no_gaps/0": 2755341120,
    "no_gaps/31": 1546401012,
    "no_gaps_private/0": 2652968254,
    "no_gaps_private/31": 443447960,
}


def _crc(rows) -> int:
    text = ";".join(",".join(str(int(v)) for v in row) for row in rows)
    return zlib.crc32(text.encode("ascii"))


def _ragged(take) -> list[int]:
    out: list[int] = []
    for k in itertools.cycle(RAGGED):
        if len(out) >= PREFIX:
            return out[:PREFIX]
        block = take(k)
        assert len(block) == k
        out += block


def test_prefix_crosses_three_block_boundaries():
    assert PREFIX > 3 * BLOCK


@pytest.mark.parametrize("kind", sorted(PRIMITIVES))
def test_primitive_block_form_is_the_per_access_stream(kind):
    iterated = list(itertools.islice(PRIMITIVES[kind](), PREFIX))
    assert _crc((a,) for a in iterated) == PARENT_DIGESTS[kind]
    assert _ragged(PRIMITIVES[kind]().take) == iterated


@pytest.mark.parametrize("core", [0, 31])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_core_blocks_are_the_per_access_stream(name, core):
    workload = WORKLOADS[name]
    stream = list(itertools.islice(workload.core_stream(core, 4096, seed=1), PREFIX))
    assert _crc(stream) == PARENT_DIGESTS[f"{name}/{core}"]
    blocks = workload.core_blocks(core, 4096, seed=1)
    # what _FrontEnd.run reads: plain tuples, a block at a time
    front = itertools.chain.from_iterable(itertools.starmap(zip, blocks))
    assert list(itertools.islice(front, PREFIX)) == [tuple(a) for a in stream]
    if workload.mem_ratio == 1.0:
        assert {a.gap for a in stream} == {0}
