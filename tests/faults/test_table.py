"""The fault table: every (design, fault kind) verdict, pinned.

One item per row. Each row runs six cases — triggers at 500, 1000 and
1700 of a 2000-access replay, two location variants — and asserts the
multiset of (classification, detector) and the mean |ΔMPKI| over the
row's silent outcomes, to 4 places. A row's literal is the whole
contract: a new detector that catches ``stamp-corrupt`` flips its rows
by editing one line each, and a new fault kind is one row per design.

The seeds are the ones the table was first recorded with: splitmix64
of a crc32 of the case identity, salted with base seed 1.
"""

import zlib
from collections import Counter

import pytest

from repro.faults import FaultCase, run_case
from repro.hashing.mixers import splitmix64

TRIGGERS = (500, 1000, 1700)
VARIANTS = (0, 1)

#: (design, kind) -> ({(classification, detector): count}, mean |ΔMPKI|)
TABLE = {
    ("SA-4", "drop-relocation"): ({("benign", None): 6}, 0.0),
    ("SA-4", "misdirect-relocation"): ({("benign", None): 6}, 0.0),
    ("SA-4", "stale-walk"): ({("detected", "walk-records-current"): 6}, 0.0),
    ("SA-4", "stamp-corrupt"): ({("benign", None): 3, ("silent-wrong-victim", None): 3}, 0.5),
    ("SA-4", "tag-flip"): ({("detected", "state-map-line-sync"): 5, ("detected", "state-tag-unique"): 1}, 0.0),
    ("SK-4", "drop-relocation"): ({("benign", None): 6}, 0.0),
    ("SK-4", "misdirect-relocation"): ({("benign", None): 6}, 0.0),
    ("SK-4", "stale-walk"): ({("detected", "walk-records-current"): 6}, 0.0),
    ("SK-4", "stamp-corrupt"): ({("benign", None): 3, ("silent-wrong-victim", None): 3}, 0.5),
    ("SK-4", "tag-flip"): ({("detected", "state-map-line-sync"): 2, ("detected", "state-tag-unique"): 2, ("crash", "crash:KeyError"): 2}, 0.0),
    ("Z4/16", "drop-eviction-log"): ({("detected", "shard-consistency"): 6}, 0.0),
    ("Z4/16", "drop-relocation"): ({("detected", "commit-conservation"): 6}, 0.0),
    ("Z4/16", "misdirect-relocation"): ({("detected", "commit-path-placement"): 6}, 0.0),
    ("Z4/16", "stale-walk"): ({("detected", "walk-records-current"): 6}, 0.0),
    ("Z4/16", "stamp-corrupt"): ({("silent-wrong-victim", None): 6}, 1.8333),
    ("Z4/16", "tag-flip"): ({("detected", "state-map-line-sync"): 2, ("detected", "state-tag-unique"): 2, ("crash", "crash:KeyError"): 2}, 0.0),
    ("Z4/52", "drop-eviction-log"): ({("detected", "shard-consistency"): 6}, 0.0),
    ("Z4/52", "drop-relocation"): ({("detected", "commit-conservation"): 6}, 0.0),
    ("Z4/52", "misdirect-relocation"): ({("detected", "commit-path-placement"): 6}, 0.0),
    ("Z4/52", "stale-walk"): ({("detected", "walk-records-current"): 6}, 0.0),
    ("Z4/52", "stamp-corrupt"): ({("benign", None): 1, ("silent-wrong-victim", None): 5}, 2.0),
    ("Z4/52", "tag-flip"): ({("detected", "state-map-line-sync"): 1, ("detected", "state-tag-unique"): 2, ("crash", "crash:KeyError"): 3}, 0.0),
}


def case_seed(design, kind, at, variant):
    """The recorded seed of one case."""
    identity = f"{design}|{kind}|at{at}|v{variant}".encode()
    return splitmix64((1 << 32) | zlib.crc32(identity)) & 0xFFFFFFFF


@pytest.mark.parametrize(("design", "kind"), list(TABLE))
def test_row(design, kind):
    outcomes = [
        run_case(
            FaultCase(
                design,
                kind,
                at,
                case_seed(design, kind, at, v),
                way=v,
                index=3 * v + 1,
                bit=2 * v + 1,
            )
        )
        for at in TRIGGERS
        for v in VARIANTS
    ]
    verdicts = Counter((o.classification, o.detector) for o in outcomes)
    silent = [
        abs(o.mpki_delta)
        for o in outcomes
        if o.classification.startswith("silent")
    ]
    drift = round(sum(silent) / len(silent), 4) if silent else 0.0
    assert (dict(verdicts), drift) == TABLE[(design, kind)]
