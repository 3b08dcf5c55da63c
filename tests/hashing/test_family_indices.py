"""``HashFamily.indices`` against its members, and H3 against its matrix.

The family's one-pass path (byte tables packed across ways, for H3) must
be the per-way functions and nothing else, on every geometry: one line
(zero index bits) to 4096, one way to eight, addresses inside and beyond
the 48 bits the H3 matrix covers.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import H3Hash, HashFamily, MixHash, make_hash_family
from repro.hashing.h3 import ADDRESS_BITS

ADDRESSES = st.one_of(
    st.integers(0, 2**ADDRESS_BITS - 1),
    st.integers(2**ADDRESS_BITS, 2**80),
    st.integers(0, 4096),
)
LINES = st.sampled_from([1, 2, 8, 128, 512, 4096])


def h3_oracle(h: H3Hash, address: int) -> int:
    """Output bit j is the parity of (address AND row j): no table."""
    index = 0
    for bit, row in enumerate(h.matrix()):
        parity = 0
        for position in range(ADDRESS_BITS):
            parity ^= (row >> position) & (address >> position) & 1
        index |= parity << bit
    return index


@given(
    kind=st.sampled_from(["h3", "mix", "bitsel"]),
    ways=st.integers(1, 8),
    lines=LINES,
    seed=st.integers(0, 200),
    addresses=st.lists(ADDRESSES, min_size=1, max_size=20),
)
@settings(max_examples=150, deadline=None)
def test_indices_is_every_member_in_way_order(kind, ways, lines, seed, addresses):
    family = make_hash_family(kind, ways, lines, seed=seed)
    assert len(family) == ways and family.num_lines == lines
    for address in addresses:
        indices = family.indices(address)
        assert indices == tuple(h(address) for h in family)
        assert all(0 <= index < lines for index in indices)


@given(lines=LINES, seed=st.integers(0, 10**6), address=ADDRESSES)
@settings(max_examples=300, deadline=None)
def test_h3_is_its_matrix(lines, seed, address):
    h = H3Hash(lines, seed=seed)
    assert h(address) == h3_oracle(h, address)
    # Bits the matrix does not cover are ignored, not rejected.
    assert h(address) == h(address & (2**ADDRESS_BITS - 1))


@pytest.mark.parametrize("kind", ["h3", "mix", "bitsel"])
def test_indices_rejects_a_negative_address(kind):
    with pytest.raises(ValueError):
        make_hash_family(kind, 4, 64).indices(-1)


def test_family_is_a_sequence_that_survives_pickling():
    family = make_hash_family("h3", 4, 128, seed=97)
    assert isinstance(family, HashFamily) and isinstance(family, tuple)
    assert [h.seed for h in family] == [97 * 1000003 + w for w in range(4)]
    family.indices(1)  # tables exist before the copy and after it
    clone = pickle.loads(pickle.dumps(family))
    assert type(clone) is type(family)
    assert all(clone.indices(a) == family.indices(a) for a in range(0, 10**6, 997))


def test_family_members_must_share_one_index_space():
    with pytest.raises(ValueError, match="num_lines"):
        HashFamily([MixHash(64, seed=1), MixHash(128, seed=2)])
    with pytest.raises(ValueError):
        HashFamily([])
