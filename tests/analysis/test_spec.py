"""Registry-level tests for the ZSpec invariant layer.

``test_sanitizer.py`` plants concrete corruptions and checks the
runtime driver end-to-end; this file pins the *registry itself* — the
taxonomy every backend (sanitizer, model checker, lockset) consumes
— and the parity between a raised ``InvariantViolation`` and the
registry entry that produced it.
"""

import pytest

from repro.analysis.sanitizer import InvariantViolation, SanitizedArray
from repro.analysis.sanitizer import VIOLATION_KINDS as SAN_KINDS
from repro.analysis.spec import (
    INVARIANT_REGISTRY,
    SCOPE_COMMIT,
    SCOPE_EVICT,
    SCOPE_PHASE,
    SCOPE_STATE,
    SCOPE_THREAD,
    SCOPE_WALK,
    SCOPES,
    VIOLATION_KINDS,
    StateCheck,
    default_invariants,
    invariants_for,
    register_invariant,
)
from repro.core.zcache import ZCacheArray


# ---------------------------------------------------------------------------
# Taxonomy: kinds, scopes, and coverage.


def test_every_invariant_uses_known_kind_and_scope():
    for inv in INVARIANT_REGISTRY.values():
        assert inv.kind in VIOLATION_KINDS, inv.name
        assert inv.scope in SCOPES, inv.name


def test_every_violation_kind_has_an_invariant():
    covered = {inv.kind for inv in INVARIANT_REGISTRY.values()}
    assert covered == set(VIOLATION_KINDS)


def test_every_scope_has_an_invariant():
    covered = {inv.scope for inv in INVARIANT_REGISTRY.values()}
    assert covered == set(SCOPES)


def test_registry_keys_match_invariant_names():
    for name, inv in INVARIANT_REGISTRY.items():
        assert name == inv.name
        assert inv.description


def test_sanitizer_reexports_the_same_kind_tuple():
    assert SAN_KINDS is VIOLATION_KINDS


def test_default_invariants_preserves_definition_order():
    assert default_invariants() == tuple(INVARIANT_REGISTRY.values())
    # The runtime driver's historical precedence: walk checks were
    # defined first; the thread-scope lockset contract is newest.
    scopes = [inv.scope for inv in default_invariants()]
    assert scopes[0] == SCOPE_WALK
    assert scopes[-1] == SCOPE_THREAD


def test_invariants_for_filters_by_scope():
    all_named = set(INVARIANT_REGISTRY)
    picked = set()
    for scope in SCOPES:
        subset = invariants_for(scope)
        assert subset, scope  # every scope is non-empty
        assert all(inv.scope == scope for inv in subset)
        picked.update(inv.name for inv in subset)
    assert picked == all_named


def test_invariants_for_rejects_unknown_scope():
    with pytest.raises(ValueError, match="unknown invariant scope"):
        invariants_for("nonsense")


# ---------------------------------------------------------------------------
# Registration guards.


def test_register_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown violation kind"):
        register_invariant("bad", "no-such-kind", SCOPE_STATE, "x")
    assert "bad" not in INVARIANT_REGISTRY


def test_register_rejects_unknown_scope():
    with pytest.raises(ValueError, match="unknown invariant scope"):
        register_invariant("bad", "map-desync", "no-such-scope", "x")
    assert "bad" not in INVARIANT_REGISTRY


def test_register_rejects_duplicate_name():
    deco = register_invariant(
        "state-tag-unique", "duplicate-tag", SCOPE_STATE, "clash"
    )
    with pytest.raises(ValueError, match="duplicate invariant name"):
        deco(lambda ctx: None)


# ---------------------------------------------------------------------------
# Spec <-> sanitizer parity: a violation raised by the runtime driver
# must name a registered invariant whose kind matches the exception's.


def _corrupted_sanitized_array():
    array = ZCacheArray(2, 4, levels=2, hash_kind="h3", hash_seed=3)
    wrapped = SanitizedArray(array, deep_check_interval=0)
    for addr in (0x10, 0x20, 0x30):
        repl = array.build_replacement(addr)
        array.commit_replacement(repl, 0)
    # Desynchronize the map: point one resident block somewhere else.
    addr = next(iter(array._pos))
    pos = array._pos[addr]
    array._pos[addr] = type(pos)(pos.way, (pos.index + 1) % 4)
    return wrapped


def test_violation_names_registered_invariant_with_matching_kind():
    wrapped = _corrupted_sanitized_array()
    with pytest.raises(InvariantViolation) as exc:
        wrapped.final_check()
    violation = exc.value
    assert violation.invariant in INVARIANT_REGISTRY
    registered = INVARIANT_REGISTRY[violation.invariant]
    assert violation.kind == registered.kind
    assert registered.scope == SCOPE_STATE


def test_direct_registry_check_agrees_with_sanitizer():
    # Evaluating the named invariant's predicate directly on the bare
    # array reproduces the same detail string the sanitizer raised.
    wrapped = _corrupted_sanitized_array()
    with pytest.raises(InvariantViolation) as exc:
        wrapped.final_check()
    inv = INVARIANT_REGISTRY[exc.value.invariant]
    assert inv.check(StateCheck(wrapped.array)) == exc.value.detail


def test_clean_array_passes_every_state_invariant():
    array = ZCacheArray(2, 4, levels=2, hash_kind="h3", hash_seed=3)
    for addr in (0x10, 0x20, 0x30):
        repl = array.build_replacement(addr)
        array.commit_replacement(repl, 0)
    ctx = StateCheck(array)
    for inv in invariants_for(SCOPE_STATE):
        assert inv.check(ctx) is None, inv.name


def test_commit_and_evict_scopes_are_driver_only():
    # The model checker consumes only state-scope invariants between
    # transitions; commit/evict/walk/phase scopes need per-operation
    # context only the runtime driver can build, and the thread scope
    # is evaluated by the dynamic lockset backend. Pin the split so a
    # future scope addition makes an explicit decision here.
    driver_only = {
        SCOPE_WALK,
        SCOPE_COMMIT,
        SCOPE_EVICT,
        SCOPE_PHASE,
        SCOPE_THREAD,
    }
    assert driver_only | {SCOPE_STATE} == set(SCOPES)
