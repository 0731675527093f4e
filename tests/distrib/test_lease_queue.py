"""The lease state machine: grants, renewal, reclaim, poison, fencing.

Deterministic edge tests run on an in-memory and an on-disk store with a hand-advanced
clock; the Hypothesis block drives one chunk through random operation
sequences and checks the machine's invariants against a tiny model.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distrib.queue import LeaseQueue
from repro.explorer.worker import ScheduleRecord
from repro.persist import SqliteStore, StaleLeaseError

from .conftest import FakeClock

CAMPAIGN = "lease-test"


def _records(chunk: int):
    return (ScheduleRecord((1, 2), f"w1[x{chunk}] c1 c2", True, (),
                           (1, 2), (), 0, 0, False),)


def _queue(store, clock, **kwargs):
    store.open_campaign(CAMPAIGN, {"spec_name": "t"})
    kwargs.setdefault("lease_duration", 1.0)
    kwargs.setdefault("backoff_base", 0.1)
    queue = LeaseQueue(store, CAMPAIGN, clock=clock, **kwargs)
    return queue


def test_grants_stream_order_and_commits_contiguously(store, clock):
    queue = _queue(store, clock)
    queue.register_scope("S", 3)
    first = queue.acquire("w0")
    second = queue.acquire("w1")
    assert (first.chunk_index, second.chunk_index) == (0, 1)
    assert second.token > first.token

    # Out-of-order completion buffers until the cursor catches up.
    assert queue.complete("S", 1, second.token, _records(1))
    assert store.scope_progress(CAMPAIGN).get("S") is None  # nothing flushed yet
    assert queue.complete("S", 0, first.token, _records(0))
    assert store.scope_progress(CAMPAIGN)["S"].cursor == 2
    third = queue.acquire("w0")
    assert queue.complete("S", 2, third.token, _records(2))
    assert queue.all_committed()
    assert not queue.has_open_work()


def test_renew_extends_but_expired_lease_cannot_renew(store, clock):
    queue = _queue(store, clock)
    queue.register_scope("S", 1)
    lease = queue.acquire("w0")
    clock.advance(0.9)
    assert queue.renew("S", 0, lease.token)      # still live: extended
    clock.advance(0.9)
    assert queue.renew("S", 0, lease.token)      # extension took effect
    clock.advance(1.1)
    # Deadline passed: renewal must fail even though nobody reclaimed yet.
    assert not queue.renew("S", 0, lease.token)
    assert queue.stats["renew_rejected"] == 1
    # ... and the worker must treat that as lease loss: completion fences.
    reclaimed = queue.reclaim_expired()
    assert [r.chunk_index for r in reclaimed] == [0]
    assert not queue.complete("S", 0, lease.token, _records(0))


def test_double_release_returns_false_once(store, clock):
    queue = _queue(store, clock)
    queue.register_scope("S", 2)
    lease = queue.acquire("w0")
    assert queue.release("S", 0, lease.token)
    assert not queue.release("S", 0, lease.token)    # idempotent: second is a no-op
    assert queue.stats["leases_released"] == 1
    # A released chunk re-grants immediately with no attempt penalty.
    again = queue.acquire("w1")
    assert again.chunk_index == 0 and again.attempts == 0
    assert again.token > lease.token


def test_reclaim_race_two_workers_old_token_fenced(store, clock):
    queue = _queue(store, clock)
    queue.register_scope("S", 1)
    stale = queue.acquire("w0")
    clock.advance(1.5)                               # w0 goes silent past deadline
    [reclaimed] = queue.reclaim_expired()
    assert not reclaimed.poisoned and reclaimed.token == stale.token
    # force_expire is the same race from the death-detection side: the
    # lease is no longer held, so the second reclaim must be a no-op.
    assert queue.force_expire("S", 0, stale.token) is None

    clock.advance(1.0)                               # past the retry backoff
    fresh = queue.acquire("w1")
    assert fresh.token > stale.token and fresh.attempts == 1
    # The zombie's result loses; the live worker's wins.
    assert not queue.complete("S", 0, stale.token, _records(0))
    assert queue.complete("S", 0, fresh.token, _records(0))
    assert queue.stats["fenced_results"] == 1
    # And the store itself refuses the stale token outright.
    with pytest.raises(StaleLeaseError):
        store.commit_chunk(CAMPAIGN, "S", 1, _records(1),
                           lease_token=stale.token)


def test_backoff_gates_regrant_until_clock_advances(store, clock):
    queue = _queue(store, clock, backoff_base=0.5)
    queue.register_scope("S", 1)
    queue.acquire("w0")
    clock.advance(1.5)
    queue.reclaim_expired()
    assert queue.acquire("w1") is None               # backoff gate still closed
    # No backoff exceeds the cap times the largest jitter factor.
    clock.advance(queue.backoff_cap * 1.5 + 0.01)
    assert queue.acquire("w1") is not None


def test_owners_keep_their_scope_then_share_the_last_one(store, clock):
    """Two owners holding two leases each over three scopes: each stays on
    the scope it started, the first one free takes the scope nobody holds,
    the other then takes work from it, and every scope commits in order."""
    queue = _queue(store, clock)
    for scope in ("A", "B", "C"):
        queue.register_scope(scope, 4)
    held = {"w0": [], "w1": []}
    grants = {"w0": [], "w1": []}
    deepest = 0
    while True:
        for owner in ("w0", "w1"):
            while len(held[owner]) < 2:
                lease = queue.acquire(owner)
                if lease is None:
                    break
                held[owner].append(lease)
                grants[owner].append((lease.scope, lease.chunk_index))
        if not held["w0"] and not held["w1"]:
            break
        # w1 finishes first, so on the shared scope its later chunk
        # completes before w0's earlier one and has to wait in the buffer.
        for owner in ("w1", "w0"):
            if held[owner]:
                lease = held[owner].pop(0)
                assert queue.complete(lease.scope, lease.chunk_index,
                                      lease.token, _records(lease.chunk_index))
                deepest = max(deepest, *map(len, queue._buffers.values()))
    assert grants["w0"][:5] == [("A", 0), ("A", 1), ("A", 2), ("A", 3), ("C", 0)]
    assert grants["w1"][:5] == [("B", 0), ("B", 1), ("B", 2), ("B", 3), ("C", 1)]
    assert sorted(grants["w0"][4:] + grants["w1"][4:]) == [("C", c) for c in range(4)]
    assert 0 < deepest <= 2 * len(held)
    assert queue.all_committed()
    for scope in ("A", "B", "C"):
        assert [record.history for record in store.iter_records(CAMPAIGN, scope)] \
            == [_records(chunk)[0].history for chunk in range(4)]


def test_poisoned_chunk_quarantine_and_drain(store, clock):
    queue = _queue(store, clock, max_attempts=2, backoff_base=0.01)
    queue.register_scope("S", 2)
    for _ in range(2):                               # burn the attempt budget
        lease = queue.acquire("w0")
        assert lease.chunk_index == 0
        clock.advance(1.5)
        queue.reclaim_expired()
        clock.advance(1.0)
    [poisoned] = queue.poisoned()
    assert (poisoned.chunk_index, poisoned.attempts) == (0, 2)
    # Quarantined: the queue serves chunk 1 and then refuses chunk 0.
    assert queue.acquire("w0").chunk_index == 1
    assert queue.acquire("w1") is None
    assert queue.has_open_work()                     # chunk 1 is in flight
    # Draining without requeue only reports; requeue resets the budget.
    assert queue.drain_poisoned() == (poisoned,)
    assert queue.acquire("w1") is None
    queue.drain_poisoned(requeue=True)
    retry = queue.acquire("w1")
    assert (retry.chunk_index, retry.attempts) == (0, 0)
    assert queue.stats["chunks_requeued"] == 1


def test_crashed_run_restarts_with_attempts_and_stale_tokens(store, clock):
    queue = _queue(store, clock, max_attempts=3)
    queue.register_scope("S", 2)
    held = queue.acquire("w0")                       # crash while leased
    clock.advance(2.0)
    queue.reclaim_expired()
    clock.advance(1.0)
    held = queue.acquire("w0")                       # second incarnation, leased
    assert held.attempts == 1

    restarted = LeaseQueue(store, CAMPAIGN, clock=clock, lease_duration=1.0)
    restarted.register_scope("S", 2)
    lease = restarted.acquire("w1")
    # The crashed run's leased row reloads as pending with its attempt
    # count, and the new grant's token strictly dominates every old one.
    assert lease.chunk_index == 0
    assert lease.attempts == 1
    assert lease.token > held.token
    assert not restarted.complete("S", 0, held.token, _records(0))
    assert restarted.complete("S", 0, lease.token, _records(0))


def test_poison_survives_restart(store, clock):
    queue = _queue(store, clock, max_attempts=1)
    queue.register_scope("S", 1)
    queue.acquire("w0")
    clock.advance(2.0)
    [reclaimed] = queue.reclaim_expired()
    assert reclaimed.poisoned

    restarted = LeaseQueue(store, CAMPAIGN, clock=clock)
    restarted.register_scope("S", 1)
    assert restarted.acquire("w0") is None
    assert [p.chunk_index for p in restarted.poisoned()] == [0]


# -- property: random operation sequences keep the machine honest ---------------------

_OPS = st.lists(
    st.sampled_from(["acquire", "acquire2", "renew", "release", "expire",
                     "reclaim", "complete", "complete_stale", "tick"]),
    min_size=1, max_size=40)


@given(ops=_OPS, max_attempts=st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_single_chunk_invariants_under_random_ops(ops, max_attempts):
    store = SqliteStore(":memory:")
    clock = FakeClock()
    store.open_campaign(CAMPAIGN, {"spec_name": "t"})
    queue = LeaseQueue(store, CAMPAIGN, clock=clock, lease_duration=1.0,
                       backoff_base=0.1, max_attempts=max_attempts)
    queue.register_scope("S", 1)

    granted_tokens = []
    stale_tokens = set()
    committed = 0
    for op in ops:
        current = granted_tokens[-1] if granted_tokens else 0
        if op in ("acquire", "acquire2"):
            lease = queue.acquire("wA" if op == "acquire" else "wB")
            if lease is not None:
                assert lease.token > current, "tokens must be monotonic"
                granted_tokens.append(lease.token)
        elif op == "renew":
            queue.renew("S", 0, current)
        elif op == "release":
            if queue.release("S", 0, current):
                stale_tokens.add(current)
        elif op == "expire":
            clock.advance(1.6)
        elif op == "reclaim":
            for reclaimed in queue.reclaim_expired():
                stale_tokens.add(reclaimed.token)
        elif op == "complete":
            if queue.complete("S", 0, current, _records(0)):
                committed += 1
                assert current not in stale_tokens, \
                    "a reclaimed/released token must never commit"
        elif op == "complete_stale":
            for token in list(stale_tokens):
                assert not queue.complete("S", 0, token, _records(0))
        elif op == "tick":
            clock.advance(0.3)

        unit_attempts = queue._units[("S", 0)].attempts
        assert unit_attempts <= max_attempts
        if queue.poisoned():
            assert unit_attempts == max_attempts
            assert queue.acquire("wC") is None, "poisoned chunks never grant"

    assert committed <= 1, "one chunk commits at most once"
    progress = store.scope_progress(CAMPAIGN).get("S")
    assert committed == (progress.cursor if progress is not None else 0)
