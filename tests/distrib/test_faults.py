"""Fault injection: spec parsing, the byte-identity matrix, zombie fencing."""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.distrib.faults import (
    FaultPlan,
    FaultSpec,
    run_fault_matrix,
    serial_reference,
)
from repro.distrib.queue import LeaseQueue
from repro.distrib.runner import _worker_main
from repro.explorer import ExploreOptions
from repro.explorer.schedules import schedule_space
from repro.explorer.worker import ChunkTask, execute_chunk
from repro.persist import SqliteStore, StaleLeaseError
from repro.workloads.program_sets import ProgramSetSpec, resolve_program_set

SPEC = ProgramSetSpec.make("bank-transfer")


# -- fault specs ----------------------------------------------------------------------


def test_fault_spec_parse_round_trips():
    for raw in ("kill:worker=0:ordinal=2",
                "hang:worker=1:ordinal=0:duration=0.8",
                "slow-commit:ordinal=3:duration=0.2",
                "sqlite-lock:ordinal=2:count=2"):
        spec = FaultSpec.parse(raw)
        assert FaultSpec.parse(spec.encode()) == spec


def test_fault_spec_rejects_nonsense():
    with pytest.raises(ValueError):
        FaultSpec.parse("meteor:worker=0")
    with pytest.raises(ValueError):
        FaultSpec.parse("kill:wat=1")
    with pytest.raises(ValueError):
        FaultSpec(kind="kill", count=0)


def test_random_plans_are_pure_functions_of_seed():
    assert FaultPlan.random(5).encode() == FaultPlan.random(5).encode()
    assert FaultPlan.random(5).encode() != FaultPlan.random(6).encode()


# -- the byte-identity matrix ---------------------------------------------------------


def test_fault_matrix_byte_identical_on_both_backends(tmp_path):
    """The acceptance gate in miniature: kills, hangs, slow commits, and
    lock storms on an in-memory and an on-disk store all reproduce the
    serial bytes."""
    plans = [
        FaultPlan(),                                       # control leg
        FaultPlan.parse(["kill:worker=0:ordinal=1",
                         "sqlite-lock:ordinal=2:count=2"]),
        FaultPlan.parse(["hang:worker=1:ordinal=0:duration=0.5",
                         "slow-commit:ordinal=3:duration=0.05"]),
    ]
    legs = run_fault_matrix(
        SPEC, ExploreOptions(max_schedules=120, seed=3, chunk_size=16,
                             workers=2), plans,
        [("memory", lambda index: SqliteStore(":memory:")),
         ("sqlite", lambda index: SqliteStore(tmp_path / f"m{index}.sqlite"))])
    assert len(legs) == 6
    for leg in legs:
        assert leg["success"], leg
        assert leg["byte_equal"], leg
        assert leg["poisoned"] == [], leg
    killed = [leg for leg in legs if any("kill" in f for f in leg["plan"])]
    assert all(leg["respawns"] == 1 for leg in killed)


def test_serial_reference_pins_what_the_runner_honours():
    """The control ignores a store, campaign or worker count the
    distributed side sets, so it neither diverges from it nor writes."""
    plain = ExploreOptions(max_schedules=40, seed=3, chunk_size=16)
    store = SqliteStore(":memory:")
    loaded = plain.replace(store=store, campaign_id="control", workers=2)
    assert serial_reference(SPEC, loaded) == serial_reference(SPEC, plain)
    assert not store.list_campaigns()
    store.close()


def test_unkillable_chunk_is_poisoned_but_campaign_degrades_gracefully(tmp_path):
    """A chunk whose executor dies every single time exhausts its retry
    budget, lands in quarantine, and the rest of the campaign still
    commits — lose any subset, finish correct, merely slower."""
    from repro.distrib.runner import CampaignRunner

    # With zero backoff the reclaimed chunk regrants immediately, so every
    # incarnation's first chunk is the same chunk 0 — killing incarnations
    # 0..2 burns exactly its three-attempt budget.
    plan = FaultPlan(tuple(
        FaultSpec(kind="kill", worker=0, incarnation=incarnation, ordinal=0)
        for incarnation in range(3)))
    store = SqliteStore(tmp_path / "poison.sqlite")

    def runner(**kwargs):
        return CampaignRunner(store, SPEC, max_schedules=120, seed=3,
                              chunk_size=16, workers=1, max_attempts=3,
                              lease_duration=0.4, heartbeat_interval=0.1,
                              backoff_base=0.0, deadline_s=90.0, **kwargs)

    result = runner(faults=plan).run()
    assert not result.success and not result.timed_out
    assert [p.chunk_index for p in result.poisoned] == [0]
    assert result.poisoned[0].attempts == 3
    # Every chunk not quarantined (or blocked behind the quarantine)
    # still committed: 4 of the 5 scopes finished completely.
    assert result.committed_chunks == 32

    # The quarantine is durable: a fresh fault-free run still refuses the
    # chunk, until an operator requeues it — then the campaign completes.
    stuck = runner().run()
    assert not stuck.success and len(stuck.poisoned) == 1
    healed = runner(requeue_poisoned=True).run()
    assert healed.success and healed.poisoned == ()
    _, control_fingerprint = serial_reference(
        SPEC, ExploreOptions(max_schedules=120, seed=3, chunk_size=16))
    from repro.persist import fingerprint_from_store
    assert fingerprint_from_store(store, healed.campaign_id) \
        == control_fingerprint
    store.close()


# -- the zombie choreography ----------------------------------------------------------


def test_zombie_worker_with_expired_lease_can_never_commit(store):
    """The acceptance choreography, step by step: freeze a real worker
    process mid-chunk, reclaim its lease, complete the chunk elsewhere,
    unfreeze — the zombie's late result must be fenced at both layers."""
    campaign = "zombie-test"
    store.open_campaign(campaign, {"spec_name": SPEC.name})
    # backoff_base=0 so the reclaimed chunk regrants immediately.
    queue = LeaseQueue(store, campaign, lease_duration=0.2, backoff_base=0.0)
    builder = resolve_program_set(SPEC)
    _, programs = builder(**SPEC.kwargs())
    space = schedule_space(programs, max_schedules=48, seed=3)
    chunks = dict(space.iter_chunks(16))
    queue.register_scope("SERIALIZABLE", len(chunks))

    from repro.explorer.explorer import DEFAULT_LEVELS
    level = next(l for l in DEFAULT_LEVELS if l.value == "SERIALIZABLE")

    def task_for(chunk_index):
        return ChunkTask(chunk_index, SPEC, level, chunks[chunk_index], builder)

    # Freeze: the worker hangs for 2s before executing its chunk, far past
    # the 0.2s lease, with heartbeats suppressed.
    frozen = FaultPlan.parse(["hang:worker=0:ordinal=0:duration=2.0"])
    parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
    worker = multiprocessing.Process(
        target=_worker_main,
        args=(0, 0, child_conn, 0.05, frozen.worker_specs(0, 0)),
        daemon=True)
    worker.start()
    child_conn.close()

    stale = queue.acquire("w0")
    parent_conn.send(("chunk", task_for(stale.chunk_index), stale.token))

    # Reclaim: the frozen worker misses every heartbeat and the deadline
    # lapses.  (Its one pre-hang beat may be buffered; renewal of a live
    # lease is fine — the deadline still expires during the 2s freeze.)
    assert worker.is_alive()
    reclaimed = queue.force_expire(stale.scope, stale.chunk_index, stale.token)
    assert reclaimed is not None and not reclaimed.poisoned

    # Complete elsewhere: a healthy in-process "worker" wins the regrant.
    fresh = queue.acquire("w1")
    assert fresh.chunk_index == stale.chunk_index
    assert fresh.token > stale.token
    result = execute_chunk(task_for(fresh.chunk_index))
    assert queue.complete(fresh.scope, fresh.chunk_index, fresh.token,
                          result.records)
    committed = store.scope_progress(campaign)["SERIALIZABLE"]
    assert committed.cursor == 1

    # Unfreeze: the zombie finishes its 2s nap, executes, and reports.
    message = parent_conn.recv()                 # blocks until the hang ends
    while message[0] == "hb":
        message = parent_conn.recv()
    kind, _, _, scope, chunk_index, token, records, _ = message
    assert kind == "result" and token == stale.token
    # Layer 1: the queue mirror fences the stale token.
    assert not queue.complete(scope, chunk_index, token, records)
    assert queue.stats["fenced_results"] == 1
    # Layer 2: even bypassing the queue, the store transaction refuses it.
    with pytest.raises(StaleLeaseError):
        store.commit_chunk(campaign, scope, 1, records, lease_token=token)
    # Nothing double-committed: the cursor never moved for the zombie.
    assert store.scope_progress(campaign)["SERIALIZABLE"].cursor == 1

    parent_conn.send(None)
    worker.join(timeout=5.0)
    assert not worker.is_alive()
    parent_conn.close()


def test_worker_sigkill_leaves_no_shared_state_corruption():
    """SIGKILL mid-chunk must not wedge anything the parent shares with
    other workers — each worker owns a private pipe, so the only symptom
    is EOF on that one channel."""
    plan = FaultPlan()
    parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
    worker = multiprocessing.Process(
        target=_worker_main, args=(0, 0, child_conn, 0.05,
                                   plan.worker_specs(0, 0)),
        daemon=True)
    worker.start()
    child_conn.close()
    os.kill(worker.pid, 9)
    worker.join(timeout=5.0)
    assert not worker.is_alive()
    with pytest.raises((EOFError, OSError)):
        parent_conn.recv()
    parent_conn.close()
