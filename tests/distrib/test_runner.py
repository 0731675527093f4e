"""The distributed runner: serial parity, crash-resume, graceful degradation."""

from __future__ import annotations

import pytest

from repro.analysis.coverage import coverage_report_from_store
from repro.core.isolation import IsolationLevelName
from repro.distrib import CampaignRunner
from repro.distrib.faults import FaultPlan, serial_reference
from repro.explorer import ExploreOptions
from repro.persist import SqliteStore, fingerprint_from_store
from repro.workloads.program_sets import ProgramSetSpec

SPEC = ProgramSetSpec.make("bank-transfer")
N, SEED, CHUNK = 120, 3, 16


@pytest.fixture(scope="module")
def control():
    """The serial explore() bytes every distributed run must reproduce."""
    return serial_reference(SPEC, ExploreOptions(max_schedules=N, seed=SEED,
                                                 chunk_size=CHUNK))


def _run(store, **kwargs):
    kwargs.setdefault("max_schedules", N)
    kwargs.setdefault("seed", SEED)
    kwargs.setdefault("chunk_size", CHUNK)
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("lease_duration", 0.4)
    kwargs.setdefault("heartbeat_interval", 0.1)
    kwargs.setdefault("deadline_s", 90.0)
    runner = CampaignRunner(store, SPEC, **kwargs)
    return runner, runner.run()


def test_fault_free_run_matches_serial_bytes(store, control):
    render, fingerprint = control
    runner, result = _run(store)
    assert result.success and not result.timed_out
    assert result.poisoned == ()
    assert fingerprint_from_store(store, runner.campaign_id) == fingerprint
    report = coverage_report_from_store(store, runner.campaign_id)
    assert report.render() == render


def test_rerun_of_complete_campaign_executes_nothing(store, control):
    _, fingerprint = control
    runner, result = _run(store)
    assert result.success
    again, rerun = _run(store)
    assert rerun.success
    assert rerun.stats["leases_granted"] == 0     # nothing left to grant
    assert rerun.committed_chunks == 0
    assert fingerprint_from_store(store, again.campaign_id) == fingerprint


def test_all_workers_lost_degrades_then_resume_completes(store, control):
    """Lose every worker with no respawn budget: the run stops incomplete
    but intact, and a later fault-free run finishes the campaign."""
    render, fingerprint = control
    plan = FaultPlan.parse(["kill:worker=0:ordinal=1"])
    runner, result = _run(store, workers=1, faults=plan, max_respawns=0)
    assert not result.success
    assert result.committed_chunks < 40           # stopped partway

    resumed, final = _run(store, workers=1)
    assert final.success
    assert final.committed_chunks + result.committed_chunks == 40
    assert fingerprint_from_store(store, resumed.campaign_id) == fingerprint
    assert coverage_report_from_store(store, resumed.campaign_id).render() \
        == render


def test_worker_kill_recovers_and_measures_latency(control):
    _, fingerprint = control
    store = SqliteStore(":memory:")
    plan = FaultPlan.parse(["kill:worker=0:ordinal=1"])
    runner, result = _run(store, faults=plan)
    assert result.success
    assert result.respawns == 1
    assert result.stats["leases_reclaimed"] >= 1
    assert result.recovery_latency_s is not None
    assert result.recovery_latency_s > 0.0
    assert fingerprint_from_store(store, runner.campaign_id) == fingerprint
    store.close()


def test_sqlite_lock_faults_are_retried(tmp_path, control):
    _, fingerprint = control
    store = SqliteStore(tmp_path / "locky.sqlite")
    plan = FaultPlan.parse(["sqlite-lock:ordinal=1:count=2"])
    runner, result = _run(store, faults=plan)
    assert result.success
    assert result.stats["store_busy_retries"] == 2
    assert fingerprint_from_store(store, runner.campaign_id) == fingerprint
    store.close()


def test_distrib_campaign_is_cross_resumable_with_serial_explore(tmp_path,
                                                                 control):
    """The runner writes the same campaign a serial explore(store=...) run
    would: serial code can finish what the distributed runner started."""
    from repro.explorer import explore

    render, fingerprint = control
    store = SqliteStore(tmp_path / "cross.sqlite")
    plan = FaultPlan.parse(["kill:worker=0:ordinal=1"])
    runner, result = _run(store, workers=1, faults=plan, max_respawns=0)
    assert not result.success                      # stopped partway

    explore(SPEC, ExploreOptions(
        max_schedules=N, seed=SEED, chunk_size=CHUNK,
        reduction="none", store=store, campaign_id=runner.campaign_id))
    assert fingerprint_from_store(store, runner.campaign_id) == fingerprint
    assert coverage_report_from_store(store, runner.campaign_id).render() \
        == render
    store.close()


def test_a_repeated_level_is_rejected_before_the_store_is_touched(store):
    level = IsolationLevelName.SERIALIZABLE
    with pytest.raises(ValueError, match="'SERIALIZABLE' given twice"):
        CampaignRunner(store, SPEC, levels=(level, level))
    assert not store.list_campaigns()
