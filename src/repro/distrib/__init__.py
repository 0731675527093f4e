"""Fault-tolerant distributed campaigns: leased work queues over a store.

``repro.distrib`` scales a persistent exploration campaign past one
``multiprocessing.Pool``: the schedule stream's chunks become *leases* in a
durable work queue (:mod:`~repro.distrib.queue`), independent worker
processes (:mod:`~repro.distrib.runner` — spawned directly, never pooled)
pull leases, execute them through the ordinary trie/batch-kernel path, and
their results commit under the parent-only protocol of :mod:`repro.persist`
extended with *lease fencing*: every grant carries a fresh monotonic token,
and ``commit_chunk`` rejects any token that is no longer current inside the
commit transaction itself — a zombie worker whose lease expired and was
regranted can never double-commit, no matter when it wakes up.

Graceful degradation is the contract: lose any subset of workers at any
time (SIGKILL, hang, slow I/O, transient SQLite lock) and the campaign
finishes correct — byte-identical coverage to a fault-free serial run —
merely slower.  A chunk that keeps failing retries with exponential
backoff and seeded jitter until its attempt budget is spent, then is
quarantined as *poisoned* so one bad chunk cannot stall the campaign; the
poisoned set is reported, drainable, and requeueable.

The determinism story is unchanged from the explorer's: records are a pure
function of ``(spec, levels, mode, max_schedules, seed)``; the
worker count, the fault schedule, and the lease timing only move wall-clock
time.  :mod:`~repro.distrib.faults` turns that claim into a test harness —
deterministic seeded fault plans (worker SIGKILL, heartbeat hangs, slow
commits, injected SQLite lock errors) under which the final report must
stay byte-identical.
"""

from .faults import FaultPlan, FaultSpec
from .queue import Lease, LeaseQueue, PoisonedChunk, ReclaimedLease
from .runner import CampaignRunner, CampaignRunResult

__all__ = [
    "Lease",
    "LeaseQueue",
    "PoisonedChunk",
    "ReclaimedLease",
    "FaultPlan",
    "FaultSpec",
    "CampaignRunner",
    "CampaignRunResult",
]
