"""Deterministic fault injection: seeded plans, injectors, and the harness.

Everything here exists to prove one sentence: *under any schedule of worker
SIGKILLs, heartbeat hangs, slow commits, and transient SQLite lock errors,
the campaign's final coverage report is byte-identical to a fault-free
serial run.*  Faults fire at **seeded points**, never at random runtime
moments — a :class:`FaultPlan` is a pure function of its seed, so every
chaos run is replayable.

Fault kinds and where they bite:

* ``kill`` — the worker SIGKILLs itself mid-lease (before or after chunk
  execution, per ``position``).  Exercises death detection, immediate lease
  reclaim, and respawn.
* ``hang`` — the worker pauses heartbeats for ``duration`` seconds, then
  resumes and finishes the chunk.  Exercises deadline expiry, reclaim,
  re-execution elsewhere, and the fencing rejection of the zombie's late
  result.
* ``slow-commit`` — the parent sleeps ``duration`` seconds before its Nth
  chunk flush.  Exercises lease renewal under a stalled commit pipeline.
* ``sqlite-lock`` — the store's write transaction fails ``count``
  consecutive times with a transient ``database is locked`` error at its
  Nth transaction, *beneath* the busy-retry wrapper.  Exercises the
  seeded-jitter retry path, on a store file and on ``:memory:`` alike.

Worker faults are addressed by ``(worker, incarnation, ordinal)`` — the
ordinal counts chunks executed by that specific incarnation — so a chunk
that died with incarnation ``k`` retries cleanly on incarnation ``k+1``
and the matrix converges instead of poisoning.
"""

from __future__ import annotations

import math
import os
import random
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "WorkerFaultInjector",
    "busy_hook_for",
    "commit_hook_for",
    "serial_reference",
    "run_with_faults",
    "run_fault_matrix",
]

_WORKER_KINDS = ("kill", "hang")
_PARENT_KINDS = ("slow-commit", "sqlite-lock")
KINDS = _WORKER_KINDS + _PARENT_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``ordinal`` is the firing point: for worker faults, the Nth chunk that
    ``(worker, incarnation)`` executes; for parent faults, the Nth chunk
    flush (``slow-commit``) or the Nth store write transaction
    (``sqlite-lock``).
    """

    kind: str
    worker: int = 0
    incarnation: int = 0
    ordinal: int = 0
    duration: float = 0.0       #: hang / slow-commit seconds
    count: int = 1              #: consecutive injected lock failures
    position: str = "pre"       #: worker faults: before or after execution

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(expected one of {KINDS})")
        if self.position not in ("pre", "post"):
            raise ValueError(f"position must be 'pre' or 'post', "
                             f"got {self.position!r}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not 0.0 <= self.duration < math.inf:
            raise ValueError(f"duration must be finite and >= 0, "
                             f"got {self.duration}")
        if min(self.worker, self.incarnation, self.ordinal) < 0:
            raise ValueError("worker, incarnation, and ordinal must be >= 0")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the CLI form ``kind[:key=value]...``.

        Examples: ``kill:worker=0:ordinal=2``,
        ``hang:worker=1:ordinal=0:duration=0.8``,
        ``slow-commit:ordinal=3:duration=0.2``,
        ``sqlite-lock:ordinal=2:count=2``.
        """
        head, _, rest = text.partition(":")
        fields: Dict[str, object] = {"kind": head}
        for part in filter(None, rest.split(":")):
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"bad fault field {part!r} in {text!r} "
                                 f"(expected key=value)")
            if key in ("worker", "incarnation", "ordinal", "count"):
                fields[key] = int(value)
            elif key == "duration":
                fields[key] = float(value)
            elif key == "position":
                fields[key] = value
            else:
                raise ValueError(f"unknown fault field {key!r} in {text!r}")
        return cls(**fields)  # type: ignore[arg-type]

    def encode(self) -> str:
        parts = [self.kind]
        for name in ("worker", "incarnation", "ordinal", "count"):
            value = getattr(self, name)
            if value:
                parts.append(f"{name}={value}")
        if self.duration:
            parts.append(f"duration={self.duration}")
        if self.position != "pre":
            parts.append(f"position={self.position}")
        return ":".join(parts)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults for one campaign run."""

    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    @classmethod
    def parse(cls, entries: Sequence[str]) -> "FaultPlan":
        return cls(tuple(FaultSpec.parse(entry) for entry in entries))

    @classmethod
    def random(cls, seed: int, workers: int = 2, chunks: int = 8,
               kinds: Sequence[str] = KINDS,
               hang_duration: float = 0.8,
               slow_commit: float = 0.15) -> "FaultPlan":
        """One fault of each requested kind at seeded points.

        A pure function of its arguments: the chaos matrix runs
        ``FaultPlan.random(seed, ...)`` for several seeds and every run is
        replayable from the seed alone.  Worker faults target incarnation 0
        (each kind at most once per worker slot, so the respawned
        incarnation always finishes the retried chunk).
        """
        rng = random.Random(seed)
        span = max(1, chunks // max(1, workers))
        specs: List[FaultSpec] = []
        for kind in kinds:
            ordinal = rng.randrange(span)
            if kind == "kill":
                specs.append(FaultSpec(kind, worker=rng.randrange(workers),
                                       ordinal=ordinal,
                                       position=rng.choice(("pre", "post"))))
            elif kind == "hang":
                specs.append(FaultSpec(kind, worker=rng.randrange(workers),
                                       ordinal=ordinal,
                                       duration=hang_duration))
            elif kind == "slow-commit":
                specs.append(FaultSpec(kind, ordinal=rng.randrange(chunks),
                                       duration=slow_commit))
            else:
                specs.append(FaultSpec(kind, ordinal=rng.randrange(chunks),
                                       count=1 + rng.randrange(2)))
        return cls(tuple(specs))

    def worker_specs(self, worker: int,
                     incarnation: int) -> Tuple[FaultSpec, ...]:
        return tuple(spec for spec in self.specs
                     if spec.kind in _WORKER_KINDS and spec.worker == worker
                     and spec.incarnation == incarnation)

    def parent_specs(self, kind: str) -> Tuple[FaultSpec, ...]:
        return tuple(spec for spec in self.specs if spec.kind == kind)

    def encode(self) -> Tuple[str, ...]:
        return tuple(spec.encode() for spec in self.specs)


class WorkerFaultInjector:
    """Fires a worker's scheduled faults at its chunk ordinals (in-process)."""

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        self._by_point: Dict[Tuple[int, str], List[FaultSpec]] = {}
        for spec in specs:
            self._by_point.setdefault((spec.ordinal, spec.position),
                                      []).append(spec)

    def fire(self, ordinal: int, position: str, heartbeat) -> None:
        for spec in self._by_point.get((ordinal, position), ()):
            if spec.kind == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif spec.kind == "hang":
                heartbeat.pause()
                time.sleep(spec.duration)
                heartbeat.resume()


def busy_hook_for(specs: Sequence[FaultSpec]) -> Optional[Callable[[], bool]]:
    """A ``SqliteStore.busy_fault_hook`` firing the sqlite-lock faults.

    The hook is consulted once per write-transaction attempt; at each
    scheduled transaction ordinal it fails ``count`` consecutive attempts,
    which the store's bounded busy-retry then absorbs.
    """
    schedule = {spec.ordinal: spec.count for spec in specs
                if spec.kind == "sqlite-lock"}
    if not schedule:
        return None
    state = {"txn": 0, "pending": 0}

    def hook() -> bool:
        if state["pending"] > 0:
            state["pending"] -= 1
            return True
        ordinal = state["txn"]
        state["txn"] += 1
        remaining = schedule.get(ordinal, 0)
        if remaining > 0:
            state["pending"] = remaining - 1
            return True
        return False

    return hook


def commit_hook_for(specs: Sequence[FaultSpec],
                    ) -> Optional[Callable[[int], None]]:
    """A ``LeaseQueue.commit_hook`` sleeping before scheduled chunk flushes."""
    schedule = {spec.ordinal: spec.duration for spec in specs
                if spec.kind == "slow-commit"}
    if not schedule:
        return None

    def hook(ordinal: int) -> None:
        delay = schedule.get(ordinal)
        if delay:
            time.sleep(delay)

    return hook


# -- the byte-identity harness --------------------------------------------------------


def serial_reference(spec, options) -> Tuple[str, str]:
    """The fault-free serial control: (rendered coverage report, fingerprint).

    Runs a plain in-process ``explore()`` of ``options`` (an
    :class:`~repro.explorer.ExploreOptions`) pinned to what the distributed
    runner honours: one worker, ``reduction="none"``, and no store, so the
    control writes nowhere.  Its render and fingerprint are the bytes every
    chaos run must reproduce.
    """
    from ..analysis.coverage import build_coverage_report
    from ..explorer import explore
    from ..workloads.program_sets import ProgramSetSpec
    spec = ProgramSetSpec.make(spec.name, **spec.kwargs())
    result = explore(spec, options.replace(workers=1, reduction="none",
                                           store=None, campaign_id=None))
    return build_coverage_report(result).render(), result.fingerprint()


def run_with_faults(store, spec, options, plan: FaultPlan, *,
                    campaign_id: Optional[str] = None,
                    lease_duration: float = 0.4,
                    heartbeat_interval: float = 0.1,
                    max_attempts: int = 6,
                    deadline_s: float = 120.0):
    """One distributed campaign of ``options`` under one fault plan.

    Returns ``(runner_result, rendered_report, fingerprint)`` where report
    and fingerprint are rebuilt purely from the store's rows.
    """
    from ..analysis.coverage import coverage_report_from_store
    from ..persist.analytics import fingerprint_from_store
    from .runner import CampaignRunner
    runner = CampaignRunner(
        store, spec, levels=options.levels, mode=options.mode,
        max_schedules=options.max_schedules, seed=options.seed,
        chunk_size=options.chunk_size, workers=options.workers,
        campaign_id=campaign_id, lease_duration=lease_duration,
        heartbeat_interval=heartbeat_interval, max_attempts=max_attempts,
        faults=plan, deadline_s=deadline_s)
    result = runner.run()
    report = coverage_report_from_store(store, result.campaign_id,
                                        levels=options.levels)
    return result, report.render(), fingerprint_from_store(
        store, result.campaign_id)


def run_fault_matrix(spec, options, plans: Sequence[FaultPlan],
                     store_factories: Sequence[Tuple[str, Callable[[int], object]]],
                     **supervision: Any) -> List[Dict[str, object]]:
    """Every plan on every store leg, byte-diffed against the serial control.

    ``store_factories`` is ``[(leg_name, factory(run_index) -> store)]``
    — a fresh store per run; ``supervision`` is passed to
    :func:`run_with_faults`.  Returns one result dict per (plan, store) leg,
    named under ``"backend"``, with ``byte_equal`` verdicts; raises nothing
    itself so the caller (test or CI script) decides how to fail.
    """
    control_render, control_fingerprint = serial_reference(spec, options)
    legs: List[Dict[str, object]] = []
    run_index = 0
    for plan_index, plan in enumerate(plans):
        for backend, factory in store_factories:
            store = factory(run_index)
            run_index += 1
            try:
                result, render, fingerprint = run_with_faults(
                    store, spec, options, plan, **supervision)
            finally:
                store.close()
            legs.append({
                "plan_index": plan_index,
                "plan": list(plan.encode()),
                "backend": backend,
                "campaign_id": result.campaign_id,
                "success": result.success,
                "poisoned": [(p.scope, p.chunk_index) for p in result.poisoned],
                "respawns": result.respawns,
                "fenced_results": result.fenced_results,
                "recovery_latency_s": result.recovery_latency_s,
                "byte_equal": (render == control_render
                               and fingerprint == control_fingerprint),
                "stats": result.stats,
            })
    return legs

