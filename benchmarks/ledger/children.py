"""In-process legs of the workloads, each run in a fresh child interpreter.

``explorer/worker.py`` keeps per-process testbed and outcome caches, so a
second in-process run of the same spec measures a warm cache no CLI user ever
sees.  Every repetition therefore calls one of these through
``run.py _child <kind> <json>`` in a new process; the child prints one JSON
object as its last line and exits.

With ``trace`` set the child installs the harness-owned wrappers
(:mod:`trace`) before the call and reports per-layer self times; without it
nothing in the program is touched.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from contextlib import nullcontext
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .stats import median
from .trace import Recorder, install

#: The shared workload: a 20-step interleaving over 4 transactions.
SPEC_NAME = "contention"
SPEC_PARAMS = {"transactions": 4, "items": 4, "hot_items": 2,
               "operations_per_transaction": 2}

#: One task or result in this many is pickled again under a timer.
PICKLE_SAMPLE = 8


def shared_spec():
    from repro.explorer import ProgramSetSpec
    return ProgramSetSpec.make(SPEC_NAME, **SPEC_PARAMS)


def campaign_id(seed: int, max_schedules: int, chunk_size: int) -> str:
    """The id ``explore(store=...)`` and both CLIs derive for this campaign."""
    from repro.persist.records import default_campaign_id
    from repro.persist.session import campaign_config
    return default_campaign_id(campaign_config(
        shared_spec(), mode="sample", max_schedules=max_schedules, seed=seed,
        reduction="none", chunk_size=chunk_size))


def _merged_stats(result) -> Dict[str, int]:
    merged: Dict[str, int] = {}
    for exploration in result.levels.values():
        for key, value in exploration.cache_stats.items():
            merged[key] = merged.get(key, 0) + value
    return merged


class _Tracing:
    """Install wrappers for one child run; write the spans out at the end."""

    def __init__(self, args: Dict[str, Any], groups):
        self.recorder: Optional[Recorder] = None
        self.missing: List[str] = []
        self._uninstall = lambda: None
        self._path = args.get("trace_path")
        if args.get("trace"):
            self.recorder = Recorder(args["trace_id"])
            self._uninstall, self.missing = install(self.recorder, groups)

    def span(self, name: str):
        """A span when tracing, nothing otherwise."""
        return self.recorder.span(name) if self.recorder is not None else nullcontext()

    def run(self, name: str, fn) -> Tuple[Any, Dict[str, Any]]:
        """Time ``fn`` as one phase under a root span called ``name``.

        Returns its value and the phase: the wall and, when traced, the self
        time and call totals of every layer under the root.
        """
        recorder = self.recorder
        root = recorder.begin(name) if recorder is not None else None
        started = time.perf_counter()
        try:
            value = fn()
        finally:
            wall = time.perf_counter() - started
            if recorder is not None:
                recorder.end(root)
        phase: Dict[str, Any] = {"wall_s": wall}
        if recorder is not None:
            phase["self"] = recorder.self_times(root)
            phase["totals"] = {name: list(value)
                               for name, value in recorder.totals(root).items()}
        return value, phase

    def finish(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._uninstall()
        if self.recorder is not None:
            payload["missing_layers"] = self.missing
            if self._path:
                self.recorder.write_jsonl(self._path)
        return payload


# -- explore (workloads 1, 2 and the in-process legs of 4) -----------------------------

class _TimedPool:
    """A ``multiprocessing.Pool`` whose waits and (sampled) pickling are timed."""

    def __init__(self, pool, recorder: Recorder):
        self._pool = pool
        self._recorder = recorder

    def __enter__(self) -> "_TimedPool":
        self._pool.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        with self._recorder.span("explorer.explorer.pool_spinup"):
            self._pool.__exit__(*exc)

    def _sampled_tasks(self, tasks) -> Iterator[Any]:
        # Runs on the pool's feeder thread, overlapping the parent's waits.
        for position, task in enumerate(tasks):
            if position % PICKLE_SAMPLE == 0:
                started = time.perf_counter()
                pickle.dumps(task)
                self._recorder.hot("explorer.explorer.pickle", started,
                                   time.perf_counter(), weight=PICKLE_SAMPLE)
            yield task

    def imap(self, func, tasks) -> Iterator[Any]:
        results = self._pool.imap(func, self._sampled_tasks(tasks))
        hot = self._recorder.hot
        position = 0
        while True:
            started = time.perf_counter()
            try:
                result = next(results)
            except StopIteration:
                hot("explorer.explorer.ipc_wait", started, time.perf_counter())
                return
            hot("explorer.explorer.ipc_wait", started, time.perf_counter())
            if position % PICKLE_SAMPLE == 0:
                blob = pickle.dumps(result)
                started = time.perf_counter()
                pickle.loads(blob)
                hot("explorer.explorer.pickle", started, time.perf_counter(),
                    weight=PICKLE_SAMPLE)
            position += 1
            yield result


class _TimedManager:
    def __init__(self, manager, recorder: Recorder):
        self._manager = manager
        self._recorder = recorder

    def list(self):
        return self._manager.list()

    def shutdown(self) -> None:
        with self._recorder.span("explorer.explorer.pool_spinup"):
            self._manager.shutdown()


class _TimedMultiprocessing:
    """Stands in for the ``multiprocessing`` module inside ``explorer.py``."""

    def __init__(self, recorder: Recorder):
        self._recorder = recorder

    def Manager(self) -> _TimedManager:
        with self._recorder.span("explorer.explorer.pool_spinup"):
            return _TimedManager(multiprocessing.Manager(), self._recorder)

    def Pool(self, processes: int) -> _TimedPool:
        with self._recorder.span("explorer.explorer.pool_spinup"):
            return _TimedPool(multiprocessing.Pool(processes=processes),
                              self._recorder)


def child_explore(args: Dict[str, Any]) -> Dict[str, Any]:
    """One ``explore()`` of the shared spec; optionally a whole campaign.

    ``args``: seed, max_schedules, workers, chunk_size, optional ``store``
    path, and ``campaign`` to follow the cold run with what the CLI does
    next — persist the derived report, run again on the completed store,
    inspect it.
    """
    from repro.explorer import ExploreOptions, explore
    import repro.explorer.explorer as explorer_module

    workers = args["workers"]
    groups = ["generate"] + (["chunk"] if workers == 1 else [])
    if args.get("store"):
        groups.append("persist")
    tracing = _Tracing(args, groups)
    recorder = tracing.recorder
    if recorder is not None and workers > 1:
        explorer_module.multiprocessing = _TimedMultiprocessing(recorder)

    store = None
    if args.get("store"):
        from repro.persist import SqliteStore
        store = SqliteStore(args["store"])
    options = ExploreOptions(mode="sample", max_schedules=args["max_schedules"],
                             seed=args["seed"], workers=workers,
                             chunk_size=args["chunk_size"], store=store)
    spec = shared_spec()

    def explore_once():
        with tracing.span("explorer.explorer.orchestrate"):
            return explore(spec, options)

    payload: Dict[str, Any] = {"t_call": time.time()}
    phases = payload["phases"] = {}
    try:
        if not args.get("campaign"):
            result, phases["cold"] = tracing.run("workload", explore_once)
        else:
            from repro.analysis.coverage import coverage_report_from_store
            from repro.persist.analytics import (
                campaign_summary, fingerprint_from_store, persist_result)
            campaign = campaign_id(args["seed"], args["max_schedules"],
                                   args["chunk_size"])

            def cold():
                result = explore_once()
                with tracing.span("persist.analytics.report"):
                    persist_result(store, campaign, result).render()
                return result

            def inspect():
                with tracing.span("persist.analytics.inspect"):
                    campaign_summary(store, campaign)
                    coverage_report_from_store(store, campaign).render()

            result, phases["cold"] = tracing.run("workload.cold", cold)
            rerun, phases["rerun"] = tracing.run("workload.rerun", explore_once)
            payload["rerun_executed"] = rerun.executed_schedules()
            _, phases["inspect"] = tracing.run("workload.inspect", inspect)
            payload["store_fingerprint"] = fingerprint_from_store(store, campaign)
            payload["store_stats"] = store.stats()
            wal = args["store"] + "-wal"
            payload["wal_bytes"] = os.path.getsize(wal) if os.path.exists(wal) else 0
        if recorder is not None:
            payload["commit_ms"] = [
                value * 1e3 for value in recorder.durations("persist.sqlite_store.commit")]
    finally:
        explorer_module.multiprocessing = multiprocessing
        if store is not None:
            store.close()
    payload.update(
        schedules=result.total_schedules(),
        executed=result.executed_schedules(),
        fingerprint=result.fingerprint(),
        stats=_merged_stats(result),
    )
    return tracing.finish(payload)


# -- Table 4 (workload 3) --------------------------------------------------------------

def child_table4(args: Dict[str, Any]) -> Dict[str, Any]:
    """Iterate ``compute_table4_explored`` for ``seconds``; median iteration."""
    from repro.analysis.matrix import EXPECTED_TABLE_4, compute_table4_explored

    tracing = _Tracing(args, ["generate", "table4"])
    payload: Dict[str, Any] = {"t_call": time.time()}
    walls: List[float] = []
    phases: List[Dict[str, Any]] = []
    cells_ok = True
    witnessed = schedules = variants = 0
    deadline = time.perf_counter() + args["seconds"]
    while not walls or time.perf_counter() < deadline:
        table, phase = tracing.run("workload", lambda: compute_table4_explored(
            max_schedules=args["max_schedules"]))
        walls.append(phase["wall_s"])
        phases.append(phase)
        cells_ok = cells_ok and table.possibilities() == EXPECTED_TABLE_4
        cells = [cell for row in table.cells.values() for cell in row.values()]
        witnessed = sum(cell.witness is not None for cell in cells)
        schedules = sum(cell.schedules for cell in cells)
        variants = sum(len(cell.variant_frequencies) for cell in cells)
    # The iteration whose wall is the (upper) median stands for the run.
    middle = sorted(range(len(walls)), key=walls.__getitem__)[len(walls) // 2]
    payload.update(
        walls=walls, wall_s=median(walls), phases={"cold": phases[middle]},
        cells=len(cells), cells_ok=cells_ok, witnessed=witnessed,
        schedules=schedules, variants=variants,
    )
    return tracing.finish(payload)


# -- distributed runner, parent side (traced leg of workload 5) ------------------------

def child_distrib(args: Dict[str, Any]) -> Dict[str, Any]:
    """Run the ``CampaignRunner`` in-process so its parent side can be timed."""
    from repro.distrib.runner import CampaignRunner
    from repro.persist import SqliteStore
    from repro.persist.analytics import fingerprint_from_store

    tracing = _Tracing(args, ["generate", "persist", "distrib"])
    store = SqliteStore(args["store"])
    payload: Dict[str, Any] = {"t_call": time.time()}
    try:
        runner = CampaignRunner(store, shared_spec(), mode="sample",
                                max_schedules=args["max_schedules"],
                                seed=args["seed"], chunk_size=args["chunk_size"],
                                workers=args["workers"])
        result, phase = tracing.run("workload", runner.run)
        payload.update(
            phases={"cold": phase}, success=result.success, duration_s=result.duration,
            stats=result.stats, schedules=result.committed_records,
            store_fingerprint=fingerprint_from_store(store, result.campaign_id),
        )
    finally:
        store.close()
    return tracing.finish(payload)


CHILDREN = {"explore": child_explore, "table4": child_table4,
            "distrib": child_distrib}
