"""Schedule-space explorer benchmarks: throughput, trie executor, reduction, caches.

Not a paper figure — this measures the exploration machinery the reproduction
adds on top of the paper, and maintains the repo's machine-readable benchmark
baseline: every run writes ``BENCH_explorer.json`` (schedules/sec serial vs
parallel with a per-phase breakdown, trie-executor gains over from-scratch
execution, partial-order reduction ratio, streaming throughput, peak RSS,
cache hit rates, fingerprint checks) so CI can archive the numbers and
regressions are diffable — the ``bench-smoke`` CI job fails on a >30% serial
throughput regression against the committed baseline.

Hard checks enforced here:

* the parallel run must be byte-identical to the serial run (same
  determinism fingerprint) on any worker count;
* the trie executor must produce byte-identical records to from-scratch
  execution while re-executing strictly fewer slots;
* sleep-set reduction must cut executed schedules by >= 2x on a registered
  program set while reporting *identical* per-level anomaly coverage;
* sampling ``BENCH_EXPLORER_STREAM`` schedules must run under streaming,
  never materializing the schedule list.

Workload sizes honour ``BENCH_EXPLORER_SCHEDULES`` (default 2000) and
``BENCH_EXPLORER_STREAM`` (default 1,000,000) so CI smoke runs stay small.
The parallel-speedup assertion (>= 1.5x at 2 workers, the trie-executor
rebuild target) needs >= 2 usable cores and the full schedule budget; on a
single-core container the parallel section records overhead honestly and the
assertion is skipped — 2 workers on 1 CPU cannot beat serial.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import platform
import resource
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.coverage import coverage_mismatches
from repro.analysis.matrix import EXPECTED_TABLE_4, compute_table4_explored
from repro.analysis.report import matrix_matches, render_table
from repro.core.isolation import IsolationLevelName, Possibility
from repro.engine.scheduler import ScheduleRunner
from repro.explorer import (
    ExploreOptions,
    ProgramSetSpec,
    TrieExecutor,
    available_workers,
    explore,
    schedule_space,
)
from repro.explorer.worker import ChunkTask
from repro.testbed import make_engine
from repro.workloads.program_sets import build_program_set, resolve_program_set

SPEC = ProgramSetSpec.make("contention", transactions=4, items=4, hot_items=2,
                           operations_per_transaction=2)
#: Streaming generation target: a space of ~1.4e11 interleavings, so even a
#: million-schedule sample is a vanishing fraction (pure i.i.d., no tracking).
STREAM_SPEC = ProgramSetSpec.make("contention", transactions=6, items=8,
                                  hot_items=2, operations_per_transaction=2)
LEVELS = (IsolationLevelName.READ_COMMITTED, IsolationLevelName.SNAPSHOT_ISOLATION)
SCHEDULES = int(os.environ.get("BENCH_EXPLORER_SCHEDULES", "2000"))
STREAM_SCHEDULES = int(os.environ.get("BENCH_EXPLORER_STREAM", "1000000"))
#: Per-variant schedule budget for the explored-Table-4 smoke.  The default
#: still covers every curated variant space exhaustively (the largest has
#: 924 interleavings), so the matrix must match the paper cell for cell.
TABLE4_BUDGET = int(os.environ.get("BENCH_TABLE4_BUDGET", "1024"))
SEED = 42
#: The seed repo's serial throughput on the reference container (measured by
#: PR 4's benchmark before any explorer optimisations; see ROADMAP).  The
#: ISSUE 5 acceptance bar is >= 5x this number.
SEED_SERIAL_RATE = 961.0
SERIAL_MIN_RATE = float(os.environ.get("BENCH_SERIAL_MIN_RATE",
                                       str(5 * SEED_SERIAL_RATE)))
#: The ISSUE 7 acceptance bar for the batch-drain kernel: aggregate serial
#: throughput across the five supported levels must reach >= 20x seed.
#: Env-tunable for slower runner classes, like the serial floor above.
BATCH_MIN_RATE = float(os.environ.get("BENCH_BATCH_MIN_RATE",
                                      str(20 * SEED_SERIAL_RATE)))
#: Batch-kernel timing runs per level: the recorded rate is the best of this
#: many drains, the same noise-damping methodology as the serial baseline.
BATCH_RUNS = int(os.environ.get("BENCH_BATCH_RUNS", "5"))
#: Serial-baseline runs: the headline rate is the best of this many runs,
#: damping scheduler noise on small shared VMs (documented methodology; the
#: per-run rates are all recorded).
SERIAL_RUNS = int(os.environ.get("BENCH_SERIAL_RUNS", "5"))
#: The ISSUE 8 acceptance bar: serial throughput with a SqliteStore attached
#: must stay within 15% of the store-free run (ratio >= 0.85), measured at
#: matched batch sizes.  Env-tunable for slow disks like the floors above.
PERSIST_MIN_RATIO = float(os.environ.get("BENCH_PERSIST_MIN_RATIO", "0.85"))
#: Timed (plain, store) run pairs; the recorded rates are the best of each.
#: The store's absolute overhead is ~0.1s-scale and noisy (WAL checkpoints,
#: cpufreq), so the ratio needs more damping than the big headline numbers.
PERSIST_RUNS = int(os.environ.get("BENCH_PERSIST_RUNS", "5"))

#: Anchored to the repo root regardless of pytest's invocation cwd, so the CI
#: artifact upload (and local readers) always find the same file.
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_explorer.json"

#: Sections accumulated by the tests and flushed to BENCH_explorer.json.
_BASELINE = {
    "benchmark": "explorer",
    "schedules": SCHEDULES,
    "stream_schedules": STREAM_SCHEDULES,
    "seed": SEED,
    "workload": SPEC.describe(),
    "levels": [level.value for level in LEVELS],
    # Environment metadata, so committed baselines are auditable: absolute
    # throughput comparisons are only meaningful against the same class of
    # interpreter and machine.
    "cores": available_workers(),
    "python_version": platform.python_version(),
    "platform": platform.platform(),
    "implementation": sys.implementation.name,
}

_PHASE_KEYS = ("us_testbed_build", "us_step_execution", "us_classification",
               "us_canonicalization")


def _peak_rss_kb() -> int:
    """Peak resident set size of this process, in kilobytes (Linux semantics)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@pytest.fixture(scope="session", autouse=True)
def write_baseline():
    """Flush whatever sections the selected tests produced, at session end."""
    yield
    _BASELINE["peak_rss_kb"] = _peak_rss_kb()
    BASELINE_PATH.write_text(json.dumps(_BASELINE, indent=2, sort_keys=True) + "\n")


def _phase_breakdown(result, wall: float, workers: int) -> dict:
    """Per-phase busy seconds (summed over workers) plus the residual.

    The residual covers everything outside the instrumented phases: chunk
    dispatch, record assembly, and — for parallel runs — IPC and scheduling
    waits.  Phase timers measure wall time inside workers, so on an
    oversubscribed machine (more workers than cores) they include preemption.
    """
    totals = {key: 0 for key in _PHASE_KEYS}
    for exploration in result.levels.values():
        for key in _PHASE_KEYS:
            totals[key] += exploration.cache_stats.get(key, 0)
    busy = sum(totals.values()) / 1e6
    breakdown = {
        "testbed_build_s": round(totals["us_testbed_build"] / 1e6, 4),
        "step_execution_s": round(totals["us_step_execution"] / 1e6, 4),
        "classification_s": round(totals["us_classification"] / 1e6, 4),
        "canonicalization_s": round(totals["us_canonicalization"] / 1e6, 4),
        "wall_s": round(wall, 4),
        "ipc_and_other_s": round(max(0.0, wall - busy / workers), 4),
    }
    return breakdown


def _parallel_overheads(result, workers: int, chunk_size: int = 64):
    """Measured split of the parallel residual: chunk pickling vs pool spin-up.

    ``ipc_and_other_s`` is a residual (wall minus per-worker busy time) and
    used to lump two very different costs.  Both components are re-measured
    here with the same machinery the pool uses: *chunk pickling* serializes
    the actual :class:`ChunkTask` stream (parent -> worker) and the realized
    per-chunk record lists (worker -> parent) through ``pickle``; *pool
    spin-up* times an empty pool of the same worker count through creation,
    one no-op round trip, and teardown.  Whatever remains of the residual is
    genuine scheduling/queue wait, reported as ``ipc_other_s``.
    """
    builder = resolve_program_set(SPEC)
    _, programs = build_program_set(SPEC)
    space = schedule_space(programs, mode="sample", max_schedules=SCHEDULES,
                           seed=SEED)
    started = time.perf_counter()
    for level in result.levels:
        for index, chunk in space.iter_chunks(chunk_size):
            pickle.dumps(ChunkTask(index, SPEC, level, chunk, builder))
        records = result.levels[level].records
        for start in range(0, len(records), chunk_size):
            pickle.dumps(records[start:start + chunk_size])
    pickling = time.perf_counter() - started

    started = time.perf_counter()
    with multiprocessing.Pool(processes=workers) as pool:
        pool.map(ord, "x")
    spinup = time.perf_counter() - started
    return pickling, spinup


def _run(workers: int, schedules: int = SCHEDULES):
    started = time.perf_counter()
    result = explore(SPEC, ExploreOptions(
        levels=LEVELS, mode="sample", max_schedules=schedules,
        seed=SEED, workers=workers, chunk_size=64))
    duration = time.perf_counter() - started
    executed = result.total_schedules()
    return result, executed / duration, duration


#: The serial reference run, shared by the serial-baseline and parallel tests
#: (pytest runs them in definition order; either one primes it).  Best of
#: SERIAL_RUNS runs: results are byte-identical across runs (the determinism
#: contract), so only the timing varies.
_SERIAL_RUN = None


def _serial_run():
    global _SERIAL_RUN
    if _SERIAL_RUN is None:
        runs = [_run(workers=1) for _ in range(max(1, SERIAL_RUNS))]
        best = max(runs, key=lambda run: run[1])
        _SERIAL_RUN = (*best, [round(run[1], 1) for run in runs])
    return _SERIAL_RUN


def test_explorer_serial_baseline(print_report):
    """The headline number bench-smoke regression-gates: serial schedules/sec.

    ISSUE 5 acceptance: the compiled step kernel (plus the classification
    fast paths) must lift serial throughput to >= 5x the seed's 961/s.  The
    gate only runs at the full schedule budget — smoke-sized runs measure
    startup, not throughput — and the floor is env-tunable for slower runner
    classes (BENCH_SERIAL_MIN_RATE).
    """
    result, rate, wall, run_rates = _serial_run()
    trie = {
        key: sum(exploration.cache_stats.get(f"trie_{key}", 0)
                 for exploration in result.levels.values())
        for key in ("slots_total", "slots_executed", "checkpoints_created", "restores")
    }
    _BASELINE["serial"] = {
        "schedules_per_sec": round(rate, 1), "wall_s": round(wall, 3),
        "run_rates": run_rates,
        "speedup_vs_seed": round(rate / SEED_SERIAL_RATE, 2),
        "phases": _phase_breakdown(result, wall, workers=1),
        "trie": dict(trie, replayed_step_ratio=round(
            trie["slots_executed"] / trie["slots_total"], 4) if trie["slots_total"] else 1.0),
    }
    print_report(
        f"Serial exploration baseline ({SCHEDULES} schedules x {len(LEVELS)} levels)",
        render_table(
            ["metric", "value"],
            [["schedules/sec", f"{rate:,.0f}"],
             ["speedup vs seed", f"{rate / SEED_SERIAL_RATE:.2f}x"],
             ["wall s", f"{wall:.2f}"],
             ["replayed-step ratio",
              f"{_BASELINE['serial']['trie']['replayed_step_ratio']:.2f}"]],
        ),
    )
    assert result.total_schedules() == SCHEDULES * len(LEVELS)
    if SCHEDULES >= 2000:
        assert rate >= SERIAL_MIN_RATE, (
            f"serial throughput {rate:,.0f}/s is below the 5x-seed bar "
            f"{SERIAL_MIN_RATE:,.0f}/s (tune via BENCH_SERIAL_MIN_RATE)")


def test_batch_kernel_vs_stepwise(print_report):
    """The ISSUE 7 gate: the batch-drain kernel must stay
    byte-equal to the stepwise trie walk at every supported level, keep the
    fast path fully occupied on a registered workload, and lift aggregate
    serial throughput to >= 20x seed.

    Correctness and throughput are separate passes: the first pass keys every
    outcome (byte-equality, occupancy), then the drain itself — execution
    only, no record rendering — is timed over BATCH_RUNS fresh executors per
    level and the best run recorded, the serial baseline's noise-damping
    methodology.
    """
    count = SCHEDULES
    _, programs = build_program_set(SPEC)
    schedules = schedule_space(programs, mode="sample", max_schedules=count,
                               seed=SEED).schedules

    def outcome_key(outcome):
        return (outcome.history.to_shorthand(), outcome.blocked_events,
                len(outcome.deadlocks), outcome.stalled,
                tuple(sorted((txn, state.value)
                             for txn, state in outcome.statuses.items())))

    def drain_time(level, mode, runs=1):
        best = float("inf")
        for _ in range(max(1, runs)):
            database, progs = build_program_set(SPEC)
            executor = TrieExecutor(database, progs, level, batch_kernel=mode)
            started = time.perf_counter()
            for _ in executor.run_batch(schedules):
                pass
            best = min(best, time.perf_counter() - started)
        return best

    levels = (IsolationLevelName.READ_COMMITTED,
              IsolationLevelName.REPEATABLE_READ,
              IsolationLevelName.SERIALIZABLE,
              IsolationLevelName.SNAPSHOT_ISOLATION,
              IsolationLevelName.ORACLE_READ_CONSISTENCY)
    rows = []
    section = {}
    total_time = 0.0
    for level in levels:
        database, progs = build_program_set(SPEC)
        stepwise = TrieExecutor(database, progs, level, batch_kernel="off")
        reference = [outcome_key(outcome)
                     for _, outcome in stepwise.run_batch(schedules)]
        database, progs = build_program_set(SPEC)
        batched = TrieExecutor(database, progs, level, batch_kernel="on")
        kernel = [outcome_key(outcome)
                  for _, outcome in batched.run_batch(schedules)]
        byte_equal = kernel == reference
        occupancy = batched.batch_stats.occupancy

        stepwise_time = drain_time(level, "off")
        batch_time = drain_time(level, "on", runs=BATCH_RUNS)
        total_time += batch_time
        speedup = stepwise_time / batch_time if batch_time else float("inf")
        rows.append([level.value, f"{count / stepwise_time:,.0f}",
                     f"{count / batch_time:,.0f}", f"{speedup:.2f}x",
                     f"{occupancy:.2f}", "yes" if byte_equal else "NO"])
        section[level.value] = {
            "stepwise_schedules_per_sec": round(count / stepwise_time, 1),
            "batch_schedules_per_sec": round(count / batch_time, 1),
            "speedup": round(speedup, 2),
            "occupancy": round(occupancy, 4),
            "byte_equal": byte_equal,
        }
        assert byte_equal, f"batch kernel diverged from stepwise at {level.value}"
        # Registered workloads are item-only: nothing may eject.
        assert occupancy == 1.0, f"fast path not fully occupied at {level.value}"
    aggregate = (count * len(levels)) / total_time
    section["aggregate"] = {
        "schedules_per_sec": round(aggregate, 1),
        "speedup_vs_seed": round(aggregate / SEED_SERIAL_RATE, 2),
        "min_rate": BATCH_MIN_RATE,
    }
    _BASELINE["batch_kernel"] = section
    print_report(
        f"Batch-drain kernel vs stepwise ({count} schedules/level, "
        f"aggregate {aggregate:,.0f}/s = "
        f"{aggregate / SEED_SERIAL_RATE:.1f}x seed)",
        render_table(["level", "stepwise/s", "batch/s", "speedup",
                      "occupancy", "byte=="], rows),
    )
    if SCHEDULES >= 2000:
        assert aggregate >= BATCH_MIN_RATE, (
            f"batch-kernel aggregate {aggregate:,.0f}/s is below the 20x-seed "
            f"bar {BATCH_MIN_RATE:,.0f}/s (tune via BENCH_BATCH_MIN_RATE)")


def test_explorer_throughput_serial(benchmark, print_report):
    result = benchmark.pedantic(
        lambda: explore(SPEC, ExploreOptions(
            levels=(IsolationLevelName.READ_COMMITTED,),
            mode="sample", max_schedules=min(SCHEDULES, 500), seed=SEED)),
        rounds=3, iterations=1,
    )
    stats = result.levels[IsolationLevelName.READ_COMMITTED].cache_stats
    classified = stats["hits"] + stats["misses"] + stats.get("shared_hits", 0)
    cache = {key: stats[key] for key in ("hits", "misses", "shared_hits")}
    _BASELINE["cache"] = dict(cache, hit_rate=round(stats["hits"] / classified, 4))
    print_report(
        f"Explorer classification caches ({min(SCHEDULES, 500)} sampled schedules)",
        render_table(["metric", "value"], sorted(cache.items())),
    )
    assert result.total_schedules() == min(SCHEDULES, 500)


def test_explorer_parallel_speedup_and_determinism(print_report):
    cores = available_workers()
    serial_result, serial_rate, serial_time, _ = _serial_run()
    # The rebuild target is 2 workers (the ISSUE 4 acceptance bar); more
    # workers only help when the cores exist.
    workers = 2
    parallel_result, parallel_rate, parallel_time = _run(workers=workers)

    fingerprint_match = serial_result.fingerprint() == parallel_result.fingerprint()
    speedup = parallel_rate / serial_rate
    phases = _phase_breakdown(parallel_result, parallel_time, workers=workers)
    # Split the parallel residual into its measured components so the batch
    # kernel's IPC impact is visible: pickling cost scales with chunk traffic,
    # spin-up is a fixed pool tax, and only the remainder is true waiting.
    pickling, spinup = _parallel_overheads(parallel_result, workers)
    residual = phases.pop("ipc_and_other_s")
    phases["chunk_pickling_s"] = round(pickling, 4)
    phases["pool_spinup_s"] = round(spinup, 4)
    phases["ipc_other_s"] = round(max(0.0, residual - pickling - spinup), 4)
    _BASELINE["parallel"] = {
        "workers": workers, "schedules_per_sec": round(parallel_rate, 1),
        "wall_s": round(parallel_time, 3), "speedup": round(speedup, 2),
        "phases": phases,
    }
    _BASELINE["fingerprint_match"] = fingerprint_match

    print_report(
        f"Explorer throughput: {SCHEDULES} schedules x {len(LEVELS)} levels "
        f"({cores} usable cores)",
        render_table(
            ["configuration", "schedules/sec", "wall s", "speedup"],
            [
                ["serial (1 worker)", f"{serial_rate:,.0f}", f"{serial_time:.2f}", "1.00x"],
                [f"parallel ({workers} workers)", f"{parallel_rate:,.0f}",
                 f"{parallel_time:.2f}", f"{speedup:.2f}x"],
            ],
        ),
    )
    assert fingerprint_match, "parallel exploration must be byte-identical to serial"
    min_speedup = float(os.environ.get("BENCH_PARALLEL_MIN_SPEEDUP", "1.5"))
    gate_ran = cores >= 2 and SCHEDULES >= 2000
    # Recorded so CI can assert the gate actually *ran* (a 1-core runner or a
    # smoke-sized budget skips it silently otherwise; see the `benchmarks`
    # job, which fails when `parallel_gate.ran` is false).
    _BASELINE["parallel_gate"] = {
        "ran": gate_ran,
        "min_speedup": min_speedup,
        "speedup": round(speedup, 2),
        "cores": cores,
        "schedules": SCHEDULES,
    }
    if gate_ran:
        assert speedup >= min_speedup, (
            f"expected >= {min_speedup}x speedup at 2 workers on {cores} cores, "
            f"got {speedup:.2f}x (tune via BENCH_PARALLEL_MIN_SPEEDUP)"
        )
    else:
        # On one core, two workers time-slice a single CPU and cannot beat
        # serial; smoke-sized runs pay fixed pool startup against a
        # sub-second workload.  Only the fingerprint is load-bearing there.
        pytest.skip(f"speedup assertion needs >= 2 cores and >= 2000 schedules, "
                    f"have {cores} cores / {SCHEDULES} (measured {speedup:.2f}x)")


def test_trie_executor_vs_from_scratch(print_report):
    """The tentpole gate: byte-equal outcomes, strictly fewer executed slots."""
    level = IsolationLevelName.READ_COMMITTED
    count = min(SCHEDULES, 1000)
    _, programs = build_program_set(SPEC)
    schedules = schedule_space(programs, mode="sample", max_schedules=count,
                               seed=SEED).schedules

    def outcome_key(outcome):
        return (outcome.history.to_shorthand(), outcome.blocked_events,
                len(outcome.deadlocks), outcome.stalled)

    started = time.perf_counter()
    scratch = []
    runner = None
    for schedule in schedules:
        database, progs = build_program_set(SPEC)
        engine = make_engine(database, level)
        if runner is None:
            runner = ScheduleRunner(engine, progs, schedule, collect_traces=False)
            scratch.append(outcome_key(runner.run()))
        else:
            scratch.append(outcome_key(runner.replay(engine, schedule)))
    scratch_time = time.perf_counter() - started

    # This section measures the prefix-sharing trie walk itself; the batch
    # kernel (the default run_batch route) has its own section below.
    database, progs = build_program_set(SPEC)
    executor = TrieExecutor(database, progs, level, batch_kernel="off")
    trie = [None] * len(schedules)
    started = time.perf_counter()
    for index, outcome in executor.run_batch(schedules):
        trie[index] = outcome_key(outcome)
    trie_time = time.perf_counter() - started

    byte_equal = trie == scratch
    speedup = scratch_time / trie_time if trie_time else float("inf")
    stats = executor.stats
    _BASELINE["trie_executor"] = {
        "schedules": count,
        "level": level.value,
        "from_scratch_schedules_per_sec": round(count / scratch_time, 1),
        "trie_schedules_per_sec": round(count / trie_time, 1),
        "speedup": round(speedup, 2),
        "checkpoints_created": stats.checkpoints_created,
        "restores": stats.restores,
        "replayed_step_ratio": round(stats.replayed_ratio, 4),
        "byte_equal": byte_equal,
    }
    print_report(
        f"Trie executor vs from-scratch ({count} schedules, {level.value})",
        render_table(
            ["metric", "value"],
            [["from-scratch schedules/sec", f"{count / scratch_time:,.0f}"],
             ["trie schedules/sec", f"{count / trie_time:,.0f}"],
             ["speedup", f"{speedup:.2f}x"],
             ["replayed-step ratio", f"{stats.replayed_ratio:.2f}"],
             ["checkpoints", str(stats.checkpoints_created)]],
        ),
    )
    assert byte_equal, "trie-executed outcomes must be byte-equal to from-scratch"
    assert stats.slots_executed < stats.slots_total, \
        "prefix sharing must save at least some slots"


def test_compiled_kernel_vs_stepwise(print_report):
    """The tentpole gate: the compiled step kernel must be byte-equal to the
    stepwise path for every engine level and measurably faster."""
    count = min(SCHEDULES, 500)
    _, programs = build_program_set(SPEC)
    schedules = schedule_space(programs, mode="sample", max_schedules=count,
                               seed=SEED).schedules

    def outcome_key(outcome):
        return (outcome.history.to_shorthand(), outcome.blocked_events,
                len(outcome.deadlocks), outcome.stalled,
                tuple(sorted((txn, state.value)
                             for txn, state in outcome.statuses.items())))

    rows = []
    section = {}
    for level in (IsolationLevelName.READ_COMMITTED,
                  IsolationLevelName.REPEATABLE_READ,
                  IsolationLevelName.SERIALIZABLE,
                  IsolationLevelName.SNAPSHOT_ISOLATION,
                  IsolationLevelName.ORACLE_READ_CONSISTENCY):
        database, progs = build_program_set(SPEC)
        stepwise = TrieExecutor(database, progs, level, compiled=False)
        started = time.perf_counter()
        reference = [outcome_key(outcome)
                     for _, outcome in stepwise.run_batch(schedules)]
        stepwise_time = time.perf_counter() - started

        database, progs = build_program_set(SPEC)
        compiled = TrieExecutor(database, progs, level, compiled=True)
        started = time.perf_counter()
        kernel = [outcome_key(outcome)
                  for _, outcome in compiled.run_batch(schedules)]
        compiled_time = time.perf_counter() - started

        byte_equal = kernel == reference
        speedup = stepwise_time / compiled_time if compiled_time else float("inf")
        rows.append([level.value, f"{count / stepwise_time:,.0f}",
                     f"{count / compiled_time:,.0f}", f"{speedup:.2f}x",
                     "yes" if byte_equal else "NO"])
        section[level.value] = {
            "stepwise_schedules_per_sec": round(count / stepwise_time, 1),
            "compiled_schedules_per_sec": round(count / compiled_time, 1),
            "speedup": round(speedup, 2),
            "byte_equal": byte_equal,
        }
        assert byte_equal, f"compiled kernel diverged from stepwise at {level.value}"
    _BASELINE["compiled_kernel"] = section
    print_report(
        f"Compiled step kernel vs stepwise ({count} schedules/level)",
        render_table(["level", "stepwise/s", "compiled/s", "speedup", "byte=="],
                     rows),
    )


def test_schedule_outcome_memo(print_report):
    """Outcome memo: oversampled/exhaustive streams stop re-executing
    commutation-equivalent schedules, with coverage identical to the full run.
    """
    # A spec no other benchmark touches, so the per-process memo starts cold.
    memo_spec = ProgramSetSpec.make("contention", transactions=3, items=4,
                                    hot_items=2, operations_per_transaction=1)
    memo_levels = (IsolationLevelName.READ_COMMITTED,
                   IsolationLevelName.SNAPSHOT_ISOLATION)
    budget = 5000
    started = time.perf_counter()
    full = explore(memo_spec, ExploreOptions(
        levels=memo_levels, mode="sample", max_schedules=budget, seed=SEED,
        outcome_memo=False))
    full_time = time.perf_counter() - started
    started = time.perf_counter()
    memoized = explore(memo_spec, ExploreOptions(
        levels=memo_levels, mode="sample", max_schedules=budget, seed=SEED,
        outcome_memo=True))
    memo_time = time.perf_counter() - started

    assert coverage_mismatches(full, memoized, levels=memo_levels) == []
    covered = memoized.total_schedules()
    executed = memoized.executed_schedules()
    assert executed < covered, "the memo must skip at least some executions"
    speedup = full_time / memo_time if memo_time else float("inf")
    _BASELINE["outcome_memo"] = {
        "workload": memo_spec.describe(),
        "space": memoized.space.total,
        "covered": covered,
        "executed": executed,
        "reuse_ratio": round(covered / executed, 2) if executed else float("inf"),
        "full_wall_s": round(full_time, 3),
        "memo_wall_s": round(memo_time, 3),
        "speedup": round(speedup, 2),
        "coverage_matches": True,
    }
    print_report(
        f"Schedule-outcome memo ({covered} schedules over a "
        f"{memoized.space.total}-schedule space)",
        render_table(
            ["metric", "value"],
            [["covered schedules", f"{covered:,}"],
             ["executed schedules", f"{executed:,}"],
             ["reuse ratio", f"{covered / max(1, executed):.1f}x"],
             ["wall (no memo)", f"{full_time:.2f}s"],
             ["wall (memo)", f"{memo_time:.2f}s"],
             ["speedup", f"{speedup:.2f}x"]],
        ),
    )


def test_reduction_ratio_and_soundness(print_report):
    """Sleep-set reduction: >= 2x fewer executions, byte-equal coverage."""
    gate_levels = (IsolationLevelName.READ_COMMITTED,
                   IsolationLevelName.SNAPSHOT_ISOLATION,
                   IsolationLevelName.SERIALIZABLE)
    rows = []
    section = {}
    for spec in (
        ProgramSetSpec.make("sharded-increments"),
        ProgramSetSpec.make("contention", transactions=3, items=3, hot_items=1,
                            operations_per_transaction=1),
        ProgramSetSpec.make("bank-transfer"),
    ):
        full = explore(spec, ExploreOptions(levels=gate_levels,
                                            mode="exhaustive",
                                            max_schedules=5000))
        started = time.perf_counter()
        reduced = explore(spec, ExploreOptions(levels=gate_levels,
                                               mode="exhaustive",
                                               max_schedules=5000,
                                               reduction="sleep-set"))
        reduced_time = time.perf_counter() - started
        assert coverage_mismatches(full, reduced, levels=gate_levels) == []
        ratio = reduced.reduction_ratio()
        per_level_executed = reduced.executed_schedules() // len(gate_levels)
        rows.append([spec.describe(), str(reduced.space.total),
                     str(per_level_executed), f"{ratio:.2f}x", "yes"])
        section[spec.name] = {
            "space": reduced.space.total,
            "executed_per_level": per_level_executed,
            "ratio": round(ratio, 2),
            "coverage_matches": True,
            "wall_s": round(reduced_time, 3),
        }
    _BASELINE["reduction"] = section
    print_report(
        "Partial-order reduction (exhaustive spaces, coverage gated)",
        render_table(["program set", "space", "executed/level", "reduction",
                      "coverage =="], rows),
    )
    best = max(entry["ratio"] for entry in section.values())
    assert best >= 2.0, f"expected >= 2x reduction somewhere, best was {best:.2f}x"


def test_explored_table4_smoke(print_report):
    """Explorer-driven Table 4: the measured matrix must equal the paper's.

    Every scenario variant's interleaving space runs under every Table 4
    level (sleep-set reduced, level-aware oracle); the aggregated cells must
    match ``EXPECTED_TABLE_4`` cell for cell, with a witness interleaving
    behind every witnessed cell and every stalled/deadlocked schedule
    handled as a first-class non-manifesting result.  The summary lands in
    ``BENCH_explorer.json`` so CI archives the measured frequencies.
    """
    started = time.perf_counter()
    table = compute_table4_explored(max_schedules=TABLE4_BUDGET)
    duration = time.perf_counter() - started
    ok, mismatches = matrix_matches(EXPECTED_TABLE_4, table.possibilities())
    witnessed = [
        cell for row in table.cells.values() for cell in row.values()
        if cell.possibility is not Possibility.NOT_POSSIBLE
    ]
    _BASELINE["table4_explored"] = {
        "budget": TABLE4_BUDGET,
        "reduction": "sleep-set",
        "schedules": table.total_schedules(),
        "stalled": table.total_stalled(),
        "cells": sum(len(row) for row in table.cells.values()),
        "witnessed_cells": len(witnessed),
        "witnesses_recorded": sum(1 for cell in witnessed if cell.witness),
        "mismatches": len(mismatches),
        "wall_s": round(duration, 3),
        "schedules_per_sec": round(table.total_schedules() / duration, 1),
    }
    print_report(
        f"Explored Table 4 ({TABLE4_BUDGET} schedules/variant budget, "
        f"{duration:.1f}s)",
        table.render(),
    )
    assert ok, "\n".join(mismatches)
    assert all(cell.witness is not None for cell in witnessed)


def test_static_pruning_table4(print_report):
    """Static anomaly analysis: same Table 4, a large slice of the work skipped.

    ``static_pruning=True`` consults the level-aware static dependency graph
    before exploring each (scenario variant, level) scope and skips the ones
    proven impossible.  The gate is twofold: the pruned matrix must equal the
    unpruned one cell for cell (soundness — a pruned scope counts as
    non-manifesting, which is exactly what executing it would measure), and
    the pruned run must actually skip scopes and schedules (the point).
    """
    started = time.perf_counter()
    full = compute_table4_explored(max_schedules=TABLE4_BUDGET)
    full_time = time.perf_counter() - started
    started = time.perf_counter()
    pruned = compute_table4_explored(max_schedules=TABLE4_BUDGET,
                                     static_pruning=True)
    pruned_time = time.perf_counter() - started

    matrix_equal = pruned.possibilities() == full.possibilities()
    # variant_frequencies lists every variant, pruned ones included (at
    # frequency 0), so it is already the full scope count per cell.
    total_variants = sum(
        len(cell.variant_frequencies)
        for row in pruned.cells.values() for cell in row.values())
    saved = full.total_schedules() - pruned.total_schedules()
    speedup = full_time / pruned_time if pruned_time else float("inf")
    _BASELINE["static_pruning"] = {
        "budget": TABLE4_BUDGET,
        "variant_scopes": total_variants,
        "pruned_scopes": pruned.total_pruned_variants(),
        "schedules_full": full.total_schedules(),
        "schedules_pruned": pruned.total_schedules(),
        "schedules_saved_ratio": round(saved / full.total_schedules(), 4),
        "full_wall_s": round(full_time, 3),
        "pruned_wall_s": round(pruned_time, 3),
        "speedup": round(speedup, 2),
        "matrix_matches": matrix_equal,
    }
    print_report(
        f"Static pruning of the explored Table 4 ({TABLE4_BUDGET} "
        f"schedules/variant budget)",
        render_table(
            ["metric", "value"],
            [["variant scopes", str(total_variants)],
             ["statically pruned", str(pruned.total_pruned_variants())],
             ["schedules (full)", f"{full.total_schedules():,}"],
             ["schedules (pruned)", f"{pruned.total_schedules():,}"],
             ["schedules saved", f"{saved / full.total_schedules():.0%}"],
             ["speedup", f"{speedup:.2f}x"],
             ["matrix equal", "yes" if matrix_equal else "NO"]],
        ),
    )
    assert matrix_equal, "static pruning changed a Table 4 verdict"
    assert pruned.total_pruned_variants() > 0, \
        "static pruning skipped nothing — the analyzer stopped proving scopes"
    assert pruned.total_schedules() < full.total_schedules()


class _TimedStore:
    """Store proxy summing wall time spent inside store calls (serial path:
    every call is synchronous in the parent, so the sum is additive)."""

    def __init__(self, inner):
        self._inner = inner
        self.busy_s = 0.0

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            started = time.perf_counter()
            try:
                return attr(*args, **kwargs)
            finally:
                self.busy_s += time.perf_counter() - started

        return call


def test_persistence_store_overhead(print_report, tmp_path):
    """The ISSUE 8 gate: SqliteStore-backed serial exploration within 15%.

    Attaching a store pins execution batches to ``chunk_size`` (batches must
    align with the chunk-granular commit protocol), while store-free serial
    runs coarsen no-plan batches to max(chunk_size, 2048).  The store-free
    reference therefore runs at chunk_size=2048 so both paths drain identical
    batches — otherwise the ratio would measure batching, not persistence.

    The gated ratio is measured *within* each store-backed run: wall time
    spent inside store calls over total wall.  The store's true cost is
    ~0.1s-scale — smaller than this machine class's run-to-run wall noise —
    so a quotient of two independent runs' walls flaps; the in-run fraction
    shares cpufreq/cache state between numerator and denominator and is
    stable.  The store-free runs are still timed (and fingerprint-compared)
    for the absolute rates recorded alongside.  Also records the restart
    cost of a finished campaign (every chunk loaded, zero executed).
    """
    from repro.explorer.worker import _OUTCOME_MEMO_CACHE
    from repro.persist import SqliteStore

    chunk = 2048
    total = SCHEDULES * len(LEVELS)
    kwargs = dict(levels=LEVELS, mode="sample", max_schedules=SCHEDULES,
                  seed=SEED, workers=1, chunk_size=chunk)

    def timed(**extra):
        # Hermetic: earlier bench tests warm the process-global outcome memo,
        # which would make execution near-free and inflate the store's
        # relative cost.  Every timed run starts from a cold memo so the
        # ratio compares store-attached vs store-free *execution*, not
        # whichever cache state test ordering happened to leave behind.
        _OUTCOME_MEMO_CACHE.clear()
        started = time.perf_counter()
        result = explore(SPEC, ExploreOptions(**kwargs, **extra))
        return result, time.perf_counter() - started

    timed()  # warm the process-global testbed caches out of the timing

    walls = []
    ratios = []
    resume_wall = None
    chunks_committed = 0
    for attempt in range(max(1, PERSIST_RUNS)):
        plain, plain_wall = timed()
        store = SqliteStore(tmp_path / f"bench-{attempt}.sqlite")
        timed_store = _TimedStore(store)
        try:
            stored, store_wall = timed(store=timed_store, campaign_id="bench")
            assert stored.fingerprint() == plain.fingerprint(), \
                "attaching a store changed the record stream"
            ratios.append((store_wall - timed_store.busy_s) / store_wall)
            chunks_committed = sum(
                level.cache_stats.get("store_chunks_committed", 0)
                for level in stored.levels.values())
            if resume_wall is None:
                resumed, resume_wall = timed(store=store, campaign_id="bench")
                assert resumed.executed_schedules() == 0
                assert resumed.fingerprint() == plain.fingerprint()
        finally:
            store.close()
        walls.append((plain_wall, store_wall))

    plain_rate = total / min(wall for wall, _ in walls)
    store_rate = total / min(wall for _, wall in walls)
    ratio = sorted(ratios)[len(ratios) // 2]
    _BASELINE["persistence"] = {
        "backend": "sqlite",
        "chunk_size": chunk,
        "plain_schedules_per_sec": round(plain_rate, 1),
        "store_schedules_per_sec": round(store_rate, 1),
        "serial_overhead_ratio": round(ratio, 4),
        "run_ratios": [round(value, 4) for value in ratios],
        "chunks_committed": chunks_committed,
        "resume_wall_s": round(resume_wall, 3),
        "resume_schedules_per_sec": round(total / resume_wall, 1),
        "run_walls": [[round(p, 3), round(s, 3)] for p, s in walls],
    }
    print_report(
        f"Persistent campaign overhead ({SCHEDULES} schedules x "
        f"{len(LEVELS)} levels, SqliteStore)",
        render_table(
            ["metric", "value"],
            [["schedules/sec (no store)", f"{plain_rate:,.0f}"],
             ["schedules/sec (sqlite)", f"{store_rate:,.0f}"],
             ["in-run throughput ratio", f"{ratio:.3f}"],
             ["chunks committed", str(chunks_committed)],
             ["resume (0 executed) wall s", f"{resume_wall:.2f}"]],
        ),
    )
    if SCHEDULES >= 2000:
        assert ratio >= PERSIST_MIN_RATIO, (
            f"SqliteStore costs {1 - ratio:.0%} of serial throughput — over "
            f"the 15% bar (tune via BENCH_PERSIST_MIN_RATIO)")


def test_streaming_million_schedule_sampling(print_report):
    """Sampling STREAM_SCHEDULES schedules holds O(chunk) memory, no list."""
    _, programs = build_program_set(STREAM_SPEC)
    space = schedule_space(programs, mode="sample",
                           max_schedules=STREAM_SCHEDULES, seed=SEED)
    rss_before = _peak_rss_kb()
    started = time.perf_counter()
    count = 0
    chunk_sizes = set()
    for _, chunk in space.iter_chunks(4096):
        count += len(chunk)
        chunk_sizes.add(len(chunk))
    duration = time.perf_counter() - started
    rss_after = _peak_rss_kb()

    assert count == STREAM_SCHEDULES
    assert space._materialized is None, "streaming must not materialize the space"
    assert max(chunk_sizes) <= 4096
    rate = count / duration
    _BASELINE["streaming"] = {
        "sampled": count,
        "schedules_per_sec": round(rate, 1),
        "wall_s": round(duration, 3),
        "peak_rss_growth_kb": rss_after - rss_before,
        "materialized": False,
    }
    print_report(
        f"Streaming schedule generation ({count:,} sampled interleavings)",
        render_table(
            ["metric", "value"],
            [["schedules/sec", f"{rate:,.0f}"],
             ["wall s", f"{duration:.2f}"],
             ["peak RSS growth", f"{rss_after - rss_before} kB"],
             ["materialized list", "no"]],
        ),
    )


def test_distributed_campaign_throughput(print_report, tmp_path):
    """Distributed campaign throughput plus worker-kill recovery latency.

    Informational, not gated: on a single-core container two worker
    processes cannot beat serial (the committed baseline records the
    honest overhead), and the recovery latency is dominated by tunable
    lease/heartbeat intervals rather than code speed.  What *is* asserted
    at any speed is the contract: both the clean and the faulted run must
    reproduce the serial fingerprint byte for byte, and the kill must
    actually cost a respawn.
    """
    from repro.distrib import CampaignRunner, FaultPlan
    from repro.persist import SqliteStore, fingerprint_from_store

    workers = 2
    total = SCHEDULES * len(LEVELS)
    kwargs = dict(levels=LEVELS, mode="sample", max_schedules=SCHEDULES,
                  seed=SEED, chunk_size=64, workers=workers,
                  lease_duration=2.0, heartbeat_interval=0.25,
                  deadline_s=600.0)

    def run(name, faults):
        store = SqliteStore(tmp_path / f"distrib-{name}.sqlite")
        try:
            started = time.perf_counter()
            result = CampaignRunner(store, SPEC, faults=faults,
                                    **kwargs).run()
            wall = time.perf_counter() - started
            assert result.success, (name, result)
            fingerprint = fingerprint_from_store(store, result.campaign_id)
        finally:
            store.close()
        return result, wall, fingerprint

    control = explore(SPEC, ExploreOptions(
        levels=LEVELS, mode="sample", max_schedules=SCHEDULES,
        seed=SEED, chunk_size=64))
    clean, clean_wall, clean_fingerprint = run("clean", FaultPlan())
    assert clean_fingerprint == control.fingerprint(), \
        "distributing the campaign changed the record stream"

    plan = FaultPlan.parse(["kill:worker=0:ordinal=1"])
    faulted, fault_wall, fault_fingerprint = run("kill", plan)
    assert fault_fingerprint == control.fingerprint(), \
        "a worker kill changed the record stream"
    assert faulted.respawns >= 1
    recovery_ms = (faulted.recovery_latency_s or 0.0) * 1000

    _BASELINE["distrib"] = {
        "backend": "sqlite",
        "workers": workers,
        "schedules_per_sec": round(total / clean_wall, 1),
        "faulted_schedules_per_sec": round(total / fault_wall, 1),
        "clean_wall_s": round(clean_wall, 3),
        "fault_wall_s": round(fault_wall, 3),
        "fault_plan": list(plan.encode()),
        "respawns": faulted.respawns,
        "recovery_latency_ms": round(recovery_ms, 1),
        "byte_equal": True,
    }
    print_report(
        f"Distributed campaign ({SCHEDULES} schedules x {len(LEVELS)} "
        f"levels, {workers} workers, SqliteStore)",
        render_table(
            ["metric", "value"],
            [["schedules/sec (fault-free)", f"{total / clean_wall:,.0f}"],
             ["schedules/sec (worker killed)", f"{total / fault_wall:,.0f}"],
             ["workers respawned", str(faulted.respawns)],
             ["kill recovery latency", f"{recovery_ms:.0f} ms"],
             ["byte-identical to serial", "yes"]],
        ),
    )


def test_service_throughput(print_report):
    """ISSUE 10 acceptance: the online certifier under >= 50 concurrent clients.

    Drives the seeded load generator through the in-process classifier path
    (one :class:`OnlineClassifier` per client stream, per-op classify latency
    timed around each ``feed``), then verifies every stream's final verdict
    byte-equal against the offline ``BatchClassifier`` ground truth — the
    service's correctness contract, enforced here on every bench run, not
    just in the property suite.  Records anomalies/sec (certificates emitted
    over classify busy time) and p50/p99 per-op classify latency.  Client
    count honours ``BENCH_SERVICE_CLIENTS`` (default 50; smoke runs may
    shrink it, the committed baseline must not).
    """
    from repro.service import LoadConfig, run_load

    clients = int(os.environ.get("BENCH_SERVICE_CLIENTS", "50"))
    config = LoadConfig(clients=clients, transactions_per_client=20,
                        ops_per_transaction=6, seed=SEED)
    report = run_load(config, verify=True)
    assert report.byte_equal, \
        "online verdicts diverged from the offline classifier"
    assert report.certificates >= 1, \
        "load generator produced no certified anomalies"

    _BASELINE["service"] = {
        "clients": report.clients,
        "ops": report.ops,
        "certificates": report.certificates,
        "anomalies_per_sec": round(report.anomalies_per_sec, 1),
        "p50_classify_us": round(report.p50_classify_us, 1),
        "p99_classify_us": round(report.p99_classify_us, 1),
        "wall_s": round(report.wall_s, 3),
        "byte_equal": report.byte_equal,
    }
    print_report(
        f"Online certifier service ({report.clients} clients, "
        f"{report.ops} ops)",
        render_table(
            ["metric", "value"],
            [["anomalies/sec", f"{report.anomalies_per_sec:,.0f}"],
             ["certificates", str(report.certificates)],
             ["p50 classify latency", f"{report.p50_classify_us:.0f} us"],
             ["p99 classify latency", f"{report.p99_classify_us:.0f} us"],
             ["byte-equal to offline", "yes"]],
        ),
    )
