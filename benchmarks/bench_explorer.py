"""Schedule-space explorer byte-equality gates: kernel, trie, reduction, pruning.

Not a paper figure.  End-to-end timing claims belong to the layered ledger
(``BENCHMARK.json``, ``benchmarks/ledger/``); this file keeps the gates the
ledger has no counterpart for, and every run writes what they measured to
``BENCH_explorer.json`` so CI can archive it — the ``bench-smoke`` CI job
fails on a >30% drop of the batch-kernel aggregate against the committed
baseline.

Hard checks enforced here:

* the batch kernel must produce byte-identical outcomes to the stepwise trie
  walk at every level it supports, with no row ejected;
* the trie executor must produce byte-identical records to from-scratch
  execution while re-executing strictly fewer slots;
* sleep-set reduction must report *identical* per-level anomaly coverage to
  the full run, with >= 2x fewer executions on a registered program set;
* static pruning must leave the explored Table 4 unchanged cell for cell;
* sampling ``BENCH_EXPLORER_STREAM`` schedules must run under streaming,
  never materializing the schedule list.

Workload sizes honour ``BENCH_EXPLORER_SCHEDULES`` (default 2000),
``BENCH_EXPLORER_STREAM`` (default 1,000,000) and ``BENCH_TABLE4_BUDGET``
(default 1024) so CI smoke runs stay small.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.coverage import coverage_mismatches
from repro.analysis.matrix import compute_table4_explored
from repro.analysis.report import render_table
from repro.core.isolation import IsolationLevelName
from repro.engine.scheduler import ScheduleRunner
from repro.explorer import (
    ExploreOptions,
    ProgramSetSpec,
    TrieExecutor,
    available_workers,
    explore,
    schedule_space,
)
from repro.testbed import make_engine
from repro.workloads.program_sets import build_program_set

SPEC = ProgramSetSpec.make("contention", transactions=4, items=4, hot_items=2,
                           operations_per_transaction=2)
#: Streaming generation target: a space of ~1.4e11 interleavings, so even a
#: million-schedule sample is a vanishing fraction (pure i.i.d., no tracking).
STREAM_SPEC = ProgramSetSpec.make("contention", transactions=6, items=8,
                                  hot_items=2, operations_per_transaction=2)
SCHEDULES = int(os.environ.get("BENCH_EXPLORER_SCHEDULES", "2000"))
STREAM_SCHEDULES = int(os.environ.get("BENCH_EXPLORER_STREAM", "1000000"))
#: Per-variant schedule budget for the static-pruning gate.  The default
#: still covers every curated variant space exhaustively (the largest has
#: 924 interleavings).
TABLE4_BUDGET = int(os.environ.get("BENCH_TABLE4_BUDGET", "1024"))
SEED = 42
#: The seed repo's serial throughput on the reference container, measured
#: before any explorer optimisation: the unit of the batch-kernel bar.
SEED_SERIAL_RATE = 961.0
#: The batch-drain kernel's bar: aggregate serial throughput across the five
#: supported levels must reach >= 20x seed.  Env-tunable for slower runner
#: classes.
BATCH_MIN_RATE = float(os.environ.get("BENCH_BATCH_MIN_RATE",
                                      str(20 * SEED_SERIAL_RATE)))
#: Batch-kernel timing runs per level: the recorded rate is the best of this
#: many drains, damping scheduler noise on small shared VMs.
BATCH_RUNS = int(os.environ.get("BENCH_BATCH_RUNS", "5"))

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
    # Environment metadata, so committed baselines are auditable: absolute
    # throughput comparisons are only meaningful against the same class of
    # interpreter and machine.
    "cores": available_workers(),
    "python_version": platform.python_version(),
    "platform": platform.platform(),
    "implementation": sys.implementation.name,
}


def _peak_rss_kb() -> int:
    """Peak resident set size of this process, in kilobytes (Linux semantics)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@pytest.fixture(scope="session", autouse=True)
def write_baseline():
    """Flush whatever sections the selected tests produced, at session end."""
    yield
    _BASELINE["peak_rss_kb"] = _peak_rss_kb()
    BASELINE_PATH.write_text(json.dumps(_BASELINE, indent=2, sort_keys=True) + "\n")


def test_batch_kernel_vs_stepwise(print_report):
    """The batch-drain kernel must stay byte-equal to the stepwise trie walk
    at every supported level, keep the fast path fully occupied on a
    registered workload, and lift aggregate serial throughput to >= 20x seed.

    Correctness and throughput are separate passes: the first pass keys every
    outcome (byte-equality, occupancy), then the drain itself — execution
    only, no record rendering — is timed over BATCH_RUNS fresh executors per
    level and the best run recorded.
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
    # kernel (the default run_batch route) has its own section above.
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
