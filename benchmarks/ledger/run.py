#!/usr/bin/env python3
"""The layered ledger: one command for every workload, metric and check.

    python benchmarks/ledger/run.py --seed 42            # every workload
    python benchmarks/ledger/run.py --seed 42 --trace    # plus the traced legs
    python benchmarks/ledger/run.py compare A.json B.json

and, one workload at a time, the form ``BENCHMARK.json`` names:

    python benchmarks/ledger/run.py --workload certify_tcp --seed 7 \\
        --seconds 12 --trace 0

which prints one JSON object as its last line: ``correct``, ``attempted``,
``failed`` and the ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).  Exit codes: 0 ok, 1 an output check failed, 2 a named
harness error (for instance a parallel workload on a 1-core host).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import sqlite3
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
# Run as a script, sys.path[0] is this directory, where trace.py would shadow
# the standard library's; import the directory as the package it is instead.
sys.path[0] = str(LEDGER.parent)
sys.path.insert(1, str(ROOT / "src"))

from ledger import compare as compare_module  # noqa: E402
from ledger import metrics as names  # noqa: E402
from ledger.stats import median, summarize  # noqa: E402

VERDICT_EXIT = {"CLEAR": 0, "SUSPICIOUS": 1, "ANOMALY_DETECTED": 2}


def _require_program() -> None:
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"error: the program under test is not importable from "
              f"{ROOT / 'src'}: {error}", file=sys.stderr)
        raise SystemExit(2)


def environment() -> Dict[str, Any]:
    from ledger.workloads import parallelism
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(), "parallelism": parallelism(),
        "python": platform.python_version(), "sqlite": sqlite3.sqlite_version,
        "numpy": numpy_version, "sqlite_flush_policy": _flush_policy(),
        "children_env": {"PYTHONHASHSEED": "0"}, "commit": commit,
    }


def _flush_policy() -> Dict[str, Any]:
    """journal_mode / synchronous exactly as ``SqliteStore`` sets them."""
    from ledger.workloads import OUT
    from repro.persist import SqliteStore
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"flush-policy-{os.getpid()}.sqlite"
    store = SqliteStore(str(path))
    try:
        connection = store._conn
        return {"journal_mode": connection.execute("PRAGMA journal_mode").fetchone()[0],
                "synchronous": connection.execute("PRAGMA synchronous").fetchone()[0]}
    finally:
        store.close()
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(f"{path}{suffix}"):
                os.unlink(f"{path}{suffix}")


# -- one workload ----------------------------------------------------------------------

def run_workload(name: str, ctx, seconds: float, trace: bool,
                 full: bool = False, min_reps: int = 1) -> Dict[str, Any]:
    """Repeat one workload for ``seconds``; with ``trace`` add the traced leg.

    ``full`` repetitions append the phases the shared end-to-end metrics do
    not time (the campaign's re-run and inspect, the certifier's open loop).
    Returns the samples of every metric (one per repetition), the check
    counts, and — traced — the per-layer values.
    """
    from ledger.workloads import WORKLOADS
    workload = WORKLOADS[name]
    reps = []
    started = time.perf_counter()
    while True:
        before = time.perf_counter()
        reps.append(workload.rep(ctx, full))
        now = time.perf_counter()
        # Stop once another repetition would overshoot more than it fills.
        if len(reps) >= min_reps and now - started + 0.5 * (now - before) >= seconds:
            break
    walls = [(rep.work, wall) for rep in reps for wall in rep.walls or [rep.wall_s]]
    samples: Dict[str, List[float]] = {
        "wall_s": [wall for _, wall in walls],
        "throughput_per_s": [work / wall for work, wall in walls],
        "peak_rss_mb": [rep.rss_mb for rep in reps],
        "setup_s": [rep.setup_s for rep in reps],
    }
    for rep in reps:
        for metric, value in rep.extra.items():
            samples.setdefault(metric, []).append(value)
    result: Dict[str, Any] = {
        "samples": samples,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "notes": [note for rep in reps for note in rep.notes],
        "fingerprint": reps[0].fingerprint,
    }
    if len({rep.fingerprint for rep in reps}) > 1:
        result["failed"] = result["attempted"]
        result["notes"].append("repetitions disagree on the fingerprint")
    if trace:
        # The traced leg compares itself with the typical repetition, not
        # with whichever happened to run first.
        typical = dataclasses.replace(reps[0], wall_s=median(samples["wall_s"]))
        result["layers"] = workload.trace(ctx, typical)
    return result


def driver_metrics(result: Dict[str, Any], trace: bool) -> Dict[str, Dict[str, Any]]:
    if not trace:
        return {metric: {"value": median(result["samples"][metric]), "unit": unit}
                for metric, (unit, _, _) in names.END_TO_END.items()}
    values = {metric: median(series) for metric, series in result["samples"].items()}
    values.update(result["layers"])
    return {metric: {"value": float(values.get(metric, 0.0)), "unit": unit}
            for metric, (unit, _) in names.PER_LAYER.items()}


# -- every workload --------------------------------------------------------------------

def print_result(name: str, result: Dict[str, Any]) -> None:
    print(f"\n== {name}: {result['failed']} of {result['attempted']} operations "
          f"failed their check ==")
    for note in result["notes"]:
        print(f"  ! {note}")
    for metric, series in result["samples"].items():
        stats = summarize(series)
        print(f"  {metric:<28} {stats['median']:>12.4f} {names.unit_of(metric):<5} "
              f"min {stats['min']:.4f}  max {stats['max']:.4f}  n {stats['n']}")
    for metric, value in sorted(result.get("layers", {}).items()):
        if metric.startswith("_") or metric not in names.PER_LAYER:
            continue
        print(f"  {metric:<44} {value:>14.6f} {names.unit_of(metric):<6}"
              f" -> {names.SHOULD_MOVE[metric]}")
    missing = result.get("layers", {}).get("_missing")
    if missing:
        print(f"  ! layers not found in the program (read 0): {', '.join(missing)}")


def predictions(results: Dict[str, Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The interaction predictions, checked against the traces as measured."""
    def layers(name: str) -> Dict[str, float]:
        return results.get(name, {}).get("layers", {})

    def wall(name: str) -> float:
        return median(results[name]["samples"]["wall_s"])

    out = []

    def predict(text: str, share: Optional[float], holds) -> None:
        if share is not None:
            out.append({"prediction": text, "measured_share": share,
                        "verdict": "holds" if holds(share) else "FAILED"})

    def execute_classify(name: str) -> Optional[float]:
        found = layers(name)
        if not found:
            return None
        traced_wall = wall(name) * (1.0 + found["trace_overhead_share"])
        return (found.get("explorer.trie_executor.execute_s", 0.0)
                + found.get("explorer.memo.classify_s", 0.0)
                + found.get("engine.scheduler.run_s", 0.0)) / traced_wall

    predict("execute + classify >= 80% of explore_sparse wall",
            execute_classify("explore_sparse"), lambda share: share >= 0.80)
    predict("execute + classify < 40% of table4_exhaustive wall",
            execute_classify("table4_exhaustive"), lambda share: share < 0.40)
    predict("persist.* >= 10% of campaign_sqlite cold wall",
            layers("campaign_sqlite").get("_cold_persist_share"),
            lambda share: share >= 0.10)
    sparse = layers("explore_sparse")
    if sparse:
        persist = sum(value for name, value in sparse.items()
                      if name.startswith("persist.") and name.endswith("_s"))
        predict("persist.* ~ 0 on explore_sparse",
                persist / wall("explore_sparse"), lambda share: share < 0.01)
    certify = layers("certify_tcp")
    if certify:
        # The closed loop keeps the one server thread busy from the first
        # request to the last reply: its wall is the server's time.
        predict("service.online.feed_s < 50% of certify_tcp closed-phase server time",
                (certify["service.online.feed_s"] + certify["service.online.mv_feed_s"])
                / wall("certify_tcp"), lambda share: share < 0.50)
    return out


def run_all(args: argparse.Namespace) -> int:
    from ledger.workloads import OUT, BenchError
    ctx = make_context(args.seed)
    results: Dict[str, Dict[str, Any]] = {}
    status = 0
    try:
        for name in names.ALL:
            try:
                results[name] = run_workload(name, ctx, args.seconds, bool(args.trace),
                                             full=True, min_reps=3)
            except BenchError as error:
                print(f"\n== {name}: {type(error).__name__}: {error}", file=sys.stderr)
                status = 2
                continue
            print_result(name, results[name])
            if results[name]["failed"]:
                status = max(status, 1)
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
    shared = {results[name]["fingerprint"] for name in
              ("explore_sparse", "explore_parallel", "campaign_distrib")
              if name in results}
    if len(shared) > 1:
        print("\n! explore_sparse, explore_parallel and campaign_distrib "
              "disagree on the fingerprint", file=sys.stderr)
        status = max(status, 1)
    checked = predictions(results) if args.trace else []
    for item in checked:
        print(f"  prediction: {item['prediction']}: measured "
              f"{item['measured_share']:.3f} -> {item['verdict']}")
    document = {"seed": args.seed, "seconds": args.seconds, "env": environment(),
                "workloads": results,
                "predictions": checked}
    out = Path(args.out) if args.out else OUT / f"ledger-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"\nresult set written to {out}")
    return status


def make_context(seed: int):
    from ledger.workloads import MAX_SCHEDULES, OUT, BenchError, Context
    golden = json.loads((LEDGER / "golden.json").read_text())
    if golden["max_schedules"] != MAX_SCHEDULES:
        raise BenchError(f"golden.json was recorded at max_schedules="
                         f"{golden['max_schedules']}, the workloads run {MAX_SCHEDULES}")
    tmp = OUT / "tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    return Context(seed=seed, tmp=tmp, golden=golden["fingerprints"])


def run_one(args: argparse.Namespace) -> int:
    """The form the driver calls: one workload, one JSON line."""
    ctx = make_context(args.seed)
    try:
        if args.trace:      # one repetition with every phase, then its traced leg
            result = run_workload(args.workload, ctx, 0.0, True, full=True)
        else:
            result = run_workload(args.workload, ctx, args.seconds, False, min_reps=3)
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
    for note in result["notes"]:
        print(f"check failed: {note}", file=sys.stderr)
    missing = result.get("layers", {}).get("_missing")
    if missing:
        print(f"layers not found in the program (read 0): {missing}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": driver_metrics(result, bool(args.trace)),
    }))
    return 1 if result["failed"] else 0


# -- entry -----------------------------------------------------------------------------

def main(argv: Sequence[str]) -> int:
    if argv and argv[0] == "_child":
        _require_program()
        from ledger.children import CHILDREN
        print(json.dumps(CHILDREN[argv[1]](json.loads(argv[2]))))
        return 0
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("baseline")
        parser.add_argument("candidate")
        args = parser.parse_args(argv[1:])
        verdict = compare_module.report(json.loads(Path(args.baseline).read_text()),
                                        json.loads(Path(args.candidate).read_text()))
        return VERDICT_EXIT[verdict]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names.ALL,
                        help="run one workload and print one JSON line")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=names.RUN_SECONDS,
                        help="how long each workload repeats (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="also run the traced leg and report per-layer metrics")
    parser.add_argument("--out", help="where the full run writes its result set")
    args = parser.parse_args(argv)
    _require_program()
    from ledger.workloads import BenchError
    try:
        return run_one(args) if args.workload else run_all(args)
    except BenchError as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
