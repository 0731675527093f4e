"""Chaos the distributed campaign runner and byte-diff every leg vs serial.

The ``chaos-campaign`` CI job runs this script.  It is the tentpole
contract of ``repro.distrib`` staged as a matrix: for each of several
seeds, ``FaultPlan.random(seed)`` derives a deterministic schedule of
worker SIGKILLs, heartbeat hangs, slow commits, and transient SQLite lock
errors; the campaign runs under that schedule on **two** store legs — a
store file and ``SqliteStore(":memory:")``, so the lock faults fire on
both — with real supervised worker processes; and the coverage report plus
fingerprint rebuilt from the store must be **byte-identical** to a
fault-free serial run.  A fault-free control leg rides along so a failure
can be attributed to the faults rather than the distribution.

Any leg that fails, poisons a chunk, or diverges by a byte fails the job.
The SQLite stores and a JSON log of every leg are left behind in ``--dir``
so CI can upload them as an artifact (the stores are plain SQLite — any
client can autopsy a failure).

Usage: python benchmarks/check_chaos_campaign.py [--dir OUTDIR]
                                                 [--seeds N] [--workers N]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

CAMPAIGN_KWARGS = dict(max_schedules=200, seed=0, chunk_size=8, workers=2,
                       lease_duration=0.4, heartbeat_interval=0.1,
                       max_attempts=6, deadline_s=120.0)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default="chaos-campaign-artifacts",
                        help="directory for store files and the leg log")
    parser.add_argument("--seeds", type=int, default=3,
                        help="random fault schedules to run (>= 3 in CI)")
    parser.add_argument("--workers", type=int, default=None,
                        help="override the worker count")
    args = parser.parse_args(argv)
    outdir = Path(args.dir)
    outdir.mkdir(parents=True, exist_ok=True)
    kwargs = dict(CAMPAIGN_KWARGS)
    if args.workers is not None:
        kwargs["workers"] = args.workers

    from repro.distrib.faults import FaultPlan, run_fault_matrix
    from repro.persist import SqliteStore
    from repro.workloads.program_sets import ProgramSetSpec

    spec = ProgramSetSpec.make("increments")
    plans = [FaultPlan()] + [FaultPlan.random(seed, workers=kwargs["workers"])
                             for seed in range(args.seeds)]
    for index, plan in enumerate(plans):
        label = "control" if index == 0 else f"seed {index - 1}"
        print(f"plan {index} ({label}): "
              f"{list(plan.encode()) or 'no faults'}")

    legs = run_fault_matrix(
        spec, None, plans,
        [("memory", lambda index: SqliteStore(":memory:")),
         ("sqlite", lambda index: SqliteStore(outdir / f"leg{index}.sqlite"))],
        **kwargs)

    failures = []
    for leg in legs:
        verdict = "ok" if (leg["success"] and leg["byte_equal"]
                           and not leg["poisoned"]) else "FAIL"
        recovery = leg["recovery_latency_s"]
        print(f"plan {leg['plan_index']} on {leg['backend']:7s}: {verdict}  "
              f"(respawns={leg['respawns']}, fenced={leg['fenced_results']}, "
              f"recovery={'%.0f ms' % (recovery * 1000) if recovery else '-'})")
        if verdict == "FAIL":
            failures.append(
                f"plan {leg['plan_index']} ({leg['plan']}) on "
                f"{leg['backend']}: success={leg['success']} "
                f"byte_equal={leg['byte_equal']} poisoned={leg['poisoned']}")

    log_path = outdir / "legs.json"
    log_path.write_text(json.dumps(legs, indent=2, sort_keys=True))
    print(f"leg log written to {log_path}")

    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print(f"PASS — {len(legs)} legs byte-identical to serial "
          f"({len(plans)} fault plans x 2 store legs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
