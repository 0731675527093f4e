"""Chaos the distributed campaign runner and byte-diff every leg vs serial.

The ``system`` CI job runs this script (pytest does not collect it).  It is the tentpole
contract of ``repro.distrib`` staged as a matrix: for each of several
seeds, ``FaultPlan.random(seed)`` derives a deterministic schedule of
worker SIGKILLs, heartbeat hangs, slow commits, and transient SQLite lock
errors, and one fixed plan kills worker 0 on its first chunk while a second
lease waits queued behind it; the campaign runs under each plan on **two**
store legs — a store file and ``SqliteStore(":memory:")``, so the lock
faults fire on both — with real supervised worker processes; and the
coverage report plus
fingerprint rebuilt from the store must be **byte-identical** to a
fault-free serial run.  A fault-free control leg rides along so a failure
can be attributed to the faults rather than the distribution.

Any leg that fails, poisons a chunk, or diverges by a byte fails the job.
The SQLite stores and a JSON log of every leg are left behind in ``--dir``
so CI can upload them as an artifact (the stores are plain SQLite — any
client can autopsy a failure).

Usage: python tests/system/check_chaos_campaign.py [--dir OUTDIR]
                                                   [--seeds N] [--workers N]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

CAMPAIGN = dict(max_schedules=200, seed=0, chunk_size=8, workers=2)
SUPERVISION = dict(lease_duration=0.4, heartbeat_interval=0.1,
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

    from repro.distrib.faults import FaultPlan, run_fault_matrix

    # Worker 0 dies on its first chunk with a second lease queued behind it:
    # the running chunk is charged, the queued one released.
    PREFETCH_KILL = FaultPlan.parse(["kill:worker=0:ordinal=0"])
    from repro.explorer import ExploreOptions
    from repro.persist import SqliteStore
    from repro.workloads.program_sets import ProgramSetSpec

    spec = ProgramSetSpec.make("increments")
    options = ExploreOptions(**CAMPAIGN)
    if args.workers is not None:
        options = options.replace(workers=args.workers)
    plans = [FaultPlan()] + [FaultPlan.random(seed, workers=options.workers)
                             for seed in range(args.seeds)] + [PREFETCH_KILL]
    for index, plan in enumerate(plans):
        label = ("control" if index == 0 else "fixed prefetch kill"
                 if plan is PREFETCH_KILL else f"seed {index - 1}")
        print(f"plan {index} ({label}): "
              f"{list(plan.encode()) or 'no faults'}")

    legs = run_fault_matrix(
        spec, options, plans,
        [("memory", lambda index: SqliteStore(":memory:")),
         ("sqlite", lambda index: SqliteStore(outdir / f"leg{index}.sqlite"))],
        **SUPERVISION)

    failures = []
    for leg in legs:
        # The fixed leg must have taken the release-on-death path.
        released = (leg["plan"] != list(PREFETCH_KILL.encode())
                    or leg["stats"].get("leases_released", 0) >= 1)
        verdict = "ok" if (leg["success"] and leg["byte_equal"] and released
                           and not leg["poisoned"]) else "FAIL"
        recovery = leg["recovery_latency_s"]
        print(f"plan {leg['plan_index']} on {leg['backend']:7s}: {verdict}  "
              f"(respawns={leg['respawns']}, fenced={leg['fenced_results']}, "
              f"recovery={'%.0f ms' % (recovery * 1000) if recovery else '-'})")
        if verdict == "FAIL":
            failures.append(
                f"plan {leg['plan_index']} ({leg['plan']}) on "
                f"{leg['backend']}: success={leg['success']} "
                f"byte_equal={leg['byte_equal']} poisoned={leg['poisoned']} "
                f"released={leg['stats'].get('leases_released', 0)}")

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
