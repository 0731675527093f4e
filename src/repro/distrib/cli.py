"""``python -m repro distrib`` — fault-tolerant distributed campaigns.

Subcommands:

* ``run``    — run (or resume) a campaign under the leased work queue with
  N supervised worker processes, optionally injecting faults
  (``--faults kill:worker=0:ordinal=2 --faults hang:worker=1:duration=0.8``
  or a whole deterministic schedule via ``--fault-seed``).  Prints the
  coverage report rebuilt from the store and exits nonzero when the
  campaign could not fully commit (poisoned chunks, timeout).
* ``verify`` — run the same campaign distributed *and* serially in-process,
  then byte-diff the two coverage reports and fingerprints; the exit code
  is the diff.

The fault flags exist for chaos testing and demos; they change wall-clock
and retry counters only.  Records are a pure function of the campaign
config — that is the whole point, and ``verify`` is the proof.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from ..explorer.options import BATCH_KERNEL_MODES, ExploreOptions
from ..persist.cli import UsageError, _spec_from_args, options_from_args
from ..persist.sqlite_store import SqliteStore
from ..persist.store import StoreError
from ..workloads.program_sets import available_program_sets
from .faults import FaultPlan
from .runner import CampaignRunner

__all__ = ["main"]


def _options_from_args(args: argparse.Namespace) -> ExploreOptions:
    """The exploration flags, checked before the store is opened."""
    return options_from_args(
        args, mode=args.mode, max_schedules=args.max_schedules, seed=args.seed,
        chunk_size=args.chunk_size, workers=args.workers,
        batch_kernel=args.batch_kernel)


def _plan_from_args(args: argparse.Namespace) -> FaultPlan:
    if args.faults and args.fault_seed is not None:
        raise SystemExit("--faults and --fault-seed are mutually exclusive")
    if args.fault_seed is not None:
        return FaultPlan.random(args.fault_seed, workers=int(args.workers))
    try:
        return FaultPlan.parse(args.faults or [])
    except ValueError as error:
        raise SystemExit(f"bad --faults value: {error}")


def _runner(store, spec, args: argparse.Namespace, options: ExploreOptions,
            plan: FaultPlan) -> CampaignRunner:
    return CampaignRunner(
        store, spec, levels=options.levels, mode=options.mode,
        max_schedules=options.max_schedules, seed=options.seed,
        chunk_size=options.chunk_size, workers=options.workers,
        campaign_id=args.campaign, lease_duration=args.lease_duration,
        heartbeat_interval=args.heartbeat_interval,
        max_attempts=args.max_attempts, batch_kernel=options.batch_kernel,
        faults=plan, requeue_poisoned=args.requeue_poisoned,
        deadline_s=args.deadline)


def _describe(result) -> str:
    lines = [f"campaign {result.campaign_id}: "
             f"{'complete' if result.success else 'INCOMPLETE'} in "
             f"{result.duration:.2f}s — {result.committed_chunks} chunks, "
             f"{result.committed_records} records committed"]
    if result.respawns:
        lines.append(f"  workers respawned: {result.respawns}")
    if result.fenced_results:
        lines.append(f"  zombie results fenced: {result.fenced_results}")
    if result.recovery_latency_s is not None:
        lines.append(f"  worst recovery latency: "
                     f"{result.recovery_latency_s * 1000:.0f} ms")
    if result.timed_out:
        lines.append("  deadline exceeded before the campaign finished")
    for poisoned in result.poisoned:
        lines.append(f"  poisoned: [{poisoned.scope}] chunk "
                     f"{poisoned.chunk_index} after {poisoned.attempts} "
                     f"attempts (requeue with --requeue-poisoned)")
    return "\n".join(lines)


def _cmd_run(args: argparse.Namespace) -> int:
    from ..analysis.coverage import coverage_report_from_store

    spec = _spec_from_args(args)
    options = _options_from_args(args)
    plan = _plan_from_args(args)
    store = SqliteStore(args.store)
    try:
        runner = _runner(store, spec, args, options, plan)
        result = runner.run()
        print(_describe(result))
        if args.stats:
            print(json.dumps(result.stats, indent=2, sort_keys=True))
        if result.success:
            report = coverage_report_from_store(store, result.campaign_id,
                                                levels=runner.levels)
            print(report.render(title=f"campaign {result.campaign_id}"))
        return 0 if result.success else 1
    finally:
        store.close()


def _cmd_verify(args: argparse.Namespace) -> int:
    from .faults import run_with_faults, serial_reference

    spec = _spec_from_args(args)
    options = _options_from_args(args)
    plan = _plan_from_args(args)
    control_render, control_fingerprint = serial_reference(
        spec, options.levels, mode=options.mode,
        max_schedules=options.max_schedules, seed=options.seed,
        chunk_size=options.chunk_size, batch_kernel=options.batch_kernel)
    store = SqliteStore(args.store)
    try:
        result, render, fingerprint = run_with_faults(
            store, spec, options.levels, plan, mode=options.mode,
            max_schedules=options.max_schedules, seed=options.seed,
            chunk_size=options.chunk_size, workers=options.workers,
            campaign_id=args.campaign, lease_duration=args.lease_duration,
            heartbeat_interval=args.heartbeat_interval,
            max_attempts=args.max_attempts, batch_kernel=options.batch_kernel,
            deadline_s=args.deadline)
    finally:
        store.close()
    print(_describe(result))
    if not result.success:
        return 1
    if render != control_render or fingerprint != control_fingerprint:
        print("MISMATCH: distributed run diverged from the serial control",
              file=sys.stderr)
        return 1
    print(f"byte-identical to serial: fingerprint {fingerprint[:16]}…")
    return 0


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", required=True, help="SQLite store path")
    parser.add_argument("--program-set", required=True,
                        help=f"one of: {', '.join(available_program_sets())}")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="program-set parameter (repeatable; JSON values)")
    parser.add_argument("--campaign", default=None,
                        help="campaign id (default: derived from the config)")
    parser.add_argument("--mode", default="auto",
                        choices=["auto", "exhaustive", "sample"])
    parser.add_argument("--max-schedules", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--chunk-size", type=int, default=64)
    parser.add_argument("--levels", default=None,
                        help="comma-separated isolation levels")
    parser.add_argument("--workers", type=int, default=2,
                        help="supervised worker processes (default: 2)")
    parser.add_argument("--faults", action="append", metavar="SPEC",
                        help="inject one fault, e.g. kill:worker=0:ordinal=2, "
                             "hang:worker=1:duration=0.8, "
                             "slow-commit:ordinal=3:duration=0.2, "
                             "sqlite-lock:ordinal=2:count=2 (repeatable)")
    parser.add_argument("--fault-seed", type=int, default=None,
                        help="derive a whole deterministic fault schedule "
                             "from this seed instead of --faults")
    parser.add_argument("--lease-duration", type=float, default=2.0)
    parser.add_argument("--heartbeat-interval", type=float, default=0.5)
    parser.add_argument("--max-attempts", type=int, default=5,
                        help="executions before a chunk is quarantined "
                             "as poisoned")
    parser.add_argument("--batch-kernel", default=None,
                        choices=BATCH_KERNEL_MODES,
                        help="batch-kernel override passed through to workers")
    parser.add_argument("--requeue-poisoned", action="store_true",
                        help="reset previously poisoned chunks before running")
    parser.add_argument("--deadline", type=float, default=300.0,
                        help="give up after this many seconds (exit 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro distrib",
        description="Fault-tolerant distributed exploration campaigns.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a campaign with N leased workers")
    _add_run_flags(run)
    run.add_argument("--stats", action="store_true",
                     help="also print lease/store/worker counters as JSON")
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser(
        "verify", help="byte-diff a distributed run against a serial control")
    _add_run_flags(verify)
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StoreError, UsageError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
