"""``python -m repro`` — the one command line.

One parser tree, one campaign flag group, one ``main``:

* ``campaign run | resume | inspect | list`` — persistent exploration
  campaigns on a SQLite store (:mod:`repro.persist`).  ``resume`` takes
  the workload from the stored config; ``inspect`` prints progress,
  anomaly and witness analytics (``--report`` rebuilds the coverage report
  from the stored records, ``--json`` emits the summary as JSON).
* ``distrib run | verify`` — the same campaign under N leased, supervised
  worker processes (:mod:`repro.distrib`), optionally with injected faults
  (``--faults kill:worker=0:ordinal=2`` or a whole seeded schedule via
  ``--fault-seed``).  ``verify`` also runs the campaign serially in-process
  and byte-diffs the two coverage reports and fingerprints.
* ``serve`` — the online isolation certifier server (:mod:`repro.service`),
  until SIGTERM/SIGINT.
* ``help`` — the same usage as ``--help``.

The campaign flags (store, program set and ``--set``, campaign, mode, max
schedules, seed, chunk size, levels, workers) are declared once and shared
by ``campaign run``, ``distrib run`` and ``distrib verify``.  Every flag
value is checked at parse time by a typed validator: counts are integers
>= 1 (or ``auto`` for workers), durations finite and > 0 (>= 0 for
``--throttle-ms``), names known, levels distinct.  Exit codes: 0 success;
1 runtime failure (an incomplete or diverging distributed campaign, a
server that cannot bind); 2 usage or configuration error, printed as
``error: …`` — a bad flag value before any store file is written.  Any
other escape is a bug.

Each verb imports its subsystem inside its handler, so ``campaign`` never
loads :mod:`repro.distrib`, :mod:`repro.service` or :mod:`asyncio`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, TypeVar

from .core.isolation import IsolationLevelName
from .explorer.options import REDUCTIONS, ExploreOptions, distinct_levels
from .explorer.schedules import schedule_space
from .persist import SqliteStore, StoreError
from .workloads.program_sets import (
    ProgramSetSpec,
    available_program_sets,
    check_program_set,
)

__all__ = ["UsageError", "build_parser", "main"]

_T = TypeVar("_T")


class UsageError(Exception):
    """A bad flag value; ``main`` reports it as ``error: …`` and exits 2."""


def _checked(build: Callable[[], _T]) -> _T:
    """``build()``, with the named error a bad value raises as a UsageError.

    Only builders of options and specs go through here, never the run
    itself, so a real bug still ends in a traceback.
    """
    try:
        return build()
    except (ValueError, KeyError) as error:
        raise UsageError(error.args[0] if error.args else repr(error)) from None


# -- typed validators (argparse ``type=``) ---------------------------------------------


def _int_in(low: int, high: Optional[int] = None) -> Callable[[str], int]:
    """Integers in ``[low, high]``."""
    bound = f"in {low}..{high}" if high is not None else f">= {low}"

    def parse(text: str) -> int:
        try:
            value = int(text)
            if value >= low and (high is None or value <= high):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected an integer {bound}, got {text!r}")
    return parse


def _duration(zero_ok: bool = False) -> Callable[[str], float]:
    """Finite numbers > 0 (>= 0 with ``zero_ok``)."""
    bound = ">= 0" if zero_ok else "> 0"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if math.isfinite(value) and (value > 0 or (zero_ok and value == 0)):
            return value
        raise argparse.ArgumentTypeError(
            f"expected a finite number {bound}, got {text!r}")
    return parse


def _workers(text: str):
    if text == "auto":
        return text
    try:
        return _int_in(1)(text)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1 or 'auto', got {text!r}") from None


def _levels(text: str) -> Tuple[IsolationLevelName, ...]:
    levels = []
    for part in text.split(","):
        part = part.strip()
        try:
            levels.append(IsolationLevelName(part))
        except ValueError:
            known = ", ".join(level.value for level in IsolationLevelName)
            raise argparse.ArgumentTypeError(
                f"unknown isolation level {part!r}; one of: {known}") from None
    try:
        return distinct_levels(levels)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _param(text: str) -> Tuple[str, Any]:
    """``key=value``, the value as JSON when it parses, a bare string otherwise."""
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    try:
        return key, json.loads(value)
    except ValueError:
        return key, value


def _path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got ''")
    return text


# -- the parser tree -------------------------------------------------------------------


def _add_store(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--store", required=required, type=_path,
                        default=None, help="SQLite store path")


def _add_campaign(parser: argparse.ArgumentParser, help: str,
                  **how: Any) -> None:
    parser.add_argument("--campaign", help=help, **how)


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """Levels and workers: what a run, or a resume, may choose freely."""
    parser.add_argument("--levels", type=_levels, default=None,
                        help="comma-separated isolation levels, each once "
                             "(default: the explorer's DEFAULT_LEVELS)")
    parser.add_argument("--workers", type=_workers, default=1,
                        help="worker processes, or 'auto'")


def _add_throttle(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--throttle-ms", type=_duration(zero_ok=True),
                        default=0.0,
                        help="sleep this long before every chunk commit "
                             "(widens a kill window; wall-clock only)")


def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    """The one campaign flag group of ``campaign run`` and ``distrib``."""
    _add_store(parser)
    parser.add_argument("--program-set", required=True,
                        choices=available_program_sets(), metavar="NAME",
                        help=f"one of: {', '.join(available_program_sets())}")
    parser.add_argument("--set", type=_param, action="append",
                        metavar="KEY=VALUE",
                        help="program-set parameter (repeatable; JSON values)")
    _add_campaign(parser, "campaign id (default: derived from the config)")
    parser.add_argument("--mode", default="auto",
                        choices=["auto", "exhaustive", "sample"])
    parser.add_argument("--max-schedules", type=_int_in(1), default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--chunk-size", type=_int_in(1), default=64)
    _add_execution_flags(parser)


def _add_distrib_flags(parser: argparse.ArgumentParser) -> None:
    """The campaign group plus the fault and lease flags."""
    _add_campaign_flags(parser)
    parser.set_defaults(workers=2)
    parser.add_argument("--faults", action="append", metavar="SPEC",
                        help="inject one fault, e.g. kill:worker=0:ordinal=2, "
                             "hang:worker=1:duration=0.8, "
                             "slow-commit:ordinal=3:duration=0.2, "
                             "sqlite-lock:ordinal=2:count=2 (repeatable)")
    parser.add_argument("--fault-seed", type=int, default=None,
                        help="derive a whole deterministic fault schedule "
                             "from this seed instead of --faults")
    parser.add_argument("--lease-duration", type=_duration(), default=2.0)
    parser.add_argument("--heartbeat-interval", type=_duration(), default=0.5)
    parser.add_argument("--max-attempts", type=_int_in(1), default=5,
                        help="executions before a chunk is quarantined "
                             "as poisoned")
    parser.add_argument("--requeue-poisoned", action="store_true",
                        help="reset previously poisoned chunks before running")
    parser.add_argument("--deadline", type=_duration(), default=300.0,
                        help="give up after this many seconds (exit 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Explore, distribute and certify the isolation levels of "
                    "'A Critique of ANSI SQL Isolation Levels'.",
        epilog="exit codes: 0 success, 1 runtime failure, "
               "2 usage or configuration error")
    verbs = parser.add_subparsers(dest="verb", metavar="<command>",
                                  required=True)

    campaign = verbs.add_parser(
        "campaign", help="run, resume, and inspect persistent exploration "
                         "campaigns").add_subparsers(
        dest="action", metavar="<action>", required=True)
    run = campaign.add_parser("run", help="start (or resume) a campaign")
    _add_campaign_flags(run)
    run.add_argument("--reduction", default="none", choices=REDUCTIONS)
    _add_throttle(run)
    run.set_defaults(handler=_campaign_run)

    resume = campaign.add_parser(
        "resume", help="continue a campaign from its stored config")
    _add_store(resume)
    _add_campaign(resume, "the campaign to continue", required=True)
    _add_execution_flags(resume)
    _add_throttle(resume)
    resume.set_defaults(handler=_campaign_resume)

    inspect = campaign.add_parser("inspect",
                                  help="progress and anomaly analytics")
    _add_store(inspect)
    _add_campaign(inspect, "campaign id (default: summarize all)")
    inspect.add_argument("--report", action="store_true",
                         help="also rebuild and print the coverage report "
                              "from stored records")
    inspect.add_argument("--json", action="store_true",
                         help="emit the summary as JSON instead of text")
    inspect.set_defaults(handler=_campaign_inspect)

    listing = campaign.add_parser("list", help="one line per campaign")
    _add_store(listing)
    listing.set_defaults(handler=_campaign_list)

    distrib = verbs.add_parser(
        "distrib", help="drive a campaign through the fault-tolerant "
                        "distributed runner").add_subparsers(
        dest="action", metavar="<action>", required=True)
    distrib_run = distrib.add_parser("run",
                                     help="run a campaign with N leased workers")
    _add_distrib_flags(distrib_run)
    distrib_run.add_argument("--stats", action="store_true",
                             help="also print lease/store/worker counters "
                                  "as JSON")
    distrib_run.set_defaults(handler=_distrib_run)
    verify = distrib.add_parser(
        "verify", help="byte-diff a distributed run against a serial control")
    _add_distrib_flags(verify)
    verify.set_defaults(handler=_distrib_verify)

    serve = verbs.add_parser("serve",
                             help="run the online isolation certifier server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_int_in(0, 65535), default=0,
                       help="TCP port (default: 0 = ephemeral; the bound "
                            "port is printed on stdout)")
    _add_store(serve, required=False)
    _add_campaign(serve, "campaign id for closed streams' certificates "
                         "in --store", default="service")
    serve.add_argument("--evict-interval", type=_int_in(1), default=256,
                       help="operations between eviction passes")
    serve.set_defaults(handler=_serve)

    verbs.add_parser("help", help="print this message").set_defaults(
        handler=_help)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # A malformed argv exits 2 inside parse_args, with usage and ``error:``.
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (StoreError, UsageError) as error:
        # Bad flag values, config mismatches and store-invariant violations
        # are user errors (wrong flags, wrong campaign, wrong store).
        print(f"error: {error}", file=sys.stderr)
        return 2


def _help(args: argparse.Namespace) -> int:
    print(build_parser().format_help(), end="")
    return 0


# -- shared builders -------------------------------------------------------------------


def _spec(name: str, params: Dict[str, Any],
          space: Dict[str, Any]) -> ProgramSetSpec:
    """The spec, checked: its program set builds programs from ``params``,
    and their schedule space fits ``space``'s mode, budget and seed."""
    spec = ProgramSetSpec.make(name, **params)
    programs = _checked(lambda: check_program_set(spec))
    _checked(lambda: schedule_space(programs, mode=space["mode"],
                                    max_schedules=space["max_schedules"],
                                    seed=space["seed"]))
    return spec


def _options(args: argparse.Namespace, **config: Any) -> ExploreOptions:
    """``ExploreOptions(**config)`` with this invocation's levels and workers."""
    if args.levels is not None:
        config["levels"] = args.levels
    return _checked(lambda: ExploreOptions(workers=args.workers, **config))


def _open_store(path: str, must_exist: bool = False) -> SqliteStore:
    # sqlite3.connect would create an empty database at a mistyped path and
    # then report "unknown campaign"; name the real problem instead.
    if must_exist and not os.path.exists(path):
        raise UsageError(f"store file not found: {path}")
    return SqliteStore(path)


# -- campaign ------------------------------------------------------------------------


class _ThrottledStore:
    """A store proxy that sleeps before every chunk commit."""

    def __init__(self, inner: Any, delay_s: float):
        self._inner = inner
        self._delay_s = delay_s

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._inner, name)
        if name != "commit_chunk":
            return attr

        def commit_chunk(*args: Any, **kwargs: Any) -> Any:
            time.sleep(self._delay_s)
            return attr(*args, **kwargs)

        return commit_chunk


def _campaign_options(args: argparse.Namespace,
                      config: Dict[str, Any]) -> ExploreOptions:
    return _options(args, mode=config["mode"],
                    max_schedules=config["max_schedules"], seed=config["seed"],
                    reduction=config["reduction"],
                    chunk_size=config["chunk_size"])


def _explore_campaign(store: SqliteStore, spec: ProgramSetSpec,
                      args: argparse.Namespace, config: Dict[str, Any],
                      options: ExploreOptions) -> int:
    from .explorer.explorer import explore
    from .persist.analytics import persist_result
    from .persist.records import default_campaign_id

    campaign = args.campaign or default_campaign_id(config)
    throttled = (_ThrottledStore(store, args.throttle_ms / 1000.0)
                 if args.throttle_ms > 0 else store)
    result = explore(spec, options.replace(store=throttled,
                                           campaign_id=campaign))
    report = persist_result(store, campaign, result)
    print(report.render(title=f"campaign {campaign}"))
    print(f"campaign {campaign}: {result.executed_schedules()} schedules "
          f"executed this run, {result.space.selected} in the space")
    return 0


def _campaign_run(args: argparse.Namespace) -> int:
    from .persist.session import campaign_config

    spec = _spec(args.program_set, dict(args.set or ()), vars(args))
    config = campaign_config(spec, mode=args.mode,
                             max_schedules=args.max_schedules, seed=args.seed,
                             reduction=args.reduction,
                             chunk_size=args.chunk_size)
    options = _campaign_options(args, config)
    store = _open_store(args.store)
    try:
        return _explore_campaign(store, spec, args, config, options)
    finally:
        store.close()


def _exploration_config(campaign: str, config: Dict[str, Any],
                        action: str) -> Dict[str, Any]:
    """``config``, if it is a ``campaign run`` / ``distrib run`` campaign's:
    the others (Table 4, ``serve`` certificates) name no program set."""
    if "spec_name" in config:
        return config
    if config.get("kind") == "table4-explored":
        raise UsageError(
            f"campaign {campaign!r} is a Table 4 campaign; cannot {action} "
            f"it here (re-run compute_table4_explored with the same store)")
    raise UsageError(f"campaign {campaign!r} is not an exploration campaign "
                     f"(kind {config.get('kind')!r}); cannot {action} it")


def _campaign_resume(args: argparse.Namespace) -> int:
    store = _open_store(args.store, must_exist=True)
    try:
        info = store.get_campaign(args.campaign)
        if info is None:
            known = ", ".join(c.campaign_id for c in store.list_campaigns())
            raise UsageError(f"unknown campaign {args.campaign!r}; "
                             f"store has: {known or '<none>'}")
        config = _exploration_config(args.campaign, info.config, "resume")
        spec = _spec(config["spec_name"], dict(config["spec_params"]), config)
        return _explore_campaign(store, spec, args, config,
                                 _campaign_options(args, config))
    finally:
        store.close()


def _campaign_inspect(args: argparse.Namespace) -> int:
    from .persist.analytics import campaign_summary, campaign_summary_data

    store = _open_store(args.store, must_exist=True)
    try:
        if args.campaign is not None and store.get_campaign(args.campaign) is None:
            raise UsageError(f"unknown campaign {args.campaign!r}")
        if args.json:
            if args.campaign is None:
                payload: Any = [campaign_summary_data(store, info.campaign_id)
                                for info in store.list_campaigns()]
            else:
                payload = campaign_summary_data(store, args.campaign)
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        if args.campaign is None:
            for info in store.list_campaigns():
                print(campaign_summary(store, info.campaign_id))
            if not store.list_campaigns():
                print("no campaigns in store")
            return 0
        if args.report:
            _exploration_config(args.campaign,
                                store.get_campaign(args.campaign).config,
                                "rebuild the coverage report of")
        print(campaign_summary(store, args.campaign))
        if args.report:
            from .analysis.coverage import coverage_report_from_store
            report = coverage_report_from_store(store, args.campaign)
            print(report.render(title=f"campaign {args.campaign}"))
        return 0
    finally:
        store.close()


def _campaign_list(args: argparse.Namespace) -> int:
    store = _open_store(args.store, must_exist=True)
    try:
        campaigns = store.list_campaigns()
        if not campaigns:
            print("no campaigns in store")
            return 0
        for info in campaigns:
            progress = store.scope_progress(info.campaign_id)
            done = sum(1 for state in progress.values() if state.complete)
            records = sum(state.records for state in progress.values())
            print(f"{info.campaign_id}: {done}/{len(progress)} scopes complete, "
                  f"{records} records")
        return 0
    finally:
        store.close()


# -- distrib -------------------------------------------------------------------------


def _distrib_setup(args: argparse.Namespace):
    """The spec, options and fault plan, all checked before the store opens."""
    from .distrib.faults import FaultPlan
    from .explorer.explorer import _resolve_worker_count

    spec = _spec(args.program_set, dict(args.set or ()), vars(args))
    options = _options(args, mode=args.mode, max_schedules=args.max_schedules,
                       seed=args.seed, chunk_size=args.chunk_size)
    if args.faults and args.fault_seed is not None:
        raise UsageError("--faults and --fault-seed are mutually exclusive")
    if args.fault_seed is not None:
        plan = FaultPlan.random(args.fault_seed,
                                workers=_resolve_worker_count(options.workers))
    else:
        try:
            plan = FaultPlan.parse(args.faults or [])
        except ValueError as error:
            raise UsageError(f"bad --faults value: {error}") from None
    return spec, options, plan


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


def _distrib_run(args: argparse.Namespace) -> int:
    from .analysis.coverage import coverage_report_from_store
    from .distrib.runner import CampaignRunner

    spec, options, plan = _distrib_setup(args)
    store = _open_store(args.store)
    try:
        runner = CampaignRunner(
            store, spec, levels=options.levels, mode=options.mode,
            max_schedules=options.max_schedules, seed=options.seed,
            chunk_size=options.chunk_size, workers=options.workers,
            campaign_id=args.campaign, lease_duration=args.lease_duration,
            heartbeat_interval=args.heartbeat_interval,
            max_attempts=args.max_attempts, faults=plan,
            requeue_poisoned=args.requeue_poisoned, deadline_s=args.deadline)
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


def _distrib_verify(args: argparse.Namespace) -> int:
    from .distrib.faults import run_with_faults, serial_reference

    spec, options, plan = _distrib_setup(args)
    control_render, control_fingerprint = serial_reference(spec, options)
    store = _open_store(args.store)
    try:
        result, render, fingerprint = run_with_faults(
            store, spec, options, plan, campaign_id=args.campaign,
            lease_duration=args.lease_duration,
            heartbeat_interval=args.heartbeat_interval,
            max_attempts=args.max_attempts, deadline_s=args.deadline)
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


# -- serve ---------------------------------------------------------------------------


def _serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .service.server import CertifierServer

    async def serve() -> int:
        store = _open_store(args.store) if args.store is not None else None
        server = CertifierServer(
            args.host, args.port, store=store,
            campaign_id=args.campaign if store is not None else None,
            evict_interval=args.evict_interval)
        await server.start()
        print(f"certifier listening on {server.host}:{server.port}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:     # platforms without signal handlers
                pass
        try:
            await stop.wait()
        finally:
            await server.stop()
            if store is not None:
                store.close()
        print("certifier stopped", flush=True)
        return 0

    try:
        return asyncio.run(serve())
    except KeyboardInterrupt:
        return 0
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
