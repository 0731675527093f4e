"""``python -m repro campaign`` — run, resume, and inspect campaigns.

Subcommands:

* ``run``     — start (or transparently resume) an exploration campaign
  against a SQLite store; prints the coverage report when it finishes and
  persists the derived coverage cells and witness edges for SQL analytics.
* ``resume``  — continue an existing campaign from its stored config; no
  workload flags needed (or allowed) — the campaign *is* the config.
* ``inspect`` — progress, anomaly-frequency, witness, and conflict-edge
  analytics of one campaign (or a one-line listing of all of them).
* ``list``    — every campaign in the store, with completion status.

The store path is plain SQLite: anything that speaks SQL can query the
tables directly; this CLI only wraps the common operations.

``--throttle-ms`` injects a sleep into every chunk commit.  That exists for
the kill-and-resume CI job (it widens the window in which a SIGKILL lands
mid-campaign) and for demos; it changes wall-clock only, never records.

A bad flag value (a budget below 1, an unknown program set or level) exits
2 with ``error: …`` before the store is written, as a config mismatch does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

from ..core.isolation import IsolationLevelName
from ..explorer.options import ExploreOptions
from ..workloads.program_sets import (
    ProgramSetSpec,
    available_program_sets,
    resolve_program_set,
)
from .analytics import campaign_summary, campaign_summary_data, persist_result
from .sqlite_store import SqliteStore
from .store import StoreError

__all__ = ["main", "UsageError"]

_T = TypeVar("_T")


class UsageError(Exception):
    """A bad flag value; ``main`` reports it as ``error: …`` and exits 2."""


def _checked(build: Callable[[], _T]) -> _T:
    """``build()``, with the named error a bad flag value raises as a UsageError.

    Only the builders of options, specs and levels go through here, never
    the run itself, so a real bug still ends in a traceback.
    """
    try:
        return build()
    except (ValueError, KeyError) as error:
        raise UsageError(error.args[0] if error.args else repr(error)) from None


def _existing_store(path: str) -> SqliteStore:
    """Open a store that must already exist (resume/inspect/list).

    ``sqlite3.connect`` would happily create an empty database at a
    mistyped path and then report "unknown campaign" — confusing.  Fail
    up front with the real problem instead.
    """
    if not os.path.exists(path):
        raise UsageError(f"store file not found: {path}")
    return SqliteStore(path)


class _ThrottledStore:
    """A store proxy that sleeps per chunk commit (CI kill-window widening)."""

    def __init__(self, inner: SqliteStore, delay_s: float):
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


def _parse_param(raw: str) -> Any:
    """``key=value`` values as JSON when possible, bare strings otherwise."""
    try:
        return json.loads(raw)
    except ValueError:
        return raw


def _spec_from_args(args: argparse.Namespace) -> ProgramSetSpec:
    """The ``--program-set``/``--set`` spec; its program set must exist."""
    params: Dict[str, Any] = {}
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        params[key] = _parse_param(value)
    spec = ProgramSetSpec.make(args.program_set, **params)
    _checked(lambda: resolve_program_set(spec))
    return spec


def _levels_from_arg(raw: Optional[str]) -> Optional[List[IsolationLevelName]]:
    if raw is None:
        return None
    levels = []
    for part in raw.split(","):
        part = part.strip()
        try:
            levels.append(IsolationLevelName(part))
        except ValueError:
            known = ", ".join(level.value for level in IsolationLevelName)
            raise UsageError(f"unknown isolation level {part!r}; one of: {known}")
    return levels


def options_from_args(args: argparse.Namespace, **knobs: Any) -> ExploreOptions:
    """``ExploreOptions(**knobs)`` with ``--levels``, checked before any store write."""
    levels = _levels_from_arg(args.levels)
    if levels is not None:
        knobs["levels"] = levels
    return _checked(lambda: ExploreOptions(**knobs))


def _workers_from_arg(raw: str):
    return raw if raw == "auto" else _checked(lambda: int(raw))


def _maybe_throttled(store: SqliteStore, throttle_ms: float):
    if throttle_ms <= 0:
        return store
    return _ThrottledStore(store, throttle_ms / 1000.0)


def _campaign_options(args: argparse.Namespace,
                      config: Dict[str, Any]) -> ExploreOptions:
    """A campaign config's options plus this invocation's levels and workers."""
    return options_from_args(
        args, mode=config["mode"], max_schedules=config["max_schedules"],
        seed=config["seed"], reduction=config["reduction"],
        chunk_size=config["chunk_size"],
        workers=_workers_from_arg(args.workers))


def _run_explore(store: SqliteStore, spec: ProgramSetSpec,
                 args: argparse.Namespace, config: Dict[str, Any],
                 options: ExploreOptions, campaign_id: Optional[str]) -> int:
    from ..explorer.explorer import explore
    from .records import default_campaign_id

    campaign = campaign_id or default_campaign_id(config)
    result = explore(spec, options.replace(
        store=_maybe_throttled(store, args.throttle_ms), campaign_id=campaign))
    report = persist_result(store, campaign, result)
    executed = result.executed_schedules()
    print(report.render(title=f"campaign {campaign}"))
    print(f"campaign {campaign}: {executed} schedules executed this run, "
          f"{result.space.selected} in the space")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .session import campaign_config

    spec = _spec_from_args(args)
    config = campaign_config(spec, mode=args.mode,
                             max_schedules=args.max_schedules, seed=args.seed,
                             reduction=args.reduction,
                             chunk_size=args.chunk_size)
    options = _campaign_options(args, config)
    with_store = SqliteStore(args.store)
    try:
        return _run_explore(with_store, spec, args, config, options,
                            args.campaign)
    finally:
        with_store.close()


def _cmd_resume(args: argparse.Namespace) -> int:
    store = _existing_store(args.store)
    try:
        info = store.get_campaign(args.campaign)
        if info is None:
            known = ", ".join(c.campaign_id for c in store.list_campaigns())
            raise UsageError(f"unknown campaign {args.campaign!r}; "
                             f"store has: {known or '<none>'}")
        config = info.config
        if config.get("kind") == "table4-explored":
            raise UsageError(
                f"campaign {args.campaign!r} is a Table 4 campaign; resume it "
                f"by re-running compute_table4_explored with the same store")
        spec = ProgramSetSpec.make(config["spec_name"],
                                   **{key: value
                                      for key, value in config["spec_params"]})
        return _run_explore(store, spec, args, config,
                            _campaign_options(args, config), args.campaign)
    finally:
        store.close()


def _cmd_inspect(args: argparse.Namespace) -> int:
    store = _existing_store(args.store)
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
        print(campaign_summary(store, args.campaign))
        if args.report:
            from ..analysis.coverage import coverage_report_from_store
            report = coverage_report_from_store(store, args.campaign)
            print(report.render(title=f"campaign {args.campaign}"))
        return 0
    finally:
        store.close()


def _cmd_list(args: argparse.Namespace) -> int:
    store = _existing_store(args.store)
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


def _add_common_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--levels", default=None,
                        help="comma-separated isolation levels "
                             "(default: the explorer's DEFAULT_LEVELS)")
    parser.add_argument("--workers", default="1",
                        help="worker processes, or 'auto' (default: 1)")
    parser.add_argument("--throttle-ms", type=float, default=0.0,
                        help="sleep this long before every chunk commit "
                             "(CI kill-window widening; wall-clock only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="Run, resume, and inspect persistent exploration campaigns.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="start (or resume) a campaign")
    run.add_argument("--store", required=True, help="SQLite store path")
    run.add_argument("--program-set", required=True,
                     help=f"one of: {', '.join(available_program_sets())}")
    run.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="program-set parameter (repeatable; JSON values)")
    run.add_argument("--campaign", default=None,
                     help="campaign id (default: derived from the config)")
    run.add_argument("--mode", default="auto",
                     choices=["auto", "exhaustive", "sample"])
    run.add_argument("--max-schedules", type=int, default=1000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--chunk-size", type=int, default=64)
    run.add_argument("--reduction", default="none",
                     choices=["none", "sleep-set"])
    _add_common_run_flags(run)
    run.set_defaults(func=_cmd_run)

    resume = sub.add_parser("resume",
                            help="continue a campaign from its stored config")
    resume.add_argument("--store", required=True, help="SQLite store path")
    resume.add_argument("--campaign", required=True)
    _add_common_run_flags(resume)
    resume.set_defaults(func=_cmd_resume)

    inspect = sub.add_parser("inspect", help="progress and anomaly analytics")
    inspect.add_argument("--store", required=True, help="SQLite store path")
    inspect.add_argument("--campaign", default=None,
                         help="campaign id (default: summarize all)")
    inspect.add_argument("--report", action="store_true",
                         help="also rebuild and print the coverage report "
                              "from stored records")
    inspect.add_argument("--json", action="store_true",
                         help="emit the summary as JSON instead of text")
    inspect.set_defaults(func=_cmd_inspect)

    listing = sub.add_parser("list", help="one line per campaign")
    listing.add_argument("--store", required=True, help="SQLite store path")
    listing.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StoreError, UsageError) as error:
        # Bad flag values, config mismatches and store-invariant violations
        # are user errors (wrong flags, wrong campaign, wrong store) — report
        # them cleanly instead of dumping a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
