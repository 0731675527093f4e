"""``python -m repro serve`` / ``python -m repro bench`` — the service CLI.

``serve`` boots the online certifier server and runs until SIGTERM/SIGINT
(clean shutdown exits 0).  ``bench`` boots an in-process server, drives the
seeded load generator against it over real sockets, and prints the
:class:`~repro.service.loadgen.LoadReport` as JSON.

Exit codes follow the repo convention: 0 success, 1 runtime failure,
2 usage/config error.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from typing import Optional, Sequence

from ..persist.store import StoreError
from .loadgen import LoadConfig, run_load, run_load_tcp
from .server import CertifierServer

__all__ = ["serve_main", "bench_main"]


def _open_store(path: Optional[str]):
    if path is None:
        return None
    from ..persist import SqliteStore
    return SqliteStore(path)


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the online isolation certifier server.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default: 0 = ephemeral; the bound "
                             "port is printed on stdout)")
    parser.add_argument("--store", default=None,
                        help="SQLite store path; closed streams' "
                             "certificates are persisted there")
    parser.add_argument("--campaign", default="service",
                        help="campaign id for persisted certificates")
    parser.add_argument("--evict-interval", type=int, default=256,
                        help="operations between eviction passes")
    return parser


async def _serve(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
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


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    args = _serve_parser().parse_args(argv)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        return 0
    except StoreError as error:
        # A store file that is not a database, has a future schema, or is
        # corrupt is a usage error, as under ``campaign`` and ``distrib``.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Benchmark the online certifier: boot an in-process "
                    "server, drive N concurrent load-generator clients over "
                    "TCP, report anomalies/sec and classify latency.")
    parser.add_argument("--clients", type=int, default=50)
    parser.add_argument("--transactions", type=int, default=20,
                        help="transactions per client")
    parser.add_argument("--ops", type=int, default=6,
                        help="operations per transaction")
    parser.add_argument("--items", type=int, default=12,
                        help="distinct data items (zipfian hotspots)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--in-process", action="store_true",
                        help="skip the socket layer and bench the "
                             "classifier directly (also re-verifies byte "
                             "equality against the offline classifier)")
    return parser


async def _bench_tcp(config: LoadConfig) -> int:
    server = CertifierServer()
    await server.start()
    try:
        report = await run_load_tcp(server.host, server.port, config)
    finally:
        await server.stop()
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def bench_main(argv: Optional[Sequence[str]] = None) -> int:
    args = _bench_parser().parse_args(argv)
    try:
        config = LoadConfig(clients=args.clients,
                            transactions_per_client=args.transactions,
                            ops_per_transaction=args.ops,
                            items=args.items,
                            seed=args.seed)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        if args.in_process:
            report = run_load(config, verify=True)
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
            if report.byte_equal is False:
                print("error: online verdicts diverged from the offline "
                      "classifier", file=sys.stderr)
                return 1
            return 0
        return asyncio.run(_bench_tcp(config))
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
