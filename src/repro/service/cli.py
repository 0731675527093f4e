"""``python -m repro serve`` — the service CLI.

``serve`` boots the online certifier server and runs until SIGTERM/SIGINT
(clean shutdown exits 0).

Exit codes follow the repo convention: 0 success, 1 runtime failure,
2 usage/config error.  A port outside 0–65535 or an eviction interval
below 1 is a usage error, caught before anything binds.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import Optional, Sequence

from ..persist.store import StoreError
from .server import CertifierServer

__all__ = ["serve_main"]


def _open_store(path: Optional[str]):
    if path is None:
        return None
    from ..persist import SqliteStore
    return SqliteStore(path)


def _int_in(low: int, high: Optional[int] = None):
    """An argparse ``type`` accepting integers in ``[low, high]``."""
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


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the online isolation certifier server.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=_int_in(0, 65535), default=0,
                        help="TCP port (default: 0 = ephemeral; the bound "
                             "port is printed on stdout)")
    parser.add_argument("--store", default=None,
                        help="SQLite store path; closed streams' "
                             "certificates are persisted there")
    parser.add_argument("--campaign", default="service",
                        help="campaign id for persisted certificates")
    parser.add_argument("--evict-interval", type=_int_in(1), default=256,
                        help="operations between eviction passes (>= 1)")
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
