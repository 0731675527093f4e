"""Boot the online certifier service for real and certify anomalies over TCP.

The ``service-smoke`` CI job runs this script.  It stages the ISSUE 10
tentpole contract end to end, with a real server process and real sockets
rather than an in-process classifier:

1. **Boot** — start ``python -m repro serve`` as a subprocess on an
   OS-assigned port with a SQLite store attached, and parse the listening
   banner for the resolved address.
2. **Drive** — send seeded zipfian streams over a few connections, closed
   loop, with the benchmark ledger's own stream generator and driver
   (``benchmarks/ledger/streams.py``, imported read-only); every stream is
   opened, fed in bursts, asked for its verdict and closed.
3. **Certify** — the run must emit at least one anomaly certificate, the
   server's stats must account for every op fed, and the certificates must
   be durably committed to the store (read back out of plain SQLite).
4. **Oversized line** — a request line over the server's 64 KiB limit must
   be answered with the named error and that connection closed, while a
   second connection opened before it is still served afterwards.
5. **Pipelined burst** — 64 requests written in one ``sendall`` must come
   back as 64 replies in request order.
6. **Shutdown** — deliver SIGTERM; the server must print its stop banner,
   exit 0 (the clean-shutdown contract of the serve CLI), and have written
   nothing to stderr over the whole run.

The store file and the server's stderr are left behind in ``--dir`` so CI
can upload them as artifacts (plain SQLite — any client can autopsy a failure).

Usage: python benchmarks/check_service_smoke.py [--dir OUTDIR]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
#: ``ledger.streams`` is read, never edited, from here.
sys.path.insert(1, str(REPO_ROOT / "benchmarks"))

#: The server subprocess needs ``repro`` importable too; prepending src/
#: works for both the pip-installed CI case (harmless) and bare checkouts.
SERVER_ENV = dict(os.environ)
SERVER_ENV["PYTHONPATH"] = os.pathsep.join(
    [str(REPO_ROOT / "src")] + ([SERVER_ENV["PYTHONPATH"]]
                                if SERVER_ENV.get("PYTHONPATH") else []))

from ledger.streams import (  # noqa: E402
    StreamShape, closed_loop, multiplex, stream_requests, zipf_tokens)
from repro.persist import SqliteStore  # noqa: E402

#: A modest fleet: the smoke proves the protocol and lifecycle; the ledger's
#: ``certify_tcp`` workload measures throughput.
STREAMS = 8
CONNECTIONS = 4
SHAPE = StreamShape(transactions=10)
SEED = 0
BOOT_TIMEOUT_S = 30.0
CAMPAIGN = "service-ci"
BURST = 64
LINE_TOO_LONG = {"type": "error", "kind": "request",
                 "error": "line exceeds 65536 bytes"}


def _wait_for_banner(proc: subprocess.Popen) -> "tuple[str, int]":
    """Read the serve CLI's listening banner and return (host, port)."""
    assert proc.stdout is not None
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(
                f"server exited before announcing its port "
                f"(rc={proc.poll()})")
        print(f"server: {line.rstrip()}")
        if line.startswith("certifier listening on "):
            address = line.split()[-1]
            host, _, port = address.rpartition(":")
            return host, int(port)
    raise SystemExit("server never printed its listening banner")


def _line(**payload) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


class _Client:
    """One blocking JSON-lines connection to the server under test."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=30)
        self.reader = self.sock.makefile("rb")

    def replies(self, count: int) -> list:
        lines = [self.reader.readline() for _ in range(count)]
        if not all(lines):
            raise SystemExit(f"server closed the connection after "
                             f"{sum(map(bool, lines))} of {count} replies")
        return [json.loads(line) for line in lines]

    def finish(self) -> None:
        """Half-close and wait for the server's EOF, so the server has let go
        of this connection before anything else (a SIGTERM) happens."""
        self.sock.shutdown(socket.SHUT_WR)
        if self.reader.read() != b"":
            raise SystemExit("server sent bytes nobody asked for")
        self.sock.close()


def _drive_leg(host: str, port: int) -> int:
    """Send every stream's whole life; return the certificates received."""
    requests = [stream_requests(f"client-{index}",
                                zipf_tokens(SEED, index, SHAPE), SHAPE.burst)
                for index in range(STREAMS)]
    run = closed_loop((host, port), multiplex(requests, CONNECTIONS))
    if run["errors"]:
        raise SystemExit(f"drive: {run['errors']}")
    replies = [json.loads(line) for lines in run["replies"] for line in lines]
    errors = [reply for reply in replies if reply.get("type") == "error"]
    if errors:
        raise SystemExit(f"drive: error replies {errors[:3]}")
    acks = [reply for reply in replies if reply["type"] == "ack"]
    ops = sum(ack["ops"] for ack in acks)
    certificates = sum(len(ack["certificates"]) for ack in acks)
    client = _Client(host, port)
    client.sock.sendall(_line(type="stats"))
    (stats,) = client.replies(1)
    client.finish()
    if stats.get("ops") != ops:
        raise SystemExit(f"drive: server counted {stats.get('ops')} ops, "
                         f"clients fed {ops}")
    print(f"drove {ops} ops over {STREAMS} streams on {CONNECTIONS} "
          f"connections: {certificates} certificates, "
          f"p99 classify {stats['p99_classify_us']:.0f} us")
    return certificates


def _oversized_line_leg(host: str, port: int) -> None:
    bystander = _Client(host, port)
    bystander.sock.sendall(_line(type="open", stream="bystander"))
    bystander.replies(1)
    client = _Client(host, port)
    try:
        client.sock.sendall(_line(type="ops", stream="bystander",
                                  ops="r1[x] " * 20_000))
    except ConnectionError:
        pass        # the server may answer and close before the line ends
    if client.replies(1) != [LINE_TOO_LONG]:
        raise SystemExit("oversized line: expected the named error reply")
    if client.reader.read() != b"":
        raise SystemExit("oversized line: connection was not closed")
    client.sock.close()
    bystander.sock.sendall(_line(type="verdict", stream="bystander")
                           + _line(type="close", stream="bystander"))
    verdict, closed = bystander.replies(2)
    if verdict.get("ops") != 0 or closed.get("type") != "closed":
        raise SystemExit(f"oversized line: the other connection was "
                         f"disturbed: {verdict} {closed}")
    bystander.finish()
    print("oversized line: named error, connection closed, others served")


def _pipelined_burst_leg(host: str, port: int) -> None:
    client = _Client(host, port)
    names = [f"burst-{i}" for i in range(BURST)]
    for kind, expected in (("open", "opened"), ("close", "closed")):
        client.sock.sendall(b"".join(_line(type=kind, stream=name)
                                     for name in names))
        replies = client.replies(BURST)
        if [(r.get("type"), r.get("stream")) for r in replies] != \
                [(expected, name) for name in names]:
            raise SystemExit(f"pipelined burst: {BURST} {kind!r} requests in "
                             f"one sendall did not get {BURST} ordered replies")
    client.finish()
    print(f"pipelined burst: {BURST} requests in one sendall, "
          f"{BURST} ordered replies")


def main(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    store_path = outdir / "service-smoke.sqlite"
    stderr_path = outdir / "service-smoke.stderr"
    command = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--store", str(store_path), "--campaign", CAMPAIGN]
    with open(stderr_path, "wb") as stderr:
        proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                stderr=stderr, text=True, env=SERVER_ENV)
    try:
        host, port = _wait_for_banner(proc)
        certificates = _drive_leg(host, port)
        if certificates < 1:
            raise SystemExit("no certified anomalies — the streams must "
                             "provoke at least one")

        _oversized_line_leg(host, port)
        _pipelined_burst_leg(host, port)

        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=30)
        remainder = proc.stdout.read() if proc.stdout else ""
        if remainder.strip():
            print(f"server: {remainder.strip()}")
        if rc != 0:
            raise SystemExit(f"server exited {rc} on SIGTERM, expected 0")
        if "certifier stopped" not in remainder:
            raise SystemExit("server never printed its stop banner")
        noise = stderr_path.read_text()
        if noise.strip():
            raise SystemExit(f"server wrote to stderr:\n{noise}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    store = SqliteStore(store_path)
    try:
        persisted = store.load_certificates(CAMPAIGN)
    finally:
        store.close()
    print(f"store holds {len(persisted)} certificates for "
          f"campaign {CAMPAIGN!r}")
    if len(persisted) != certificates:
        raise SystemExit(
            f"store persisted {len(persisted)} certificates but the run "
            f"emitted {certificates}")
    print("service smoke OK: boot, certify, oversized line, pipelined burst, "
          "persist, clean shutdown")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default="service-smoke-artifacts",
                        help="directory for the store artifact")
    sys.exit(main(Path(parser.parse_args().dir)))
