"""Harness-owned certifier inputs and the TCP driver that sends them.

Frozen on purpose: the generator and driver import nothing from
``repro.service.loadgen``, so editing or deleting the in-tree load generator
cannot change this workload.  The server sees only the generated JSON lines.

Streams are shaped like the contended traffic the certifier exists for:
item choice is zipfian (a few hot keys absorb most operations and actually
collide), each stream multiplexes a few live transactions so anomalies form
*within* it, and operations reach the server in bursts of ``burst`` per
request.  Everything is a pure function of ``(seed, stream index)``.

The driver is plain blocking sockets, one thread per connection:

* closed loop — a connection sends its next request only after the previous
  reply arrived; round-trip time is send -> reply;
* open loop — requests go out on a fixed schedule whatever the server does;
  latency runs from the instant a request was *due*, so a stall charges
  every request queued behind it, and how late the generator itself ran is
  reported next to it.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

__all__ = ["StreamShape", "zipf_tokens", "endless_tokens", "Request",
           "open_request", "ops_request", "stream_requests", "multiplex",
           "closed_loop", "open_loop"]

_clock = time.perf_counter


@dataclass(frozen=True)
class StreamShape:
    transactions: int = 40
    ops_per_transaction: int = 6
    concurrent: int = 4
    items: int = 12
    zipf_s: float = 1.2
    write_ratio: float = 0.45
    abort_rate: float = 0.08
    stall_rate: float = 0.05
    predicate_rate: float = 0.10
    burst: int = 8


def _token_source(seed: int, index: int, shape: StreamShape,
                  transactions: float) -> Iterator[str]:
    rng = random.Random(seed * 1_000_003 + index)
    items = [f"k{i}" for i in range(shape.items)]
    weights = [1.0 / (rank ** shape.zipf_s) for rank in range(1, shape.items + 1)]
    next_txn = 1
    live: List[List[int]] = []          # [txn, operations emitted]
    while transactions > 0 or live:
        while transactions > 0 and len(live) < shape.concurrent:
            live.append([next_txn, 0])
            next_txn += 1
            transactions -= 1
        slot = rng.randrange(len(live))
        txn, done = live[slot]
        if done >= shape.ops_per_transaction:
            roll = rng.random()
            live.pop(slot)
            if roll < shape.stall_rate:
                continue                # stalled: never terminates
            yield f"a{txn}" if roll < shape.stall_rate + shape.abort_rate else f"c{txn}"
            continue
        live[slot][1] += 1
        if rng.random() < shape.predicate_rate:
            predicate = rng.choice("PQ")
            if rng.random() < shape.write_ratio:
                (item,) = rng.choices(items, weights)
                yield f"w{txn}[{item}:{predicate}]"
            else:
                yield f"r{txn}[{predicate}]"
            continue
        (item,) = rng.choices(items, weights)
        if rng.random() < shape.write_ratio:
            yield f"w{txn}[{item}]"
        else:
            yield f"{'rc' if rng.random() < 0.15 else 'r'}{txn}[{item}]"


def zipf_tokens(seed: int, index: int, shape: StreamShape = StreamShape()) -> List[str]:
    """One finite stream's operations as shorthand tokens."""
    return list(_token_source(seed, index, shape, shape.transactions))


def endless_tokens(seed: int, index: int,
                   shape: StreamShape = StreamShape()) -> Iterator[str]:
    """A stream that never ends (the open phase's long-lived streams)."""
    return _token_source(seed, index, shape, float("inf"))


# -- requests --------------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    stream: str
    kind: str           #: open | ops | verdict | close
    line: bytes


def _request(stream: str, kind: str, **fields) -> Request:
    payload = {"type": kind, "stream": stream, **fields}
    return Request(stream, kind, (json.dumps(payload) + "\n").encode("utf-8"))


def open_request(stream: str, multiversion: bool = False) -> Request:
    return _request(stream, "open", mv=multiversion)


def ops_request(stream: str, tokens: Sequence[str]) -> Request:
    return _request(stream, "ops", ops=" ".join(tokens))


def stream_requests(stream: str, tokens: Sequence[str], burst: int,
                    multiversion: bool = False) -> List[Request]:
    """open, the tokens in bursts, verdict, close — one stream's whole life."""
    requests = [open_request(stream, multiversion)]
    for start in range(0, len(tokens), burst):
        requests.append(ops_request(stream, tokens[start:start + burst]))
    requests.append(_request(stream, "verdict"))
    requests.append(_request(stream, "close"))
    return requests


def multiplex(streams: Sequence[List[Request]], connections: int,
              window: int = 16) -> List[List[Request]]:
    """Deal streams over connections and interleave them round-robin.

    Stream ``i`` lives on connection ``i % connections`` (its requests must
    stay in order); each connection keeps ``window`` streams open at once and
    sends one request of each in turn, the way many concurrent clients
    sharing a connection pool would.
    """
    plans: List[List[Request]] = []
    for connection in range(connections):
        waiting = [iter(requests) for requests in streams[connection::connections]]
        waiting.reverse()
        active: List[Iterator[Request]] = []
        plan: List[Request] = []
        while waiting or active:
            while waiting and len(active) < window:
                active.append(waiting.pop())
            still_active = []
            for requests in active:
                request = next(requests, None)
                if request is not None:
                    plan.append(request)
                    still_active.append(requests)
            active = still_active
        plans.append(plan)
    return plans


# -- driver ----------------------------------------------------------------------------

def _connect(address: Tuple[str, int], timeout: float) -> socket.socket:
    sock = socket.create_connection(address, timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def closed_loop(address: Tuple[str, int], plans: Sequence[Sequence[Request]],
                depth: int = 1, timeout: float = 30.0) -> Dict[str, object]:
    """Drive one closed loop per connection; return RTTs and raw replies.

    ``depth`` requests are in flight per connection: each reply releases the
    next request of the plan.  With ``depth`` no larger than the multiplexing
    window that is one closed loop per *stream* — a stream's next request
    leaves only after its previous reply arrived (replies are FIFO on a
    connection) — while the server always has work queued.

    Replies are kept as raw lines — parsing them is the checker's job and
    stays out of the timed loop.
    """
    rtts: List[List[float]] = [[] for _ in plans]
    replies: List[List[bytes]] = [[] for _ in plans]
    errors: List[str] = []
    gate = threading.Barrier(len(plans) + 1)

    def drive(slot: int) -> None:
        try:
            sock = _connect(address, timeout)
        except OSError as error:
            errors.append(f"connection {slot}: {error}")
            gate.abort()
            return
        try:
            reader = sock.makefile("rb")
            plan = plans[slot]
            sent: List[float] = []
            gate.wait()
            for request in plan[:depth]:
                sent.append(_clock())
                sock.sendall(request.line)
            for position in range(len(plan)):
                reply = reader.readline()
                rtts[slot].append(_clock() - sent[position])
                if not reply:
                    raise ConnectionError("server closed the connection")
                replies[slot].append(reply)
                if position + depth < len(plan):
                    sent.append(_clock())
                    sock.sendall(plan[position + depth].line)
        except (OSError, threading.BrokenBarrierError) as error:
            errors.append(f"connection {slot}: {error}")
        finally:
            sock.close()

    threads = [threading.Thread(target=drive, args=(slot,), daemon=True)
               for slot in range(len(plans))]
    for thread in threads:
        thread.start()
    try:
        gate.wait()
    except threading.BrokenBarrierError:
        pass
    started = _clock()
    for thread in threads:
        thread.join()
    return {"wall_s": _clock() - started, "rtts": rtts, "replies": replies,
            "errors": errors}


def open_loop(address: Tuple[str, int], requests: Sequence[Request], rate: float,
              connections: int, timeout: float = 30.0) -> Dict[str, object]:
    """Send ``requests`` at ``rate`` per second over ``connections`` sockets.

    Request ``i`` is due at ``i / rate`` and goes out on connection
    ``i % connections``; a reader thread per connection timestamps replies,
    which arrive in request order on each socket.  Returns per-request
    latency from the due time (``None`` where no reply came), how late each
    send was, and the raw replies.
    """
    socks = [_connect(address, timeout) for _ in range(connections)]
    counts = [len(requests[slot::connections]) for slot in range(connections)]
    arrivals: List[List[float]] = [[] for _ in socks]
    replies: List[List[bytes]] = [[] for _ in socks]
    errors: List[str] = []

    def read(slot: int) -> None:
        try:
            reader = socks[slot].makefile("rb")
            for _ in range(counts[slot]):
                reply = reader.readline()
                if not reply:
                    raise ConnectionError("server closed the connection")
                arrivals[slot].append(_clock())
                replies[slot].append(reply)
        except OSError as error:
            errors.append(f"connection {slot}: {error}")

    readers = [threading.Thread(target=read, args=(slot,), daemon=True)
               for slot in range(connections)]
    for thread in readers:
        thread.start()
    due_times: List[float] = []
    lateness: List[float] = []
    started = _clock()
    try:
        for index, request in enumerate(requests):
            due = started + index / rate
            wait = due - _clock()
            if wait > 0:
                time.sleep(wait)
            lateness.append(_clock() - due)
            due_times.append(due)
            socks[index % connections].sendall(request.line)
    except OSError as error:
        errors.append(f"sender: {error}")
    for thread in readers:
        thread.join()
    finished = _clock()
    for sock in socks:
        sock.close()
    latencies: List[object] = []
    for index, due in enumerate(due_times):
        slot, position = index % connections, index // connections
        answered = position < len(arrivals[slot])
        latencies.append(arrivals[slot][position] - due if answered else None)
    latencies.extend([None] * (len(requests) - len(due_times)))
    return {"wall_s": finished - started, "latencies": latencies,
            "lateness": lateness, "replies": replies, "errors": errors,
            "due_offsets": [due - started for due in due_times]}
