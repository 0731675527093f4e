"""The asyncio online-certifier server.

One TCP endpoint, many concurrent client sessions, newline-delimited JSON
both ways.  Each named stream gets its own
:class:`~repro.service.online.OnlineClassifier`; operations are fed as
shorthand fragments and anomaly certificates come back in the acknowledgement
of the batch that fired them.

Protocol (one JSON object per line)::

    -> {"type": "open",  "stream": "s1", "mv": false, "evict_interval": 256}
    <- {"type": "opened", "stream": "s1"}

    -> {"type": "ops", "stream": "s1", "ops": "r1[x] w2[x] c1 c2"}
    <- {"type": "ack", "stream": "s1", "ops": 4, "classify_us": 12.3,
        "certificates": [{"code": "P4", ...}, ...]}

    -> {"type": "verdict", "stream": "s1"}
    <- {"type": "verdict", "stream": "s1", "serializable": false, ...}

    -> {"type": "close", "stream": "s1"}
    <- {"type": "closed", "stream": "s1", "certificates": 3, "persisted": 3}

    -> {"type": "stats"}
    <- {"type": "stats", "streams": 12, "ops": 48000, "certificates": 117,
        "p50_classify_us": 9.1, "p99_classify_us": 44.0}

Replies come back on the connection in request order.  The server takes what
the socket holds, answers every complete line of that batch and writes the
replies together, so a client that pipelines requests may receive several
replies in one segment; a client that waits for each reply sees one at a time.

Malformed input answers ``{"type": "error", "error": ...}`` and keeps the
connection alive (an ``open`` whose ``evict_interval`` or ``witness_window``
is not an integer >= 1 among them); stream errors (operations after a
terminal) poison only the offending stream.  A line longer than :data:`MAX_LINE_BYTES` answers
``{"type": "error", "kind": "request", "error": "line exceeds 65536 bytes"}``
and closes that connection — other connections and every stream stay as they
were.  With a :class:`repro.persist.SqliteStore` attached, certificates are
committed on ``close`` under the configured campaign.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from typing import Any, Dict, Optional

from .online import OnlineClassifier, StreamError

__all__ = ["CertifierServer", "MAX_LINE_BYTES"]

#: Longest request line accepted, newline excluded (asyncio's own default
#: stream limit).
MAX_LINE_BYTES = 1 << 16

#: Bytes taken off a socket per turn: with the line limit, the bound on how
#: much one connection is served before the others get the loop.
_READ_BYTES = 1 << 14

#: Classify-latency samples retained for the stats percentiles.
_LATENCY_WINDOW = 4096


def _encode(reply: Dict[str, Any]) -> bytes:
    return (json.dumps(reply) + "\n").encode("utf-8")


def _positive_int(request: Dict[str, Any], key: str, default: int) -> int:
    """``request[key]`` as a JSON integer >= 1 (booleans, floats, strings,
    ``Infinity`` and ``NaN`` are request errors)."""
    value = request.get(key, default)
    if type(value) is not int or value < 1:
        raise ValueError(f"{key!r} must be an integer >= 1, got {value!r}")
    return value


def _certificate_payload(certificate) -> Dict[str, Any]:
    return {
        "stream": certificate.stream,
        "seq": certificate.seq,
        "code": certificate.code,
        "txns": list(certificate.txns),
        "items": list(certificate.items),
        "op_index": certificate.op_index,
        "witness": certificate.witness,
    }


class CertifierServer:
    """Serve the online classifier over TCP to many concurrent clients."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 store=None, campaign_id: Optional[str] = None,
                 evict_interval: int = 256,
                 witness_window: int = 32):
        if store is None and campaign_id is not None:
            raise ValueError("campaign_id requires a store")
        self.host = host
        self.port = port
        self.store = store
        self.campaign_id = campaign_id or "service"
        self.evict_interval = evict_interval
        self.witness_window = witness_window
        self._streams: Dict[str, OnlineClassifier] = {}
        self._poisoned: Dict[str, str] = {}
        self._latencies: deque = deque(maxlen=_LATENCY_WINDOW)
        self._total_ops = 0
        self._total_certificates = 0
        self._closed_streams = 0
        self._persisted = 0
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (resolves ``port=0``)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- per-connection loop --------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        pending = b""
        serving = True
        try:
            while serving:
                chunk = await reader.read(_READ_BYTES)
                serving = bool(chunk)
                # EOF ends a last unterminated line.
                *lines, pending = (pending + (chunk or b"\n")).split(b"\n")
                if len(pending) > MAX_LINE_BYTES:
                    lines.append(pending)
                replies = []
                for line in lines:
                    if len(line) > MAX_LINE_BYTES:
                        replies.append(_encode({
                            "type": "error", "kind": "request",
                            "error": f"line exceeds {MAX_LINE_BYTES} bytes"}))
                        serving = False
                        break
                    line = line.strip()
                    if line:
                        replies.append(self._answer(line))
                if replies:
                    writer.write(b"".join(replies))
                    await writer.drain()
                if len(chunk) == _READ_BYTES:
                    # A full read may have left bytes buffered, and then the
                    # next read returns without suspending; a short read
                    # emptied the buffer, so the next one waits on the loop.
                    await asyncio.sleep(0)
        except ConnectionError:
            pass
        finally:
            # close() is fire-and-forget here on purpose: awaiting
            # wait_closed() would leave the handler task alive (and noisily
            # cancelled) when the loop shuts down mid-handshake.
            writer.close()

    def _answer(self, line: bytes) -> bytes:
        """One request line in, one reply line out — errors included."""
        try:
            request = json.loads(line.decode("utf-8"))
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            reply = self._dispatch(request)
        except StreamError as exc:
            reply = {"type": "error", "error": str(exc), "kind": "stream"}
        except (ValueError, KeyError, TypeError) as exc:
            reply = {"type": "error", "error": str(exc), "kind": "request"}
        return _encode(reply)

    # -- request dispatch ------------------------------------------------------

    def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        rtype = request.get("type")
        if rtype == "open":
            return self._do_open(request)
        if rtype == "ops":
            return self._do_ops(request)
        if rtype == "verdict":
            return self._do_verdict(request)
        if rtype == "close":
            return self._do_close(request)
        if rtype == "stats":
            return self._do_stats()
        raise ValueError(f"unknown request type {rtype!r}")

    def _stream_name(self, request: Dict[str, Any]) -> str:
        name = request.get("stream")
        if not isinstance(name, str) or not name:
            raise ValueError("request needs a non-empty 'stream' name")
        return name

    def _classifier(self, name: str) -> OnlineClassifier:
        poisoned = self._poisoned.get(name)
        if poisoned is not None:
            raise StreamError(f"stream {name!r} is poisoned: {poisoned}")
        classifier = self._streams.get(name)
        if classifier is None:
            raise ValueError(f"unknown stream {name!r}; send an 'open' first")
        return classifier

    def _do_open(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = self._stream_name(request)
        if name in self._streams or name in self._poisoned:
            raise ValueError(f"stream {name!r} already open")
        multiversion = bool(request.get("mv", False))
        self._streams[name] = OnlineClassifier(
            name,
            multiversion=multiversion,
            evict_interval=_positive_int(request, "evict_interval",
                                         self.evict_interval),
            witness_window=_positive_int(request, "witness_window",
                                         self.witness_window),
            initial_items=request.get("initial_items"),
        )
        return {"type": "opened", "stream": name, "mv": multiversion}

    def _do_ops(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = self._stream_name(request)
        classifier = self._classifier(name)
        fragment = request.get("ops")
        if not isinstance(fragment, str):
            raise ValueError("'ops' must be a shorthand string")
        before = classifier.ops
        started = time.perf_counter()
        try:
            fresh = classifier.feed_shorthand(fragment)
        except StreamError as exc:
            self._poisoned[name] = str(exc)
            del self._streams[name]
            raise
        elapsed_us = (time.perf_counter() - started) * 1e6
        fed = classifier.ops - before
        self._latencies.append(elapsed_us / fed if fed else elapsed_us)
        self._total_ops += fed
        self._total_certificates += len(fresh)
        return {
            "type": "ack",
            "stream": name,
            "ops": fed,
            "classify_us": round(elapsed_us, 3),
            "certificates": [_certificate_payload(c) for c in fresh],
        }

    def _do_verdict(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = self._stream_name(request)
        verdict = self._classifier(name).verdict()
        return {
            "type": "verdict",
            "stream": name,
            "serializable": verdict.serializable,
            "phenomena": list(verdict.phenomena),
            "committed": list(verdict.committed),
            "aborted": list(verdict.aborted),
            "ops": verdict.ops,
        }

    def _do_close(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = self._stream_name(request)
        if name in self._poisoned:
            del self._poisoned[name]
            return {"type": "closed", "stream": name, "certificates": 0,
                    "persisted": 0, "poisoned": True}
        classifier = self._classifier(name)
        certificates = classifier.certificates
        persisted = 0
        if self.store is not None and certificates:
            if self.store.get_campaign(self.campaign_id) is None:
                self.store.open_campaign(self.campaign_id, {"kind": "service"})
            self.store.save_certificates(self.campaign_id, certificates)
            persisted = len(certificates)
            self._persisted += persisted
        del self._streams[name]
        self._closed_streams += 1
        return {"type": "closed", "stream": name,
                "certificates": len(certificates), "persisted": persisted}

    def _do_stats(self) -> Dict[str, Any]:
        samples = sorted(self._latencies)

        def pct(q: float) -> float:
            if not samples:
                return 0.0
            pos = min(len(samples) - 1, int(q * (len(samples) - 1) + 0.5))
            return round(samples[pos], 3)

        return {
            "type": "stats",
            "streams": len(self._streams),
            "closed_streams": self._closed_streams,
            "ops": self._total_ops,
            "certificates": self._total_certificates,
            "persisted": self._persisted,
            "p50_classify_us": pct(0.50),
            "p99_classify_us": pct(0.99),
        }
