"""The online isolation certifier: live streams, anomaly certificates, TCP.

The offline :class:`~repro.explorer.memo.BatchClassifier` needs the whole
history up front; the online classifier in :mod:`repro.service` certifies a
*stream* — every fed operation updates the conflict and serialization-graph
state incrementally, and each ANSI phenomenon emits an anomaly certificate
at the exact operation that completes it, byte-equal to what the offline
classifier would have concluded over the same ops.  This walkthrough:

1. feeds the paper's dirty-read and lost-update shapes op by op and shows
   the certificates firing mid-stream;
2. demonstrates the byte-equality contract against the offline classifier;
3. boots the real asyncio certifier server in-process, sends the paper's
   dirty-read, lost-update and write-skew streams to it over concurrent TCP
   connections, and persists the resulting certificates to a campaign store
   queried back out.

Run with:  PYTHONPATH=src python examples/online_certifier.py
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile

from repro.core.history import parse_history
from repro.explorer.memo import BatchClassifier
from repro.persist import SqliteStore
from repro.service import CertifierServer, OnlineClassifier

#: Streams shaped like the paper's histories, one per stream name.
PAPER_STREAMS = {
    "dirty-read": "w1[x] r2[x] a1 c2",                         # P1
    "lost-update": "r1[x] r2[x] w2[x] c2 w1[x] c1",            # P4, H4
    "write-skew": "r1[x] r1[y] r2[x] r2[y] w1[y] w2[x] c1 c2",  # A5B, H5
}


def live_certificates() -> None:
    print("== certificates fire at the completing operation ==")
    cls = OnlineClassifier("demo")
    # P1 (dirty read): T2 reads x while writer T1 is still active.  The
    # certificate fires at r2[x] — T1 has not even terminated yet.
    for token in "w1[x] r2[x] a1 c2".split():
        for certificate in cls.feed_shorthand(token):
            print(f"  after {token!r}: {certificate.code} "
                  f"txns={certificate.txns} items={certificate.items} "
                  f"witness={certificate.witness!r}")
    verdict = cls.verdict()
    print(f"  final verdict: serializable={verdict.serializable} "
          f"phenomena={verdict.phenomena}")
    assert verdict.phenomena == ("A1", "P1")


def byte_equality() -> None:
    print("== online verdicts are byte-equal to the offline classifier ==")
    classifier = BatchClassifier()
    for name, text in PAPER_STREAMS.items():
        online = OnlineClassifier(name)
        for token in text.split():
            online.feed_shorthand(token)
        offline = classifier.classify(parse_history(text))
        verdict = online.verdict()
        assert verdict.classification_fields() == (
            offline.serializable, offline.phenomena, offline.committed,
            offline.aborted)
        print(f"  {name}: serializable={verdict.serializable} "
              f"phenomena={verdict.phenomena} — matches offline")


async def certify_over_tcp(host: str, port: int, name: str, text: str):
    """One client: open a stream, send its operations, close it."""
    reader, writer = await asyncio.open_connection(host, port)

    async def call(**payload):
        writer.write((json.dumps(payload) + "\n").encode("utf-8"))
        await writer.drain()
        return json.loads(await reader.readline())

    await call(type="open", stream=name)
    ack = await call(type="ops", stream=name, ops=text)
    closed = await call(type="close", stream=name)
    writer.close()
    return [certificate["code"] for certificate in ack["certificates"]], \
        closed["persisted"]


async def tcp_clients(store: SqliteStore) -> int:
    server = CertifierServer(store=store, campaign_id="demo")
    await server.start()
    print(f"== server on 127.0.0.1:{server.port}, "
          f"{len(PAPER_STREAMS)} concurrent TCP clients ==")
    try:
        results = await asyncio.gather(*(
            certify_over_tcp(server.host, server.port, name, text)
            for name, text in PAPER_STREAMS.items()))
    finally:
        await server.stop()
    for name, (codes, persisted) in zip(PAPER_STREAMS, results):
        print(f"  {name}: certificates {', '.join(codes)} "
              f"({persisted} persisted)")
    return sum(persisted for _, persisted in results)


def main() -> None:
    live_certificates()
    byte_equality()
    with tempfile.TemporaryDirectory() as tmpdir:
        store = SqliteStore(os.path.join(tmpdir, "certs.sqlite"))
        try:
            emitted = asyncio.run(tcp_clients(store))
            persisted = store.load_certificates("demo")
            by_code: dict = {}
            for certificate in persisted:
                by_code[certificate.code] = by_code.get(certificate.code, 0) + 1
            print(f"== store holds {len(persisted)} certificates: "
                  + ", ".join(f"{code}x{count}"
                              for code, count in sorted(by_code.items()))
                  + " ==")
            assert len(persisted) == emitted and emitted > 0
        finally:
            store.close()
    print("online certifier walkthrough OK")


if __name__ == "__main__":
    main()
