"""The certifier server's protocol, its CLI, concurrent clients, and
persistence."""

from __future__ import annotations

import asyncio
import json
import random
import time

import pytest

from repro.cli import main
from repro.persist import SqliteStore
from repro.service import CertifierServer, OnlineClassifier
from repro.service.server import MAX_LINE_BYTES


async def _session(host, port):
    reader, writer = await asyncio.open_connection(host, port)

    async def call(payload):
        writer.write((json.dumps(payload) + "\n").encode("utf-8"))
        await writer.drain()
        return json.loads((await reader.readline()).decode("utf-8"))

    return call, writer


def _run(coroutine):
    return asyncio.run(coroutine)


class TestProtocol:
    def test_open_feed_verdict_close(self):
        async def scenario():
            server = CertifierServer()
            await server.start()
            try:
                call, writer = await _session(server.host, server.port)
                assert (await call({"type": "open", "stream": "s"}))["type"] \
                    == "opened"
                ack = await call({"type": "ops", "stream": "s",
                                  "ops": "r1[x] w2[x] w1[x] c1 c2"})
                assert ack["type"] == "ack" and ack["ops"] == 5
                codes = [c["code"] for c in ack["certificates"]]
                assert "P2" in codes and "P4" in codes
                verdict = await call({"type": "verdict", "stream": "s"})
                assert verdict["serializable"] is False
                assert verdict["committed"] == [1, 2]
                closed = await call({"type": "close", "stream": "s"})
                assert closed["certificates"] == len(codes)
                writer.close()
            finally:
                await server.stop()
        _run(scenario())

    def test_errors_keep_the_connection_alive(self):
        async def scenario():
            server = CertifierServer()
            await server.start()
            try:
                call, writer = await _session(server.host, server.port)
                # Unknown request type -> request error.
                reply = await call({"type": "bogus"})
                assert reply["type"] == "error" and reply["kind"] == "request"
                # Ops on an unopened stream -> request error.
                reply = await call({"type": "ops", "stream": "s", "ops": "c1"})
                assert reply["type"] == "error"
                # The connection still works afterwards.
                assert (await call({"type": "open", "stream": "s"}))["type"] \
                    == "opened"
                writer.close()
            finally:
                await server.stop()
        _run(scenario())

    def test_stream_error_poisons_only_that_stream(self):
        async def scenario():
            server = CertifierServer()
            await server.start()
            try:
                call, writer = await _session(server.host, server.port)
                await call({"type": "open", "stream": "bad"})
                await call({"type": "open", "stream": "good"})
                reply = await call({"type": "ops", "stream": "bad",
                                    "ops": "c1 r1[x]"})
                assert reply["type"] == "error" and reply["kind"] == "stream"
                # The poisoned stream rejects further traffic...
                reply = await call({"type": "ops", "stream": "bad",
                                    "ops": "r2[x]"})
                assert reply["type"] == "error" and reply["kind"] == "stream"
                # ...while the other stream is untouched.
                reply = await call({"type": "ops", "stream": "good",
                                    "ops": "r1[x] c1"})
                assert reply["type"] == "ack"
                closed = await call({"type": "close", "stream": "bad"})
                assert closed.get("poisoned") is True
                writer.close()
            finally:
                await server.stop()
        _run(scenario())

    def test_stats_reports_latency_percentiles(self):
        async def scenario():
            server = CertifierServer()
            await server.start()
            try:
                call, writer = await _session(server.host, server.port)
                await call({"type": "open", "stream": "s"})
                await call({"type": "ops", "stream": "s", "ops": "r1[x] c1"})
                stats = await call({"type": "stats"})
                assert stats["ops"] == 2
                assert stats["p99_classify_us"] >= stats["p50_classify_us"] >= 0
                writer.close()
            finally:
                await server.stop()
        _run(scenario())

    def test_close_persists_certificates_to_the_store(self):
        store = SqliteStore(":memory:")

        async def scenario():
            server = CertifierServer(store=store, campaign_id="svc")
            await server.start()
            try:
                call, writer = await _session(server.host, server.port)
                await call({"type": "open", "stream": "s"})
                await call({"type": "ops", "stream": "s",
                            "ops": "r1[x] w2[x] w1[x] c1 c2"})
                closed = await call({"type": "close", "stream": "s"})
                assert closed["persisted"] == closed["certificates"] > 0
                writer.close()
            finally:
                await server.stop()

        _run(scenario())
        stored = store.load_certificates("svc", stream="s")
        assert [c.code for c in stored].count("CYCLE") == 1
        assert [c.seq for c in stored] == list(range(len(stored)))


def _line(payload) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


async def _replies(reader, count):
    return [json.loads(await reader.readline()) for _ in range(count)]


def _serving(scenario):
    """Run ``scenario(server)`` against a started server, then stop it."""
    async def wrapped():
        server = CertifierServer()
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()
    return asyncio.run(wrapped())


class TestFraming:
    """The server frames lines itself: batches in, coalesced replies out."""

    def test_many_requests_in_one_segment_answer_in_order(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            names = [f"s{i}" for i in range(50)]
            writer.write(b"".join(_line({"type": "open", "stream": name})
                                  for name in names))
            opened = await _replies(reader, len(names))
            assert [r["stream"] for r in opened] == names
            assert {r["type"] for r in opened} == {"opened"}
            writer.write(b"".join(
                _line({"type": "ops", "stream": name, "ops": "r1[x] " * i + "c1"})
                for i, name in enumerate(names)))
            acks = await _replies(reader, len(names))
            assert [(r["stream"], r["ops"]) for r in acks] == \
                [(name, i + 1) for i, name in enumerate(names)]
            writer.close()
        _serving(scenario)

    def test_a_line_split_across_segments_is_one_request(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            line = _line({"type": "open", "stream": "split"})
            follow = _line({"type": "verdict", "stream": "split"})
            writer.write(line[:9])
            await writer.drain()
            await asyncio.sleep(0.05)
            writer.write(line[9:] + follow[:5])
            await writer.drain()
            assert (await _replies(reader, 1))[0] == \
                {"type": "opened", "stream": "split", "mv": False}
            await asyncio.sleep(0.05)
            writer.write(follow[5:])
            assert (await _replies(reader, 1))[0]["type"] == "verdict"
            writer.close()
        _serving(scenario)

    def test_an_error_keeps_its_place_in_the_batch(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(
                _line({"type": "open", "stream": "a"})
                + b"this is not json\n"
                + _line({"type": "ops", "stream": "a", "ops": "c1 r1[x]"})
                + _line({"type": "open", "stream": "b"})
                + _line({"type": "ops", "stream": "b", "ops": "r1[x] c1"}))
            replies = await _replies(reader, 5)
            assert [r["type"] for r in replies] == \
                ["opened", "error", "error", "opened", "ack"]
            assert [r.get("kind") for r in replies[1:3]] == ["request", "stream"]
            assert replies[4]["stream"] == "b" and replies[4]["ops"] == 2
            writer.close()
        _serving(scenario)

    def test_blank_lines_are_skipped(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(b"\n  \n\r\n" + _line({"type": "open", "stream": "s"})
                         + b"\n\n" + _line({"type": "verdict", "stream": "s"})
                         + b"   \n")
            replies = await _replies(reader, 2)
            assert [r["type"] for r in replies] == ["opened", "verdict"]
            writer.write(_line({"type": "stats"}))
            assert (await _replies(reader, 1))[0]["type"] == "stats"
            writer.close()
        _serving(scenario)

    def test_an_unterminated_last_line_is_answered_at_eof(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(_line({"type": "open", "stream": "s"})
                         + _line({"type": "verdict", "stream": "s"}).rstrip(b"\n"))
            writer.write_eof()
            replies = await _replies(reader, 2)
            assert [r["type"] for r in replies] == ["opened", "verdict"]
            assert await reader.read() == b""
            writer.close()
        _serving(scenario)

    def test_a_line_of_exactly_the_limit_is_served(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            line = _line({"type": "open", "stream": "s"})
            padded = line.rstrip(b"\n") + b" " * (MAX_LINE_BYTES + 1 - len(line))
            assert len(padded) == MAX_LINE_BYTES
            writer.write(padded + b"\n")
            assert (await _replies(reader, 1))[0]["type"] == "opened"
            writer.close()
        _serving(scenario)

    @pytest.mark.parametrize("terminated", [True, False])
    def test_an_oversized_line_is_a_named_error_and_closes(self, terminated):
        """Fails closed: named error, this connection closed, every other
        connection and every stream untouched — terminated or still arriving."""
        async def scenario(server):
            other_reader, other = await asyncio.open_connection(server.host,
                                                                server.port)
            other.write(_line({"type": "open", "stream": "kept"})
                        + _line({"type": "ops", "stream": "kept", "ops": "w1[x]"}))
            await _replies(other_reader, 2)

            reader, writer = await asyncio.open_connection(server.host, server.port)
            big = _line({"type": "ops", "stream": "kept",
                         "ops": "r2[x] " * 20_000})
            assert len(big) > MAX_LINE_BYTES
            writer.write(_line({"type": "verdict", "stream": "kept"})
                         + (big if terminated else big.rstrip(b"\n"))
                         + (_line({"type": "close", "stream": "kept"})
                            if terminated else b""))
            verdict, error = await _replies(reader, 2)
            assert verdict["type"] == "verdict" and verdict["ops"] == 1
            assert error == {"type": "error", "kind": "request",
                             "error": f"line exceeds {MAX_LINE_BYTES} bytes"}
            assert await reader.read() == b""
            writer.close()

            # Nothing of the oversized line was fed; the request behind it on
            # the closed connection was dropped with the connection.
            other.write(_line({"type": "ops", "stream": "kept", "ops": "r2[x]"})
                        + _line({"type": "verdict", "stream": "kept"}))
            ack, verdict = await _replies(other_reader, 2)
            assert ack["type"] == "ack"
            assert [c["code"] for c in ack["certificates"]] == ["P1"]
            assert verdict["ops"] == 2
            other.close()
        _serving(scenario)

    def test_a_flooding_connection_does_not_starve_another(self):
        """One connection keeps thousands of requests pipelined; a second
        connection's round trips stay short while the flood is still being
        served — a batch is bounded and the handler yields between batches."""
        flood = 20_000

        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(_line({"type": "open", "stream": "flood"}))
            await _replies(reader, 1)
            served = 0

            async def drain_flood():
                nonlocal served
                for _ in range(flood):
                    await reader.readline()
                    served += 1

            request = _line({"type": "ops", "stream": "flood",
                             "ops": "r1[x] r2[y] r1[y] r2[x]"})
            writer.write(request * flood)
            draining = asyncio.ensure_future(drain_flood())

            probe_reader, probe = await asyncio.open_connection(server.host,
                                                                server.port)
            round_trips = []
            for _ in range(5):
                started = time.perf_counter()
                probe.write(_line({"type": "open", "stream": "probe"}))
                await _replies(probe_reader, 1)
                probe.write(_line({"type": "close", "stream": "probe"}))
                await _replies(probe_reader, 1)
                round_trips.append(time.perf_counter() - started)
            served_at_probe_end = served
            await draining
            probe.close()
            writer.close()
            return round_trips, served_at_probe_end

        round_trips, served_at_probe_end = _serving(scenario)
        assert served_at_probe_end < flood, "the flood ended before the probe"
        assert max(round_trips) < 1.0


class TestOpenValidation:
    @pytest.mark.parametrize("value", ["Infinity", "1e400", "NaN", "0", "true",
                                       '"8"'])
    @pytest.mark.parametrize("field", ["evict_interval", "witness_window"])
    def test_a_hostile_open_is_a_named_error(self, field, value):
        """Anything but a JSON integer >= 1 is a request error; the stream is
        not opened and the connection keeps serving."""
        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(f'{{"type": "open", "stream": "a", "{field}": {value}}}\n'
                         .encode("utf-8")
                         + _line({"type": "stats"})
                         + _line({"type": "open", "stream": "a"}))
            error, stats, opened = await _replies(reader, 3)
            assert error["type"] == "error" and error["kind"] == "request"
            assert f"'{field}' must be an integer >= 1" in error["error"]
            assert stats["type"] == "stats" and stats["streams"] == 0
            assert opened["type"] == "opened"
            writer.close()
        _serving(scenario)


class TestServeCli:
    @pytest.mark.parametrize("argv", [["--port", "99999"], ["--port", "-1"],
                                      ["--port", "http"],
                                      ["--evict-interval", "0"]])
    def test_a_config_it_cannot_run_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[0]}: expected an integer" in err
        assert "error:" in err and "Traceback" not in err


def _seeded_stream(seed, transactions=4, ops_per_transaction=4, items=6):
    """A seeded certifier stream: interleaved transactions over skewed items,
    most committing, some aborting, some stalled (no terminal at all)."""
    rng = random.Random(seed)
    weights = [1.0 / rank for rank in range(1, items + 1)]
    live = {txn: 0 for txn in range(1, transactions + 1)}
    tokens = []
    while live:
        txn = rng.choice(sorted(live))
        if live[txn] == ops_per_transaction:
            del live[txn]
            roll = rng.random()
            if roll >= 0.1:
                tokens.append(f"{'a' if roll < 0.2 else 'c'}{txn}")
            continue
        live[txn] += 1
        (item,) = rng.choices(range(items), weights)
        tokens.append(f"{'w' if rng.random() < 0.45 else 'r'}{txn}[k{item}]")
    return tokens


async def _drive_stream(host, port, name, tokens, burst=8):
    """One TCP client's whole stream: open, bursts of ops, verdict, close."""
    call, writer = await _session(host, port)
    assert (await call({"type": "open", "stream": name}))["type"] == "opened"
    ops = certificates = 0
    for start in range(0, len(tokens), burst):
        ack = await call({"type": "ops", "stream": name,
                          "ops": " ".join(tokens[start:start + burst])})
        assert ack["type"] == "ack", ack
        ops += ack["ops"]
        certificates += len(ack["certificates"])
    verdict = await call({"type": "verdict", "stream": name})
    assert (await call({"type": "close", "stream": name}))["type"] == "closed"
    writer.close()
    return (ops, certificates, verdict["serializable"], verdict["phenomena"],
            verdict["committed"], verdict["aborted"])


class TestEndToEndLoad:
    def test_fifty_concurrent_clients_over_tcp(self):
        """>= 50 concurrent TCP clients, certificates produced, and each
        client's totals and verdict equal to its stream drained in-process."""
        streams = {f"client-{seed}": _seeded_stream(seed) for seed in range(50)}
        expected = {}
        for name, tokens in streams.items():
            classifier = OnlineClassifier(name)
            certificates = sum(len(classifier.feed_shorthand(token))
                               for token in tokens)
            verdict = classifier.verdict()
            expected[name] = (classifier.ops, certificates,
                              verdict.serializable, list(verdict.phenomena),
                              list(verdict.committed), list(verdict.aborted))

        async def scenario():
            server = CertifierServer()
            await server.start()
            try:
                return await asyncio.gather(*(
                    _drive_stream(server.host, server.port, name, tokens)
                    for name, tokens in streams.items()))
            finally:
                await server.stop()

        observed = dict(zip(streams, _run(scenario())))
        assert observed == expected
        assert sum(certificates for _, certificates, *_ in expected.values()) > 0
