"""The certifier server's protocol, the load generator, and persistence."""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.persist import SqliteStore
from repro.service import CertifierServer, LoadConfig, generate_stream, run_load
from repro.service.loadgen import drain_offline, run_load_tcp
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


class TestLoadgen:
    def test_streams_are_deterministic(self):
        config = LoadConfig(clients=3, transactions_per_client=5, seed=9)
        assert generate_stream(config, 0) == generate_stream(config, 0)
        assert generate_stream(config, 0) != generate_stream(config, 1)
        reseeded = LoadConfig(clients=3, transactions_per_client=5, seed=10)
        assert generate_stream(config, 0) != generate_stream(reseeded, 0)

    def test_transaction_ids_are_disjoint_across_clients(self):
        config = LoadConfig(clients=2, transactions_per_client=4, seed=1)
        txns = [set(), set()]
        for client in (0, 1):
            for token in generate_stream(config, client):
                digits = "".join(ch for ch in token.split("[")[0]
                                 if ch.isdigit())
                txns[client].add(int(digits))
        assert not (txns[0] & txns[1])

    def test_run_load_verifies_byte_equality(self):
        config = LoadConfig(clients=6, transactions_per_client=8, seed=4)
        report = run_load(config, verify=True)
        assert report.byte_equal is True
        assert report.certificates > 0
        assert report.ops > 0
        assert report.p99_classify_us >= report.p50_classify_us

    def test_offline_drain_matches_generate_stream(self):
        config = LoadConfig(clients=1, transactions_per_client=6, seed=2)
        classification = drain_offline(config, 0)
        # The generated stream must exercise the interesting region: at
        # least one committed transaction and at least one phenomenon over
        # the default config shape.
        assert classification.committed

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="clients"):
            LoadConfig(clients=0)
        with pytest.raises(ValueError, match="burst"):
            LoadConfig(burst=0)


class TestEndToEndLoad:
    def test_fifty_concurrent_clients_over_tcp(self):
        """The acceptance shape: >= 50 concurrent TCP clients, certificates
        produced, and the TCP totals equal to the in-process ground truth."""
        config = LoadConfig(clients=50, transactions_per_client=4, seed=3)
        ground = run_load(config, verify=True)
        assert ground.byte_equal is True

        async def scenario():
            server = CertifierServer()
            await server.start()
            try:
                return await run_load_tcp(server.host, server.port, config)
            finally:
                await server.stop()

        report = _run(scenario())
        assert report.clients == 50
        assert report.ops == ground.ops
        assert report.certificates == ground.certificates > 0
