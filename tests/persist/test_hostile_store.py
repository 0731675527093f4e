"""Hostile store files fail closed at every CLI entry.

A finished small distributed campaign file is mutated — truncated,
byte-flipped inside a record's JSON column, stamped with a future schema
version, given an unknown phenomenon code or lease state, or replaced by
junk — and every entry that opens
a store is called in-process on it: ``campaign run / resume / inspect
[--report] / list``, ``distrib verify`` and ``serve --store``.  Each call
must either exit 2 with a named ``error:`` on stderr, or exit 0 with output
byte-identical to the same call on the unmutated file.  Nothing may
escape as a traceback, and no report may come back silently shorter.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import re
import shutil
import signal
import sqlite3
import traceback
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.phenomena import ALL_PHENOMENA
from repro.distrib.cli import main as distrib_main
from repro.persist import SqliteStore, StoreError
from repro.persist import records as rec
from repro.persist.cli import main as campaign_main
from repro.persist.sqlite_store import SCHEMA_VERSION
from repro.service.cli import serve_main
from repro.service.server import CertifierServer

FLAGS = ["--program-set", "increments", "--max-schedules", "50",
         "--chunk-size", "8", "--campaign", "c1"]


def _serve(path: str) -> int:
    """``serve --store``, stopped by SIGINT as soon as it listens."""
    real_start = CertifierServer.start

    async def start(server):
        await real_start(server)
        # Runs once _serve awaits its stop event, with its handler installed.
        asyncio.get_running_loop().call_soon(signal.raise_signal, signal.SIGINT)

    with mock.patch.object(CertifierServer, "start", start):
        return serve_main(["--store", path])


ENTRIES = {
    "run": lambda path: campaign_main(["run", "--store", path, *FLAGS]),
    "resume": lambda path: campaign_main(["resume", "--store", path,
                                          "--campaign", "c1"]),
    "inspect": lambda path: campaign_main(["inspect", "--store", path,
                                           "--campaign", "c1"]),
    "inspect --report": lambda path: campaign_main([
        "inspect", "--store", path, "--campaign", "c1", "--report"]),
    "list": lambda path: campaign_main(["list", "--store", path]),
    "distrib verify": lambda path: distrib_main([
        "verify", "--store", path, "--workers", "1", *FLAGS]),
    "serve": _serve,
}


def _call(entry: str, path: str):
    """``(exit code, stdout, stderr)`` of one entry; an escaping exception
    is reported as the traceback the command line would have printed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ENTRIES[entry](path)
    except (Exception, SystemExit):  # noqa: BLE001 - any escape is a failure
        return None, out.getvalue(), traceback.format_exc()
    # Run-dependent text: the store path, the verify wall time, the port.
    text = out.getvalue().replace(path, "<store>")
    text = re.sub(r" in \d+\.\d+s", " in <t>", text)
    text = re.sub(r"listening on \S+", "listening on <addr>", text)
    return code, text, err.getvalue()


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """A finished ``increments`` campaign file and every entry's output on it.

    Run distributed, so the file holds lease rows as well as records.
    """
    root = tmp_path_factory.mktemp("hostile")
    base = str(root / "base.sqlite")
    with contextlib.redirect_stdout(io.StringIO()):
        assert distrib_main(["run", "--store", base, "--workers", "1",
                             *FLAGS]) == 0
    expected = {}
    for entry in ENTRIES:
        copy = str(root / "reference.sqlite")
        shutil.copyfile(base, copy)
        code, out, err = _call(entry, copy)
        assert code == 0, (entry, err)
        expected[entry] = out
        for suffix in ("", "-wal", "-shm"):
            with contextlib.suppress(FileNotFoundError):
                (root / f"reference.sqlite{suffix}").unlink()
    return root, base, expected


def _sql(path: str, statement: str, *params) -> None:
    conn = sqlite3.connect(path)
    conn.execute(statement, params)
    conn.commit()
    conn.close()


def _record_rows(path: str):
    conn = sqlite3.connect(path)
    rows = conn.execute("SELECT rowid, phenomena, committed, aborted "
                        "FROM records ORDER BY rowid").fetchall()
    conn.close()
    return rows


def _mutate(kind: str, path: str, data) -> None:
    """Apply one drawn mutation of ``kind`` to the store file at ``path``."""
    if kind == "truncate":
        size = len(open(path, "rb").read())
        # A 0- or 1-byte file is, to SQLite, an empty database: nothing is
        # left to detect, so the cut keeps at least two bytes.
        with open(path, "r+b") as handle:
            handle.truncate(data.draw(st.integers(2, size - 1), label="offset"))
    elif kind == "flip":
        rows = _record_rows(path)
        rowid, *columns = data.draw(st.sampled_from(rows), label="row")
        column = data.draw(st.sampled_from(range(3)), label="column")
        text = bytearray(columns[column].encode())
        position = data.draw(st.integers(0, len(text) - 1), label="position")
        # Every stored JSON column is ASCII; setting the high bit takes the
        # byte out of it, so the flip cannot land on another valid value.
        text[position] ^= data.draw(st.integers(0x80, 0xFF), label="mask")
        name = ("phenomena", "committed", "aborted")[column]
        _sql(path, f"UPDATE records SET {name} = CAST(? AS TEXT) "
                   f"WHERE rowid = ?", bytes(text), rowid)
    elif kind == "schema":
        version = data.draw(st.integers(SCHEMA_VERSION + 1, 10**6),
                            label="version")
        _sql(path, "UPDATE meta SET value = ? WHERE key = 'schema_version'",
             str(version))
    elif kind == "lease state":
        conn = sqlite3.connect(path)
        rowids = [rowid for (rowid,) in conn.execute(
            "SELECT rowid FROM leases ORDER BY rowid")]
        conn.close()
        _sql(path, "UPDATE leases SET state = 'zombie' WHERE rowid = ?",
             data.draw(st.sampled_from(rowids), label="lease"))
    elif kind == "unknown code":
        rowid, phenomena, _, _ = data.draw(st.sampled_from(_record_rows(path)),
                                           label="row")
        code = data.draw(st.text("ABCPZ0123456789", min_size=1, max_size=4)
                         .filter(lambda code: code not in ALL_PHENOMENA),
                         label="code")
        codes = json.loads(phenomena) if data.draw(st.booleans(),
                                                   label="append") else []
        _sql(path, "UPDATE records SET phenomena = ? WHERE rowid = ?",
             json.dumps(codes + [code], separators=(",", ":")), rowid)
    else:
        with open(path, "wb") as handle:
            handle.write(data.draw(st.binary(min_size=2, max_size=4096),
                                   label="junk"))


@pytest.mark.parametrize("kind", ["truncate", "flip", "schema",
                                  "unknown code", "lease state", "junk"])
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_entry_fails_closed_or_reports_identically(finished, kind, data):
    root, base, expected = finished
    mutated = str(root / "mutated.sqlite")
    shutil.copyfile(base, mutated)
    _mutate(kind, mutated, data)
    pristine = open(mutated, "rb").read()
    for entry in ENTRIES:
        path = str(root / "entry.sqlite")
        for suffix in ("-wal", "-shm"):
            with contextlib.suppress(FileNotFoundError):
                (root / f"entry.sqlite{suffix}").unlink()
        with open(path, "wb") as handle:
            handle.write(pristine)
        code, out, err = _call(entry, path)
        assert "Traceback" not in err, (entry, err)
        if code == 2:
            assert re.match(r"error: \S", err), (entry, err)
        else:
            assert code == 0, (entry, code, err)
            assert out == expected[entry], entry


# -- one named case per fail-closed path ----------------------------------------------


@pytest.fixture
def campaign_file(finished, tmp_path):
    path = str(tmp_path / "store.sqlite")
    shutil.copyfile(finished[1], path)
    return path


def _first_witness(path: str) -> int:
    conn = sqlite3.connect(path)
    [(rowid,)] = conn.execute("SELECT rowid FROM records WHERE phenomena "
                              "!= '[]' ORDER BY rowid LIMIT 1").fetchall()
    conn.close()
    return rowid


def test_a_file_that_is_not_a_database_fails_closed(tmp_path, capsys):
    junk = str(tmp_path / "junk.sqlite")
    with open(junk, "wb") as handle:
        handle.write(b"certainly not SQLite\n" * 64)
    with pytest.raises(StoreError, match=re.escape(repr(junk))):
        SqliteStore(junk)
    for argv in (["inspect", "--store", junk], ["list", "--store", junk],
                 ["resume", "--store", junk, "--campaign", "c1"],
                 ["run", "--store", junk, *FLAGS]):
        assert campaign_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: store {junk!r}") and "not a" in err
    assert serve_main(["--store", junk]) == 2
    assert capsys.readouterr().err.startswith(f"error: store {junk!r}")


def test_a_malformed_row_fails_closed_naming_campaign_and_scope(campaign_file,
                                                                capsys):
    _sql(campaign_file, "UPDATE records SET phenomena = '[\"P1\"' "
                        "WHERE rowid = ?", _first_witness(campaign_file))
    assert campaign_main(["inspect", "--store", campaign_file, "--campaign",
                          "c1", "--report"]) == 2
    err = capsys.readouterr().err
    assert re.match(r"error: store .* campaign 'c1', scope '[A-Z ]+'", err)


def test_serve_maps_a_future_schema_to_exit_2(campaign_file, capsys):
    _sql(campaign_file, "UPDATE meta SET value = '99' "
                        "WHERE key = 'schema_version'")
    assert serve_main(["--store", campaign_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: store") and "schema version 99" in err
    assert "Traceback" not in err


def test_an_unknown_phenomenon_code_is_rejected(campaign_file, capsys):
    row = ("1,2", "h", 0, '["ZZ"]', "[]", "[]", 0, 0, 0)
    with pytest.raises(ValueError, match="unknown phenomenon code"):
        rec.record_from_row(row)
    _sql(campaign_file, "UPDATE records SET phenomena = '[\"ZZ\"]' "
                        "WHERE rowid = 1")
    assert campaign_main(["inspect", "--store", campaign_file, "--campaign",
                          "c1", "--report"]) == 2
    err = capsys.readouterr().err
    assert "unknown phenomenon code" in err and "campaign 'c1'" in err


def test_an_unknown_lease_state_is_rejected(campaign_file, capsys):
    _sql(campaign_file, "UPDATE leases SET state = 'zombie' WHERE rowid = 1")
    assert campaign_main(["inspect", "--store", campaign_file,
                          "--campaign", "c1"]) == 2
    err = capsys.readouterr().err
    assert "unknown lease state 'zombie'" in err and "campaign 'c1'" in err
