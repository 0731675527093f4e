"""Crash-hardening of the SQLite store: busy retry, stats, migrations, leases."""

from __future__ import annotations

import sqlite3

import pytest

from repro.persist import LeaseRecord, SqliteStore
from repro.persist.records import lease_from_row, lease_to_row
from repro.persist.sqlite_store import SCHEMA_VERSION

CONFIG = {"spec_name": "t", "seed": 0}


@pytest.fixture
def store(tmp_path):
    backing = SqliteStore(tmp_path / "campaign.sqlite", busy_backoff_s=0.001)
    yield backing
    backing.close()


def _failures(n):
    """A busy_fault_hook that injects n transient lock errors, then passes."""
    remaining = {"n": n}

    def hook():
        if remaining["n"] > 0:
            remaining["n"] -= 1
            return True
        return False

    return hook


def test_transient_lock_errors_are_retried_and_counted(store):
    store.busy_fault_hook = _failures(2)
    store.open_campaign("c", CONFIG)
    stats = store.stats()
    assert stats["busy_retries"] == 2
    assert stats["write_transactions"] >= 1
    assert store.get_campaign("c") is not None


def test_lock_retry_budget_is_bounded(tmp_path):
    store = SqliteStore(tmp_path / "b.sqlite", busy_retries=3,
                        busy_backoff_s=0.001)
    store.busy_fault_hook = _failures(10)       # more than the budget
    with pytest.raises(sqlite3.OperationalError):
        store.open_campaign("c", CONFIG)
    assert store.stats()["busy_retries"] == 3   # tried exactly the budget
    store.busy_fault_hook = None
    store.open_campaign("c", CONFIG)            # recovers once the storm ends
    store.close()


def test_non_lock_errors_are_not_retried(store):
    store.open_campaign("c", CONFIG)
    with pytest.raises(sqlite3.OperationalError):
        store._write(lambda cur: cur.execute("INSERT INTO nonsense VALUES (1)"))
    assert store.stats()["busy_retries"] == 0


def test_busy_timeout_pragma_applied(store):
    [(timeout,)] = store._conn.execute("PRAGMA busy_timeout").fetchall()
    assert timeout == 5000


def test_schema_v1_store_migrates_in_place(tmp_path):
    path = tmp_path / "old.sqlite"
    store = SqliteStore(path)
    store.open_campaign("c", CONFIG)
    store.close()
    # Regress the file to schema v1: no leases or certificates tables,
    # old version stamp.
    conn = sqlite3.connect(path)
    conn.execute("DROP TABLE leases")
    conn.execute("DROP TABLE certificates")
    conn.execute("UPDATE meta SET value = '1' WHERE key = 'schema_version'")
    conn.commit()
    conn.close()

    upgraded = SqliteStore(path)                # reopening migrates
    assert upgraded.load_leases("c") == {}
    assert upgraded.load_certificates("c") == ()
    upgraded.put_lease("c", LeaseRecord("S", 0, "pending", 1))
    [(version,)] = upgraded._conn.execute(
        "SELECT value FROM meta WHERE key = 'schema_version'").fetchall()
    assert version == str(SCHEMA_VERSION)
    assert upgraded.get_campaign("c") is not None   # old data intact
    upgraded.close()


def test_lease_rows_round_trip_through_the_codec():
    lease = LeaseRecord("SERIALIZABLE", 4, "leased", 9, owner="w1", attempts=2)
    assert lease_from_row(lease_to_row(lease)) == lease
    with pytest.raises(ValueError):
        lease_to_row(LeaseRecord("S", 0, "limbo", 1))
    # Decoding checks the vocabulary too: a stored row in an unknown state is
    # an unreadable row, not a lease the queue and ``inspect`` must guess at.
    with pytest.raises(ValueError, match="unknown lease state 'zombie'"):
        lease_from_row(("S", 0, "zombie", 1, None, 0))
