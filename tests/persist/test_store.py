"""The store contract: campaigns, cursors, atomic chunk commits.

Every test runs on ``SqliteStore(":memory:")`` and on a store file via the
parametrized ``store`` fixture.
"""

from __future__ import annotations

import pytest

from repro.explorer.worker import ScheduleRecord
from repro.persist import (
    CampaignConfigMismatch,
    SqliteStore,
    StoreError,
)
from repro.persist import records as rec

from .test_sleep_set_store import _REP_INSERT, REP_RECORDS_TABLE

CONFIG = {"spec_name": "increments", "spec_params": [], "mode": "auto",
          "max_schedules": 100, "seed": 0, "reduction": "none",
          "chunk_size": 4}


def record(index: int, stalled: bool = False) -> ScheduleRecord:
    return ScheduleRecord(
        interleaving=(1, 2, 1, index),
        history=f"w1[x{index}] c1 c2",
        serializable=index % 2 == 0,
        phenomena=("P1",) if index % 3 == 0 else (),
        committed=(1, 2),
        aborted=(),
        blocked_events=index,
        deadlocks=0,
        stalled=stalled,
    )


class TestCampaigns:
    def test_open_creates_and_returns_config(self, store):
        info = store.open_campaign("c1", CONFIG)
        assert info.campaign_id == "c1"
        assert info.config == CONFIG

    def test_reopen_validates_config(self, store):
        store.open_campaign("c1", CONFIG)
        assert store.open_campaign("c1", CONFIG).config == CONFIG
        assert store.open_campaign("c1").config == CONFIG  # no config: loads

    def test_reopen_with_different_config_is_refused(self, store):
        store.open_campaign("c1", CONFIG)
        with pytest.raises(CampaignConfigMismatch):
            store.open_campaign("c1", {**CONFIG, "seed": 1})

    def test_open_unknown_without_config_is_an_error(self, store):
        with pytest.raises(StoreError):
            store.open_campaign("missing")

    def test_get_campaign(self, store):
        assert store.get_campaign("c1") is None
        store.open_campaign("c1", CONFIG)
        assert store.get_campaign("c1").config == CONFIG

    def test_list_campaigns_in_creation_order(self, store):
        store.open_campaign("b", CONFIG)
        store.open_campaign("a", {**CONFIG, "seed": 9})
        assert [info.campaign_id for info in store.list_campaigns()] == ["b", "a"]


class TestChunkCommits:
    def test_cursor_starts_at_zero(self, store):
        store.open_campaign("c1", CONFIG)
        assert store.cursor("c1", "scope") == 0

    def test_commit_advances_cursor_and_counts_records(self, store):
        store.open_campaign("c1", CONFIG)
        store.commit_chunk("c1", "scope", 0, [record(0), record(1)])
        store.commit_chunk("c1", "scope", 1, [record(2)])
        progress = store.scope_progress("c1")["scope"]
        assert progress.cursor == 2
        assert progress.records == 3
        assert not progress.complete

    def test_out_of_order_commit_is_refused(self, store):
        store.open_campaign("c1", CONFIG)
        store.commit_chunk("c1", "scope", 0, [record(0)])
        for bad_index in (0, 2, 5):
            with pytest.raises(StoreError):
                store.commit_chunk("c1", "scope", bad_index, [record(9)])
        assert store.cursor("c1", "scope") == 1  # refusals left no trace

    def test_commit_against_unknown_campaign_is_refused(self, store):
        with pytest.raises(StoreError):
            store.commit_chunk("ghost", "scope", 0, [record(0)])

    def test_load_chunk_round_trips_records(self, store):
        store.open_campaign("c1", CONFIG)
        chunk = (record(0), record(1, stalled=True))
        store.commit_chunk("c1", "scope", 0, chunk)
        assert store.load_chunk("c1", "scope", 0) == chunk

    def test_load_chunk_ignores_rep_records(self, store):
        """Representative rows an earlier build wrote beside a chunk (see
        ``tests/persist/test_sleep_set_store.py``) are never read back."""
        store.open_campaign("c1", CONFIG)
        chunk = (record(0), record(1), record(2))
        store.commit_chunk("c1", "scope", 0, chunk)
        row = ("c1", "scope", 0, 0) + rec.record_to_row(record(7))
        store._write(lambda cur: cur.execute(REP_RECORDS_TABLE))
        store._write(lambda cur: cur.execute(_REP_INSERT, row))
        assert store.load_chunk("c1", "scope", 0) == chunk
        assert tuple(store.iter_records("c1", "scope")) == chunk
        assert store.scope_progress("c1")["scope"].records == 3

    def test_load_uncommitted_chunk_is_an_error(self, store):
        store.open_campaign("c1", CONFIG)
        with pytest.raises(StoreError):
            store.load_chunk("c1", "scope", 0)

    def test_iter_records_preserves_stream_order(self, store):
        store.open_campaign("c1", CONFIG)
        store.commit_chunk("c1", "scope", 0, [record(0), record(1)])
        store.commit_chunk("c1", "scope", 1, [record(2)])
        assert list(store.iter_records("c1", "scope")) == [
            record(0), record(1), record(2)]

    def test_scopes_are_independent(self, store):
        store.open_campaign("c1", CONFIG)
        store.commit_chunk("c1", "a", 0, [record(0)])
        assert store.cursor("c1", "a") == 1
        assert store.cursor("c1", "b") == 0

    def test_mark_scope_complete_persists_stats(self, store):
        store.open_campaign("c1", CONFIG)
        store.commit_chunk("c1", "scope", 0, [record(0)])
        store.mark_scope_complete("c1", "scope", 1, {"executed": 1})
        progress = store.scope_progress("c1")["scope"]
        assert progress.complete
        assert progress.total_chunks == 1
        assert progress.stats == {"executed": 1}


class TestSqlitePersistence:
    def test_data_survives_close_and_reopen(self, tmp_path):
        path = tmp_path / "c.sqlite"
        store = SqliteStore(path)
        store.open_campaign("c1", CONFIG)
        store.commit_chunk("c1", "scope", 0, [record(0)])
        store.close()

        reopened = SqliteStore(path)
        assert reopened.get_campaign("c1").config == CONFIG
        assert list(reopened.iter_records("c1", "scope")) == [record(0)]
        reopened.close()

    def test_schema_version_mismatch_is_refused(self, tmp_path):
        path = tmp_path / "c.sqlite"
        store = SqliteStore(path)
        store._conn.execute("UPDATE meta SET value = '999' "
                            "WHERE key = 'schema_version'")
        store._conn.commit()
        store.close()
        with pytest.raises(StoreError):
            SqliteStore(path)
