"""SQL analytics agreement: InMemoryStore's python mirrors vs SqliteStore's SQL.

The same campaign data must yield identical anomaly-frequency series,
witness lookups, and conflict-edge rankings from both backends — window
functions and ``json_each`` on one side, plain python on the other.
"""

from __future__ import annotations

import pytest

from repro.explorer import ExploreOptions, ProgramSetSpec, explore
from repro.explorer.worker import ScheduleRecord
from repro.persist import InMemoryStore, SqliteStore
from repro.persist.analytics import campaign_summary, persist_result

CONFIG = {"spec_name": "increments", "spec_params": [], "mode": "auto",
          "max_schedules": 100, "seed": 0, "reduction": "none",
          "chunk_size": 4}


def record(index: int, codes=()) -> ScheduleRecord:
    return ScheduleRecord(
        interleaving=(1, 2, index), history=f"h{index}",
        serializable=not codes, phenomena=tuple(codes), committed=(1, 2),
        aborted=(), blocked_events=0, deadlocks=0, stalled=False)


@pytest.fixture
def both_stores(tmp_path):
    memory = InMemoryStore()
    sqlite = SqliteStore(tmp_path / "c.sqlite")
    yield memory, sqlite
    memory.close()
    sqlite.close()


def fill(store) -> None:
    store.open_campaign("c1", CONFIG)
    store.commit_chunk("c1", "scope", 0,
                       [record(0), record(1, ["P1"]), record(2, ["P1", "P2"])])
    store.commit_chunk("c1", "scope", 1, [record(3), record(4, ["P2"])])
    store.commit_chunk("c1", "scope", 2, [record(5, ["P1"])])
    # edges chosen to force a count tie: rw and ww both appear twice
    store.save_witness_edges("c1", [
        ("scope", "P1", 1, 2, "rw", "x"),
        ("scope", "P1", 2, 1, "rw", None),
        ("scope", "P2", 1, 2, "ww", "x"),
        ("scope", "P2", 2, 1, "ww", "y"),
        ("scope", "P2", 1, 2, "wr", "x"),
    ])


class TestBackendAgreement:
    def test_anomaly_frequency_agrees(self, both_stores):
        for store in both_stores:
            fill(store)
        memory, sqlite = both_stores
        for code in ("P1", "P2", "P9"):
            assert (memory.anomaly_frequency("c1", "scope", code)
                    == sqlite.anomaly_frequency("c1", "scope", code))

    def test_witness_for_agrees(self, both_stores):
        for store in both_stores:
            fill(store)
        memory, sqlite = both_stores
        for code in ("P1", "P2", "P9"):
            assert (memory.witness_for("c1", "scope", code)
                    == sqlite.witness_for("c1", "scope", code))

    def test_conflict_edges_agree_including_tied_ranks(self, both_stores):
        for store in both_stores:
            fill(store)
        memory, sqlite = both_stores
        rows = memory.conflict_edge_summary("c1")
        assert rows == sqlite.conflict_edge_summary("c1")
        by_kind = {row.kind: row for row in rows}
        assert by_kind["rw"].rank == by_kind["ww"].rank == 1  # shared rank
        assert by_kind["wr"].rank == 3                        # RANK skips 2


class TestFrequencySemantics:
    def test_cumulative_is_a_running_total_over_chunks(self, both_stores):
        for store in both_stores:
            fill(store)
        memory, _ = both_stores
        series = memory.anomaly_frequency("c1", "scope", "P1")
        assert [(row.chunk_index, row.schedules, row.witnessed, row.cumulative)
                for row in series] == [(0, 3, 2, 2), (1, 2, 0, 2), (2, 1, 1, 3)]

    def test_witness_is_the_earliest_schedule(self, both_stores):
        for store in both_stores:
            fill(store)
        memory, sqlite = both_stores
        for store in (memory, sqlite):
            witness = store.witness_for("c1", "scope", "P2")
            assert witness.schedule_index == 2
            assert witness.interleaving == (1, 2, 2)
            assert witness.history == "h2"

    def test_unknown_code_yields_empty_series_and_no_witness(self, both_stores):
        for store in both_stores:
            fill(store)
        for store in both_stores:
            series = store.anomaly_frequency("c1", "scope", "P9")
            assert all(row.witnessed == 0 for row in series)
            assert store.witness_for("c1", "scope", "P9") is None


class TestEndToEndAnalytics:
    """The full path: explore → persist_result → query, on both backends."""

    def test_campaign_summaries_agree(self, both_stores):
        spec = ProgramSetSpec.make("increments")
        summaries = []
        for store in both_stores:
            result = explore(spec, ExploreOptions(
                max_schedules=120, chunk_size=8, store=store, campaign_id="c1"))
            persist_result(store, "c1", result)
            summary = campaign_summary(store, "c1")
            summaries.append(summary.replace(store.description(), "<store>"))
        assert summaries[0] == summaries[1]
        assert "witness conflict edges" in summaries[0]

    def test_summary_of_missing_campaign(self, both_stores):
        for store in both_stores:
            assert "not found" in campaign_summary(store, "ghost")
