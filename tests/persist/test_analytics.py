"""The store's SQL analytics against literal expected rows.

Window functions and ``json_each`` over a small hand-built campaign: the
anomaly-frequency series, the earliest-witness lookup, and the
``RANK()``-ed conflict-edge summary, each checked row by row on
``SqliteStore(":memory:")`` and on a store file.
"""

from __future__ import annotations

import pytest

from repro.explorer import ExploreOptions, ProgramSetSpec, explore
from repro.explorer.worker import ScheduleRecord
from repro.persist import (
    AnomalyFrequencyRow,
    ConflictEdgeRow,
    StoredWitness,
    StoreError,
)
from repro.persist.analytics import (
    campaign_summary,
    campaign_summary_data,
    persist_result,
)

CONFIG = {"spec_name": "increments", "spec_params": [], "mode": "auto",
          "max_schedules": 100, "seed": 0, "reduction": "none",
          "chunk_size": 4}


def record(index: int, codes=()) -> ScheduleRecord:
    return ScheduleRecord(
        interleaving=(1, 2, index), history=f"h{index}",
        serializable=not codes, phenomena=tuple(codes), committed=(1, 2),
        aborted=(), blocked_events=0, deadlocks=0, stalled=False)


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


class TestQueries:
    def test_anomaly_frequency_rows(self, store):
        fill(store)
        assert store.anomaly_frequency("c1", "scope", "P2") == (
            AnomalyFrequencyRow(0, 3, 1, 1),
            AnomalyFrequencyRow(1, 2, 1, 2),
            AnomalyFrequencyRow(2, 1, 0, 2),
        )

    def test_witness_for_rows(self, store):
        fill(store)
        assert store.witness_for("c1", "scope", "P1") == \
            StoredWitness(1, (1, 2, 1), "h1")
        assert store.witness_for("c1", "scope", "P2") == \
            StoredWitness(2, (1, 2, 2), "h2")

    def test_chunk_count(self, store):
        fill(store)
        assert store.chunk_count("c1", "scope") == 3
        assert store.chunk_count("c1", "other") == 0

    def test_conflict_edge_rows_with_tied_ranks(self, store):
        fill(store)
        assert store.conflict_edge_summary("c1") == (
            ConflictEdgeRow("scope", "rw", 2, 1),   # tied with ww: shared rank
            ConflictEdgeRow("scope", "ww", 2, 1),
            ConflictEdgeRow("scope", "wr", 1, 3),   # RANK skips 2
        )


class TestFrequencySemantics:
    def test_cumulative_is_a_running_total_over_chunks(self, store):
        fill(store)
        series = store.anomaly_frequency("c1", "scope", "P1")
        assert [(row.chunk_index, row.schedules, row.witnessed, row.cumulative)
                for row in series] == [(0, 3, 2, 2), (1, 2, 0, 2), (2, 1, 1, 3)]

    def test_witness_is_the_earliest_schedule(self, store):
        fill(store)
        witness = store.witness_for("c1", "scope", "P2")
        assert witness.schedule_index == 2
        assert witness.interleaving == (1, 2, 2)
        assert witness.history == "h2"

    def test_unknown_code_yields_empty_series_and_no_witness(self, store):
        fill(store)
        series = store.anomaly_frequency("c1", "scope", "P9")
        assert all(row.witnessed == 0 for row in series)
        assert store.witness_for("c1", "scope", "P9") is None


class TestHostileRows:
    """A stored phenomenon list that does not decode fails the query; it is
    never counted as witnessing nothing."""

    @pytest.mark.parametrize("text", ['["P1"', '["ZZ"]', '["P1","ZZ"]'])
    def test_bad_list_fails_closed_naming_campaign_and_scope(self, store, text):
        fill(store)
        store._conn.execute("UPDATE records SET phenomena = ? "
                            "WHERE schedule_index = 1", (text,))
        for query in (store.anomaly_frequency, store.witness_for):
            with pytest.raises(StoreError, match="campaign 'c1', scope 'scope'"):
                query("c1", "scope", "P2")
        with pytest.raises(StoreError, match="campaign 'c1', scope 'scope'"):
            list(store.iter_records("c1", "scope"))


class TestEndToEndAnalytics:
    """The full path: explore → persist_result → query."""

    def test_campaign_summary(self, store):
        spec = ProgramSetSpec.make("increments")
        result = explore(spec, ExploreOptions(
            max_schedules=120, chunk_size=8, store=store, campaign_id="c1"))
        persist_result(store, "c1", result)
        lines = campaign_summary(store, "c1").splitlines()
        assert lines[1] == f"  store: SqliteStore ({store.path}, schema v4)"
        del lines[1:3]                                  # store path and config
        assert lines == [
            "campaign c1",
            "  [READ COMMITTED] complete, 20 records",
            "    P2: 12 witnesses over 3 chunks; first at schedule #4: "
            "1,2,1,1,2,2",
            "  [READ UNCOMMITTED] complete, 20 records",
            "    P1: 6 witnesses over 3 chunks; first at schedule #1: "
            "1,1,2,1,2,2",
            "    P2: 12 witnesses over 3 chunks; first at schedule #4: "
            "1,2,1,1,2,2",
            "  [REPEATABLE READ] complete, 20 records",
            "  [SERIALIZABLE] complete, 20 records",
            "  [Snapshot Isolation] complete, 20 records",
            "    P2: 18 witnesses over 3 chunks; first at schedule #1: "
            "1,1,2,1,2,2",
            "  witness conflict edges (count-ranked per scope):",
            "    [READ COMMITTED] rw: 4 (rank 1)",
            "    [READ COMMITTED] ww: 2 (rank 2)",
            "    [READ UNCOMMITTED] rw: 5 (rank 1)",
            "    [READ UNCOMMITTED] ww: 3 (rank 2)",
            "    [READ UNCOMMITTED] wr: 1 (rank 3)",
        ]

    @pytest.mark.parametrize("spec,knobs", [
        (ProgramSetSpec.make("contention"),
         dict(mode="sample", max_schedules=300, seed=7, chunk_size=32)),
        (ProgramSetSpec.make("write-skew"),
         dict(mode="exhaustive", max_schedules=1000, chunk_size=32)),
    ], ids=["sampled", "exhaustive"])
    def test_summary_agrees_with_the_per_code_queries(self, store, spec, knobs):
        """The summary reads one ``GROUP BY`` per scope; the per-chunk series
        and the earliest-witness query are its oracle."""
        explore(spec, ExploreOptions(store=store, campaign_id="c1", **knobs))
        data = campaign_summary_data(store, "c1")
        assert any(scope["anomalies"] for scope in data["scopes"])
        for scope in data["scopes"]:
            expected = []
            for code in ("P1", "P2", "P3", "A5A", "A5B"):
                series = store.anomaly_frequency("c1", scope["scope"], code)
                witness = store.witness_for("c1", scope["scope"], code)
                if series[-1].cumulative:
                    expected.append({
                        "code": code, "witnesses": series[-1].cumulative,
                        "chunks": len(series),
                        "first_schedule": witness.schedule_index,
                        "witness": ",".join(map(str, witness.interleaving))})
                else:
                    assert witness is None
            assert scope["anomalies"] == expected

    def test_summary_of_missing_campaign(self, store):
        assert "not found" in campaign_summary(store, "ghost")
