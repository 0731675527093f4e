"""Stores written by builds that kept a classification tier stay usable.

Earlier builds saved every classification a chunk computed into a global
``classifications`` table, keyed by history shorthand, and earlier still
sleep-set campaigns kept representative rows in ``rep_records``.  This build
neither creates, writes nor reads either table.  The fixture here builds
such a file: an exploration campaign interrupted after its first chunk,
then both tables created with the earlier definitions and filled through
SQL.  One stored classification is deliberately wrong, for a history the
resumed run realizes, so a build that read the tier would show it.  The file
opens and lists, the campaign resumes to the uninterrupted result, a new
campaign in it classifies afresh, ``inspect --report`` prints what a fresh
store of the same campaign prints, and both tables keep their rows.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.analysis.coverage import (
    build_coverage_report,
    coverage_report_from_store,
)
from repro.core.isolation import IsolationLevelName
from repro.explorer import ExploreOptions, ProgramSetSpec, explore
from repro.persist import SqliteStore, fingerprint_from_store
from repro.persist import records as rec

from .test_hostile_store import campaign_main
from .test_memo_era_store import _cli
from .test_resume import InterruptingStore, Interrupted
from .test_sleep_set_store import _REP_INSERT, REP_RECORDS_TABLE

RC = IsolationLevelName.READ_COMMITTED
SPEC = ProgramSetSpec.make("increments")
EXPLORE_KWARGS = dict(max_schedules=200, chunk_size=8)

#: The ``classifications`` table as the builds with the tier created it.
CLASSIFICATIONS_TABLE = """
CREATE TABLE IF NOT EXISTS classifications (
    shorthand    TEXT PRIMARY KEY,
    serializable INTEGER NOT NULL,
    phenomena    TEXT NOT NULL,
    committed    TEXT NOT NULL,
    aborted      TEXT NOT NULL
)
"""


def _classification_row(record, serializable, phenomena):
    """A tier row as those builds encoded it."""
    return (record.history, int(serializable), rec.encode_strs(phenomena),
            rec.encode_ints(record.committed), rec.encode_ints(record.aborted))


def _stored_rows(path):
    conn = sqlite3.connect(path)
    try:
        return (sorted(conn.execute("SELECT * FROM classifications")),
                sorted(conn.execute("SELECT * FROM rep_records")))
    finally:
        conn.close()


@pytest.fixture(scope="module")
def baseline():
    return explore(SPEC, ExploreOptions(**EXPLORE_KWARGS))


@pytest.fixture
def tier_era_store(tmp_path, baseline):
    """The interrupted campaign ``demo``, its first chunk's classifications
    in the tier, one wrong tier row for a later history, and one
    representative row."""
    path = str(tmp_path / "tier-era.sqlite")
    store = SqliteStore(path)
    try:
        with pytest.raises(Interrupted):
            explore(SPEC, ExploreOptions(store=InterruptingStore(store, 1),
                                         campaign_id="demo", **EXPLORE_KWARGS))
        (scope,) = store.scope_progress("demo")
        durable = store.load_chunk("demo", scope, 0)
    finally:
        store.close()
    durable_histories = {record.history for record in durable}
    later = next(record for exploration in baseline.levels.values()
                 for record in exploration.records
                 if record.history not in durable_histories)
    rows = {record.history: _classification_row(
        record, record.serializable, record.phenomena) for record in durable}
    rows[later.history] = _classification_row(
        later, not later.serializable, ("P0",))
    conn = sqlite3.connect(path)
    conn.execute(CLASSIFICATIONS_TABLE)
    conn.executemany("INSERT OR REPLACE INTO classifications "
                     "VALUES (?, ?, ?, ?, ?)",
                     list(rows.values()))
    conn.execute(REP_RECORDS_TABLE)
    conn.execute(_REP_INSERT,
                 ("demo", scope, 0, 0) + rec.record_to_row(durable[0]))
    conn.commit()
    conn.close()
    return path


def _tables(path):
    conn = sqlite3.connect(path)
    try:
        return {name for (name,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
    finally:
        conn.close()


def test_a_new_store_creates_neither_table(tmp_path):
    path = str(tmp_path / "new.sqlite")
    SqliteStore(path).close()
    assert not _tables(path) & {"classifications", "rep_records",
                                "table4_cells"}


def test_the_file_opens_and_lists(tier_era_store):
    assert {"classifications", "rep_records"} <= _tables(tier_era_store)
    store = SqliteStore(tier_era_store)
    try:
        assert [info.campaign_id for info in store.list_campaigns()] == ["demo"]
    finally:
        store.close()
    code, out, err = _cli(campaign_main, ["list", "--store", tier_era_store])
    assert (code, err) == (0, "")
    assert out.startswith("demo: ")


def _resume_through_explore(path):
    store = SqliteStore(path)
    try:
        explore(SPEC, ExploreOptions(store=store, campaign_id="demo",
                                     workers=2, **EXPLORE_KWARGS))
    finally:
        store.close()
    return 0, "", ""


@pytest.mark.parametrize("resume", [
    lambda path: _cli(campaign_main, ["resume", "--store", path,
                                      "--campaign", "demo"]),
    _resume_through_explore,
], ids=["campaign-resume", "explore-2-workers"])
def test_the_interrupted_campaign_resumes_to_the_uninterrupted_result(
        tier_era_store, baseline, resume):
    code, _, err = resume(tier_era_store)
    assert (code, err) == (0, "")
    store = SqliteStore(tier_era_store)
    try:
        assert fingerprint_from_store(store, "demo") == baseline.fingerprint()
        assert (coverage_report_from_store(store, "demo").render()
                == build_coverage_report(baseline).render())
    finally:
        store.close()


def test_a_new_campaign_in_the_file_classifies_afresh(tier_era_store,
                                                     baseline):
    """A new campaign on a store that holds a tier is the one case the tier
    served; it realizes the history whose stored row is wrong."""
    store = SqliteStore(tier_era_store)
    try:
        result = explore(SPEC, ExploreOptions(
            store=store, campaign_id="again",
            **{**EXPLORE_KWARGS, "chunk_size": 4}))
        assert result.fingerprint() == baseline.fingerprint()
        assert fingerprint_from_store(store, "again") == baseline.fingerprint()
    finally:
        store.close()


def test_inspect_report_matches_a_fresh_store(tier_era_store, tmp_path):
    _cli(campaign_main, ["resume", "--store", tier_era_store,
                         "--campaign", "demo"])
    fresh = str(tmp_path / "fresh.sqlite")
    assert _cli(campaign_main, ["run", "--store", fresh, "--program-set",
                                "increments", "--max-schedules", "200",
                                "--chunk-size", "8", "--campaign", "demo"])[0] == 0
    reports = []
    for path in (tier_era_store, fresh):
        code, out, err = _cli(campaign_main, ["inspect", "--store", path,
                                              "--campaign", "demo",
                                              "--report"])
        assert (code, err) == (0, "")
        reports.append(out.replace(path, "<store>"))
    assert reports[0] == reports[1]
    assert "campaign demo" in reports[0]


def test_both_tables_keep_their_rows(tier_era_store):
    before = _stored_rows(tier_era_store)
    assert [len(rows) for rows in before] == [5, 1]
    for argv in (["resume"], ["inspect", "--report"], ["inspect"]):
        code, _, err = _cli(campaign_main, [argv[0], "--store", tier_era_store,
                                            "--campaign", "demo", *argv[1:]])
        assert (code, err) == (0, "")
    assert _stored_rows(tier_era_store) == before
