"""Stores written through the retired schedule-outcome memo fail closed.

Schema v3 builds ran every small ``reduction: "none"`` campaign through the
outcome memo, which stored another schedule's history in most records, and
the campaign config did not say so.  Opening such a file migrates it to v4
and tags those campaigns, so resuming one raises ``CampaignConfigMismatch``
(exit 2 on the CLI) instead of appending records that each carry their own
schedule's history to records that do not.  The file stays readable:
``list``, ``inspect``, ``serve --store`` and a new ``distrib verify``
campaign work on it.
"""

from __future__ import annotations

import io
import json
import sqlite3
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.core.isolation import IsolationLevelName
from repro.explorer import ExploreOptions, ProgramSetSpec, explore
from repro.persist import CampaignConfigMismatch, SqliteStore, StoreError
from repro.persist.records import default_campaign_id
from repro.persist.session import campaign_config
from repro.persist.sqlite_store import SCHEMA_VERSION

from .test_hostile_store import _serve, campaign_main, distrib_main
from .test_sleep_set_store import write_sleep_set_chunks

SPEC = ProgramSetSpec.make("bank-transfer")
RC = IsolationLevelName.READ_COMMITTED
#: What ``campaign run --store S --program-set bank-transfer`` writes.
CONFIG = campaign_config(SPEC, mode="auto", max_schedules=1000, seed=0,
                         chunk_size=64)
DEFAULT_ID = default_campaign_id(CONFIG)
REDUCED = {**CONFIG, "reduction": "sleep-set"}

#: What an earlier build's ``compute_table4_explored(store=...)`` stored: the
#: campaign's config row and its per-cell table, one cell of it here.
TABLE4 = {"kind": "table4-explored", "levels": [RC.value], "scenarios": ["P0"],
          "mode": "auto", "max_schedules": 2000, "seed": 0,
          "reduction": "none", "static_pruning": True}
_TABLE4_CELLS = """
CREATE TABLE IF NOT EXISTS table4_cells (
    campaign TEXT NOT NULL, scope TEXT NOT NULL, code TEXT NOT NULL,
    payload TEXT NOT NULL, PRIMARY KEY (campaign, scope, code))
"""

#: The v3 table the memo's stored tier lived in.
_V3_OUTCOMES = """
CREATE TABLE IF NOT EXISTS outcomes (
    workload TEXT NOT NULL, scope TEXT NOT NULL, key TEXT NOT NULL,
    history TEXT NOT NULL, serializable INTEGER NOT NULL,
    phenomena TEXT NOT NULL, committed TEXT NOT NULL, aborted TEXT NOT NULL,
    blocked_events INTEGER NOT NULL, deadlocks INTEGER NOT NULL,
    stalled INTEGER NOT NULL, PRIMARY KEY (workload, scope, key))
"""


def _memo_era_records():
    """The first chunk of this campaign at READ COMMITTED.  The memo's records
    carried another schedule's history in most rows; no test here reads a
    history, only that the chunk is there and is never appended to."""
    result = explore(SPEC, ExploreOptions(levels=(RC,)))
    return result.levels[RC].records[:64]


@pytest.fixture
def v3_store(tmp_path):
    """A schema-v3 file: one half-run memo-era campaign under the default id,
    plus a sleep-set campaign (its config row and a chunk with its
    representative rows, written through the store as the build that ran
    the plan wrote them) and a finished ``reduction="none"`` Table 4
    campaign with its stored cell (which never ran through the memo)."""
    path = str(tmp_path / "v3.sqlite")
    store = SqliteStore(path)
    store.open_campaign(DEFAULT_ID, CONFIG)
    store.commit_chunk(DEFAULT_ID, RC.value, 0, _memo_era_records())
    write_sleep_set_chunks(store, "reduced", REDUCED, RC.value,
                           _memo_era_records())
    store.open_campaign("table4", TABLE4)
    store.close()
    conn = sqlite3.connect(path)
    conn.execute(_TABLE4_CELLS)
    conn.execute("INSERT INTO table4_cells VALUES (?, ?, ?, ?)",
                 ("table4", RC.value, "P0", '{"code":"P0"}'))
    conn.execute(_V3_OUTCOMES)
    conn.execute("UPDATE meta SET value = '3' WHERE key = 'schema_version'")
    conn.commit()
    conn.close()
    return path


def _stored_configs(path):
    conn = sqlite3.connect(path)
    rows = dict(conn.execute("SELECT campaign, config FROM campaigns"))
    [(version,)] = conn.execute(
        "SELECT value FROM meta WHERE key = 'schema_version'").fetchall()
    conn.close()
    return {campaign: json.loads(config) for campaign, config in rows.items()}, version


def _cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_opening_a_v3_file_tags_only_memo_era_campaigns(v3_store):
    before, version = _stored_configs(v3_store)
    assert version == "3"
    SqliteStore(v3_store).close()
    after, version = _stored_configs(v3_store)
    assert version == str(SCHEMA_VERSION) == "4"
    assert after[DEFAULT_ID] == {**before[DEFAULT_ID], "outcome_memo": "auto"}
    assert after["reduced"] == before["reduced"] == REDUCED
    assert after["table4"] == before["table4"] == TABLE4
    conn = sqlite3.connect(v3_store)
    assert conn.execute("SELECT COUNT(*) FROM table4_cells").fetchone() == (1,)
    conn.close()
    SqliteStore(v3_store).close()                   # a v4 file is left alone
    assert _stored_configs(v3_store) == (after, version)


def test_resuming_a_memo_era_campaign_fails_closed(v3_store):
    store = SqliteStore(v3_store)
    try:
        with pytest.raises(CampaignConfigMismatch):
            explore(SPEC, ExploreOptions(store=store, campaign_id=DEFAULT_ID))
        # Nothing was appended to the memo-era prefix.
        assert store.cursor(DEFAULT_ID, RC.value) == 1
    finally:
        store.close()
    code, _, err = _cli(campaign_main, ["resume", "--store", v3_store,
                                        "--campaign", DEFAULT_ID])
    assert code == 2
    assert err.startswith(f"error: campaign {DEFAULT_ID!r} exists with a "
                          f"different config")
    # A plain ``run`` derives the same default id and hits the same mismatch.
    code, _, err = _cli(campaign_main, ["run", "--store", v3_store,
                                        "--program-set", "bank-transfer"])
    assert code == 2 and err.startswith("error: campaign")


def test_the_migrated_file_stays_readable(v3_store):
    code, out, _ = _cli(campaign_main, ["list", "--store", v3_store])
    assert code == 0 and f"{DEFAULT_ID}: 0/1 scopes complete, 64 records" in out
    code, out, _ = _cli(campaign_main, ["inspect", "--store", v3_store,
                                        "--campaign", DEFAULT_ID])
    assert code == 0 and '"outcome_memo":"auto"' in out
    assert _serve(v3_store) == 0
    code, out, _ = _cli(distrib_main, [
        "verify", "--store", v3_store, "--program-set", "increments",
        "--max-schedules", "20", "--chunk-size", "8", "--workers", "1",
        "--campaign", "fresh"])
    assert code == 0 and "byte-identical to serial" in out
    # The Table 4 campaign names no program set: resuming or reporting it
    # exits 2 like any other campaign that is not an exploration.
    for argv, action in (
            (["resume"], "resume"),
            (["inspect", "--report"], "rebuild the coverage report of")):
        assert _cli(campaign_main, [argv[0], "--store", v3_store,
                                    "--campaign", "table4", *argv[1:]]) == (
            2, "", "error: campaign 'table4' is not an exploration campaign "
                   f"(kind 'table4-explored'); cannot {action} it\n")
    store = SqliteStore(v3_store)
    try:
        # The sleep-set campaign, also untagged, fails closed on its own
        # config.
        with pytest.raises(CampaignConfigMismatch):
            explore(SPEC, ExploreOptions(levels=(RC,), store=store,
                                         campaign_id="reduced"))
        assert store.cursor("reduced", RC.value) == 1
    finally:
        store.close()


def _sql(path, statement, *params):
    conn = sqlite3.connect(path)
    conn.execute(statement, params)
    conn.commit()
    conn.close()


def test_an_undecodable_config_fails_the_migration_closed(v3_store):
    """The migration reads every config; one it cannot decode refuses the
    file, and the whole migration rolls back — version stamp included."""
    _sql(v3_store, "UPDATE campaigns SET config = ? WHERE campaign = ?",
         '{"reduction": "sleep', "reduced")
    with pytest.raises(StoreError, match="not a campaign store"):
        SqliteStore(v3_store)
    conn = sqlite3.connect(v3_store)
    try:
        [(version,)] = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'").fetchall()
        [(config,)] = conn.execute("SELECT config FROM campaigns WHERE "
                                   "campaign = ?", (DEFAULT_ID,)).fetchall()
    finally:
        conn.close()
    assert version == "3"
    assert "outcome_memo" not in json.loads(config)
    code, _, err = _cli(campaign_main, ["list", "--store", v3_store])
    assert code == 2 and err.startswith("error: store")


@pytest.mark.parametrize("version", ["1", "2"])
def test_older_files_are_tagged_on_the_way_to_v4(v3_store, version):
    _sql(v3_store, "UPDATE meta SET value = ? WHERE key = 'schema_version'",
         version)
    SqliteStore(v3_store).close()
    after, stamped = _stored_configs(v3_store)
    assert stamped == "4"
    assert after[DEFAULT_ID]["outcome_memo"] == "auto"
    assert "outcome_memo" not in after["reduced"]
