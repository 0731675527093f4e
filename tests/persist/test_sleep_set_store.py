"""Stores holding sleep-set campaigns open, report unchanged, and fail closed.

Earlier builds could run a campaign with ``reduction: "sleep-set"``: one
executed representative per commutation-equivalence class, whose records
sat in ``rep_records`` beside the per-schedule ``records``.  This build
writes neither that config nor those rows, and a store it creates has no
``rep_records`` table, so the fixtures here create the table as such a file
has it and write both directly through the store.  Such a campaign still lists, inspects and
reports exactly as before (nothing reads ``rep_records``), and resuming it
exits 2 with the campaign named instead of silently re-running it.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.core.isolation import IsolationLevelName
from repro.explorer import ExploreOptions, ProgramSetSpec, explore
from repro.persist import SqliteStore
from repro.persist import records as rec
from repro.persist.session import campaign_config

from .test_hostile_store import campaign_main, distrib_main

RC = IsolationLevelName.READ_COMMITTED
SPEC = ProgramSetSpec.make("increments")
KNOBS = dict(mode="auto", max_schedules=200, seed=0, chunk_size=8)
#: What ``campaign run --reduction sleep-set`` stored for this campaign.
SLEEP_SET = {**campaign_config(SPEC, **KNOBS), "reduction": "sleep-set"}

#: The ``rep_records`` table as the builds that ran sleep-set campaigns
#: created it.
REP_RECORDS_TABLE = """
CREATE TABLE IF NOT EXISTS rep_records (
    campaign       TEXT NOT NULL,
    scope          TEXT NOT NULL,
    chunk_index    INTEGER NOT NULL,
    position       INTEGER NOT NULL,
    interleaving   TEXT NOT NULL,
    history        TEXT NOT NULL,
    serializable   INTEGER NOT NULL,
    phenomena      TEXT NOT NULL,
    committed      TEXT NOT NULL,
    aborted        TEXT NOT NULL,
    blocked_events INTEGER NOT NULL,
    deadlocks      INTEGER NOT NULL,
    stalled        INTEGER NOT NULL,
    PRIMARY KEY (campaign, scope, chunk_index, position)
)
"""

_REP_INSERT = """
INSERT INTO rep_records (campaign, scope, chunk_index, position,
                         interleaving, history, serializable, phenomena,
                         committed, aborted, blocked_events, deadlocks, stalled)
VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
"""

#: ``campaign inspect --report`` of :func:`sleep_set_store`, as the build
#: that ran sleep-set campaigns printed it (``{path}`` is the store file).
PARENT_REPORT = """\
campaign reduced
  store: SqliteStore ({path}, schema v4)
  config: {{"chunk_size":8,"max_schedules":200,"mode":"auto","reduction":"sleep-set","seed":0,"spec_name":"increments","spec_params":[]}}
  [READ COMMITTED] complete, 20 records
    P2: 12 witnesses over 3 chunks; first at schedule #4: 1,2,1,1,2,2
campaign reduced
Isolation level | schedules | non-ser % | P0 | P1 | P2    | P3 | A1 | A2 | A3 | P4    | P4C | A5A | A5B
----------------+-----------+-----------+----+----+-------+----+----+----+----+-------+-----+-----+----
READ COMMITTED  | 20        | 60.0      | -  | -  | 60.0% | -  | -  | -  | -  | 60.0% | -   | -   | -  \n\
"""


def write_sleep_set_chunks(store, campaign, config, scope, records,
                           chunk_size=None, complete=False):
    """Commit ``records`` as a sleep-set campaign did: each chunk's records,
    plus its representative rows (here the chunk's first record)."""
    store._write(lambda cur: cur.execute(REP_RECORDS_TABLE))
    store.open_campaign(campaign, config)
    size = chunk_size or len(records)
    chunks = [records[start:start + size]
              for start in range(0, len(records), size)]
    for index, chunk in enumerate(chunks):
        store.commit_chunk(campaign, scope, index, chunk)
        row = (campaign, scope, index, 0) + rec.record_to_row(chunk[0])
        store._write(lambda cur: cur.execute(_REP_INSERT, row))
    if complete:
        store.mark_scope_complete(campaign, scope, len(chunks),
                                  {"store_chunks_committed": len(chunks)})


@pytest.fixture
def sleep_set_store(tmp_path):
    path = str(tmp_path / "sleep-set.sqlite")
    store = SqliteStore(path)
    records = explore(SPEC, ExploreOptions(
        levels=(RC,), max_schedules=KNOBS["max_schedules"],
        chunk_size=KNOBS["chunk_size"])).levels[RC].records
    write_sleep_set_chunks(store, "reduced", SLEEP_SET, RC.value, records,
                           chunk_size=KNOBS["chunk_size"], complete=True)
    store.close()
    return path


def _cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _rep_rows(path):
    store = SqliteStore(path)
    try:
        return store._conn.execute(
            "SELECT COUNT(*) FROM rep_records").fetchone()[0]
    finally:
        store.close()


def test_inspect_report_is_unchanged(sleep_set_store):
    code, out, err = _cli(campaign_main, [
        "inspect", "--store", sleep_set_store, "--campaign", "reduced",
        "--report"])
    assert (code, err) == (0, "")
    assert out == PARENT_REPORT.format(path=sleep_set_store)
    code, out, _ = _cli(campaign_main, ["list", "--store", sleep_set_store])
    assert code == 0 and out == "reduced: 1/1 scopes complete, 20 records\n"


#: The campaign's own flags, as ``campaign run`` and both ``distrib`` verbs
#: spell them.
CAMPAIGN_FLAGS = ["--program-set", "increments", "--max-schedules", "200",
                  "--chunk-size", "8", "--levels", "READ COMMITTED",
                  "--campaign", "reduced"]


@pytest.mark.parametrize("main,argv", [
    (campaign_main, ["run", *CAMPAIGN_FLAGS]),
    (campaign_main, ["resume", "--campaign", "reduced"]),
    (distrib_main, ["run", *CAMPAIGN_FLAGS, "--workers", "1"]),
    (distrib_main, ["verify", *CAMPAIGN_FLAGS, "--workers", "1"]),
], ids=["run", "resume", "distrib-run", "distrib-verify"])
def test_resuming_a_sleep_set_campaign_fails_closed(sleep_set_store, main,
                                                    argv):
    code, out, err = _cli(main, [argv[0], "--store", sleep_set_store,
                                 *argv[1:]])
    assert code == 2 and out == ""
    assert err.startswith("error: campaign 'reduced' exists with a different "
                          "config")
    store = SqliteStore(sleep_set_store)
    try:
        assert store.cursor("reduced", RC.value) == 3
        assert sum(p.records for p in store.scope_progress("reduced").values()) == 20
    finally:
        store.close()
    assert _rep_rows(sleep_set_store) == 3


@pytest.mark.parametrize("main,argv", [
    (campaign_main, ["run", "--program-set", "increments"]),
    (campaign_main, ["resume", "--campaign", "c"]),
    (distrib_main, ["run", "--program-set", "increments"]),
    (distrib_main, ["verify", "--program-set", "increments"]),
], ids=["run", "resume", "distrib-run", "distrib-verify"])
def test_the_reduction_flag_is_gone(tmp_path, capsys, main, argv):
    """No verb that takes a campaign's flags accepts ``--reduction``: the
    parser names it as the one argument it does not know."""
    store = tmp_path / "never.sqlite"
    with pytest.raises(SystemExit) as exit_info:
        main([argv[0], "--store", str(store), *argv[1:],
              "--reduction", "sleep-set"])
    assert capsys.readouterr().err.endswith(
        "error: unrecognized arguments: --reduction sleep-set\n")
    assert exit_info.value.code == 2
    assert not store.exists()


def test_campaign_config_accepts_only_none():
    assert campaign_config(SPEC, reduction="none", **KNOBS) == \
        campaign_config(SPEC, **KNOBS)
    assert campaign_config(SPEC, **KNOBS)["reduction"] == "none"


@pytest.mark.parametrize("reduction", ["sleep-set", "None", "NONE", "", None])
def test_campaign_config_rejects_every_other_reduction(reduction):
    with pytest.raises(ValueError, match="reduction must be 'none', got "
                                         f"{reduction!r}"):
        campaign_config(SPEC, reduction=reduction, **KNOBS)
