"""Stores that hold an earlier build's Table 4 campaigns stay usable.

Earlier builds could persist the explored Table 4 cell by cell: a campaign
whose config has ``"kind": "table4-explored"`` and one ``table4_cells`` row
per measured cell.  This build neither writes nor reads that table, so the
fixture here writes the config rows through the store and the cell rows
through SQL, with the payloads that build stored.  Such a file opens, lists
and inspects; resuming a Table 4 campaign, or rebuilding its coverage
report, exits 2 with the generic "not an exploration campaign" error; and an
exploration campaign in the same file resumes to the uninterrupted result.
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
from repro.persist import SqliteStore

from .test_memo_era_store import _cli
from .test_hostile_store import campaign_main
from .test_resume import InterruptingStore, Interrupted

RC = IsolationLevelName.READ_COMMITTED
SPEC = ProgramSetSpec.make("increments")
EXPLORE_KWARGS = dict(max_schedules=200, chunk_size=8)

#: An earlier build's Table 4 campaign configs: the ``reduction: "none"``
#: one it wrote last, and the sleep-set one the build before it wrote.
_TABLE4 = {"kind": "table4-explored", "levels": [RC.value],
           "scenarios": ["P0", "A5B"], "mode": "auto", "max_schedules": 2000,
           "seed": 0, "reduction": "none", "static_pruning": True}
TABLE4_CAMPAIGNS = {"t4": _TABLE4,
                    "t4-sleep-set": {**_TABLE4, "reduction": "sleep-set"}}

_TABLE4_CELLS = """
CREATE TABLE IF NOT EXISTS table4_cells (
    campaign TEXT NOT NULL, scope TEXT NOT NULL, code TEXT NOT NULL,
    payload TEXT NOT NULL, PRIMARY KEY (campaign, scope, code))
"""

#: The two cells of ``_TABLE4`` as that build's cell codec stored them.
CELLS = {
    "P0": '{"code":"P0","manifested":0,"possibility":"NOT_POSSIBLE",'
          '"pruned_variants":1,"schedules":0,"stalled":0,"static_reasons":'
          '[["interleaved-writes","P0 w1[x]...w2[x]...(c1 or a1): write X '
          'long held to T1\'s terminal; write X long must wait for it"]],'
          '"variant_frequencies":[["interleaved-writes",0.0]],"witness":null}',
    "A5B": '{"code":"A5B","manifested":608,"possibility":"POSSIBLE",'
           '"pruned_variants":0,"schedules":994,"stalled":0,'
           '"static_reasons":[],"variant_frequencies":[["plain-reads",'
           '0.6857142857142857],["cursors-on-both-items",0.6060606060606061]],'
           '"witness":["plain-reads",[1,1,2,2,1,1,2,2],"r1[x=50] r1[y=50] '
           'r2[x=50] r2[y=50] w1[y=-40] c1 w2[x=-40] c2"]}',
}


def _stored_cells(path):
    conn = sqlite3.connect(path)
    try:
        return sorted(conn.execute(
            "SELECT campaign, scope, code, payload FROM table4_cells"))
    finally:
        conn.close()


@pytest.fixture
def table4_era_store(tmp_path):
    """A file with both Table 4 campaigns and their cells, plus an
    exploration campaign interrupted after its first chunk."""
    path = str(tmp_path / "table4-era.sqlite")
    store = SqliteStore(path)
    try:
        for campaign, config in TABLE4_CAMPAIGNS.items():
            store.open_campaign(campaign, config)
        with pytest.raises(Interrupted):
            explore(SPEC, ExploreOptions(store=InterruptingStore(store, 1),
                                         campaign_id="demo", **EXPLORE_KWARGS))
    finally:
        store.close()
    conn = sqlite3.connect(path)
    conn.execute(_TABLE4_CELLS)
    conn.executemany("INSERT INTO table4_cells VALUES (?, ?, ?, ?)", [
        (campaign, RC.value, code, payload)
        for campaign in TABLE4_CAMPAIGNS for code, payload in CELLS.items()])
    conn.commit()
    conn.close()
    return path


def test_the_file_opens_and_lists_every_campaign(table4_era_store):
    store = SqliteStore(table4_era_store)
    try:
        configs = {info.campaign_id: info.config
                   for info in store.list_campaigns()}
    finally:
        store.close()
    assert {campaign: configs[campaign] for campaign in TABLE4_CAMPAIGNS} \
        == TABLE4_CAMPAIGNS
    assert set(configs) == {"demo", *TABLE4_CAMPAIGNS}
    code, out, err = _cli(campaign_main, ["list", "--store", table4_era_store])
    assert (code, err) == (0, "")
    for campaign in ("demo", *TABLE4_CAMPAIGNS):
        assert f"{campaign}: " in out


@pytest.mark.parametrize("campaign", TABLE4_CAMPAIGNS)
def test_plain_inspect_summarizes_a_table4_campaign(table4_era_store,
                                                    campaign):
    code, out, err = _cli(campaign_main, ["inspect", "--store",
                                          table4_era_store,
                                          "--campaign", campaign])
    assert (code, err) == (0, "")
    assert out.startswith(f"campaign {campaign}\n")
    assert '"kind":"table4-explored"' in out


@pytest.mark.parametrize("campaign", TABLE4_CAMPAIGNS)
@pytest.mark.parametrize("argv, action", [
    (["resume"], "resume"),
    (["inspect", "--report"], "rebuild the coverage report of"),
], ids=["resume", "report"])
def test_resume_and_report_refuse_a_table4_campaign(table4_era_store, campaign,
                                                    argv, action):
    assert _cli(campaign_main, [argv[0], "--store", table4_era_store,
                                "--campaign", campaign, *argv[1:]]) == (
        2, "", f"error: campaign {campaign!r} is not an exploration campaign "
               f"(kind 'table4-explored'); cannot {action} it\n")


def test_an_exploration_campaign_beside_them_resumes_unchanged(
        table4_era_store):
    code, _, err = _cli(campaign_main, ["resume", "--store", table4_era_store,
                                        "--campaign", "demo"])
    assert (code, err) == (0, "")
    expected = explore(SPEC, ExploreOptions(**EXPLORE_KWARGS))
    store = SqliteStore(table4_era_store)
    try:
        assert (coverage_report_from_store(store, "demo").render()
                == build_coverage_report(expected).render())
    finally:
        store.close()


def test_the_stored_cells_are_left_as_they_were(table4_era_store):
    before = _stored_cells(table4_era_store)
    assert len(before) == len(TABLE4_CAMPAIGNS) * len(CELLS)
    _cli(campaign_main, ["resume", "--store", table4_era_store,
                         "--campaign", "demo"])
    for campaign in TABLE4_CAMPAIGNS:
        _cli(campaign_main, ["resume", "--store", table4_era_store,
                             "--campaign", campaign])
    assert _stored_cells(table4_era_store) == before
