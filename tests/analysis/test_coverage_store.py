"""The stored coverage report from SQL aggregates, against decoded records.

``coverage_report_from_store`` reads one ``GROUP BY phenomena`` per level and
one row per witness.  The oracle here is the builder it replaced: decode every
stored record and aggregate it with :func:`build_coverage_report`.  The two
renders must be byte-equal on every registered program set, sampled and
exhaustive, over the default Table 4 rows and over every engine-backed level
(whose extra rows the report orders after the defaults), on complete and
partially committed campaigns; and a cell of the wrong type must fail closed.
"""

from __future__ import annotations

import re
import sqlite3
from types import SimpleNamespace

import pytest

from repro.analysis.coverage import build_coverage_report, coverage_report_from_store
from repro.cli import main
from repro.core.isolation import IsolationLevelName
from repro.explorer import ExploreOptions, ProgramSetSpec, explore
from repro.explorer.explorer import DEFAULT_LEVELS
from repro.explorer.schedules import schedule_space
from repro.persist import SqliteStore, StoreError
from repro.testbed import ALL_ENGINE_LEVELS
from repro.workloads.program_sets import available_program_sets, build_program_set

from ..persist.test_resume import Interrupted, InterruptingStore


def decoded_report(store, campaign_id: str):
    """The oracle: every stored record decoded, then aggregated in python."""
    config = dict(store.get_campaign(campaign_id).config)
    spec = ProgramSetSpec.make(config["spec_name"], **dict(config["spec_params"]))
    _, programs = build_program_set(spec)
    space = schedule_space(programs, mode=config["mode"],
                           max_schedules=config["max_schedules"], seed=config["seed"])
    progress = store.scope_progress(campaign_id)
    ordered = [*DEFAULT_LEVELS, *(level for level in IsolationLevelName
                                  if level not in DEFAULT_LEVELS)]
    levels = {level: SimpleNamespace(records=tuple(store.iter_records(campaign_id,
                                                                      level.value)))
              for level in ordered if level.value in progress}
    return build_coverage_report(SimpleNamespace(spec=spec, space=space, levels=levels))


def _cases():
    for name in available_program_sets():
        _, programs = build_program_set(ProgramSetSpec.make(name))
        modes = ["sample"]
        if schedule_space(programs, max_schedules=300).mode == "exhaustive":
            modes.append("exhaustive")
        for mode in modes:
            for levels, tag in ((DEFAULT_LEVELS, ""),
                                (ALL_ENGINE_LEVELS, "all-levels-")):
                for complete in (True, False):
                    yield pytest.param(
                        name, mode, levels, complete,
                        id=f"{name}-{mode}-{tag}"
                           f"{'complete' if complete else 'partial'}")


@pytest.mark.parametrize("name,mode,levels,complete", list(_cases()))
def test_aggregate_render_equals_decoded_render(name, mode, levels, complete):
    store = SqliteStore(":memory:")
    options = ExploreOptions(mode=mode, max_schedules=300 if mode == "exhaustive" else 40,
                             seed=5, chunk_size=8, levels=levels,
                             store=store if complete else InterruptingStore(store, 7),
                             campaign_id="c1")
    if complete:
        explore(ProgramSetSpec.make(name), options)
    else:
        with pytest.raises(Interrupted):
            explore(ProgramSetSpec.make(name), options)
    report, expected = coverage_report_from_store(store, "c1"), decoded_report(store, "c1")
    assert report.render() == expected.render()
    assert report == expected
    store.close()


# -- hostile cells --------------------------------------------------------------------


@pytest.fixture
def campaign_file(tmp_path):
    path = str(tmp_path / "store.sqlite")
    store = SqliteStore(path)
    explore(ProgramSetSpec.make("write-skew"),
            ExploreOptions(chunk_size=8, store=store, campaign_id="c1"))
    store.close()
    return path


def _sql(path: str, statement: str, *params):
    conn = sqlite3.connect(path)
    rows = conn.execute(statement, params).fetchall()
    conn.commit()
    conn.close()
    return rows


def _fails_closed(path: str, capsys) -> None:
    assert main(["campaign", "inspect", "--store", path, "--campaign", "c1",
                 "--report"]) == 2
    err = capsys.readouterr().err
    assert re.match(r"error: store .* campaign 'c1', scope '[A-Z ]+'", err), err
    store = SqliteStore(path)
    with pytest.raises(StoreError, match=r"campaign 'c1', scope '[A-Z ]+'"):
        coverage_report_from_store(store, "c1")
    store.close()


@pytest.mark.parametrize("column,value", [("serializable", "yes"), ("stalled", "no"),
                                          ("serializable", 2), ("stalled", 1.5)])
def test_a_flag_of_the_wrong_type_fails_closed(campaign_file, capsys, column, value):
    _sql(campaign_file, f"UPDATE records SET {column} = ? WHERE rowid = 3", value)
    _fails_closed(campaign_file, capsys)


def test_junk_interleaving_in_a_witness_row_fails_closed(campaign_file, capsys):
    # The first row with any phenomenon is its scope's witness for each code
    # it lists: every earlier row of the scope lists none.
    [(rowid,)] = _sql(campaign_file, "SELECT MIN(rowid) FROM records "
                                     "WHERE phenomena != '[]'")
    _sql(campaign_file, "UPDATE records SET interleaving = '1,x,2' WHERE rowid = ?",
         rowid)
    _fails_closed(campaign_file, capsys)
