"""Integration test: the paper's claims that no other module checks.

Table 2's lock rules as the paper lays them out, Remark 2 (each locking level
forbids what its phenomenon-based namesake forbids), Remark 6 (the locking
engines realize Table 3), Section 4.2's Snapshot Isolation vs locking
behaviour under contention, and four ablations of the design choices the
paper argues for.  Tables 1, 3 and 4, Figure 2, the ordering remarks and the
catalogued histories are checked in ``test_table4_explored.py``,
``test_hierarchy_reproduction.py``, ``tests/analysis/test_matrix.py``,
``tests/core/test_isolation.py`` and ``tests/core/test_catalog.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis.matrix import compute_table4_explored, default_history_corpus
from repro.core.dependency import is_serializable
from repro.core.isolation import (
    ANSI_BROAD_LEVELS,
    ANSI_STRICT_LEVELS,
    TABLE_3,
    IsolationLevelName,
    Possibility,
)
from repro.engine.scheduler import ScheduleRunner
from repro.locking.modes import LockDuration, LockMode
from repro.locking.policy import POLICIES, LockingPolicy, LockRule
from repro.testbed import engine_factory, make_engine
from repro.workloads.generators import contention_workload
from repro.workloads.scenarios import run_variant, scenario_by_code

L = IsolationLevelName
NOT_POSSIBLE = Possibility.NOT_POSSIBLE
POSSIBLE = Possibility.POSSIBLE

#: Table 2, cell for cell: (item read, predicate read, cursor read, write).
TABLE_2 = {
    L.DEGREE_0: ("none required", "none required", "none required", "X short"),
    L.READ_UNCOMMITTED: ("none required", "none required", "none required",
                         "X long"),
    L.READ_COMMITTED: ("S short", "S short", "S short", "X long"),
    L.CURSOR_STABILITY: ("S short", "S short", "S cursor", "X long"),
    L.REPEATABLE_READ: ("S long", "S short", "S long", "X long"),
    L.SERIALIZABLE: ("S long", "S long", "S long", "X long"),
}

#: The phenomena each phenomenon-based (Table 3) level forbids.
ANSI_FORBIDS = {
    L.READ_UNCOMMITTED: ("P0",),
    L.READ_COMMITTED: ("P0", "P1"),
    L.REPEATABLE_READ: ("P0", "P1", "P2"),
    L.SERIALIZABLE: ("P0", "P1", "P2", "P3"),
}


@pytest.fixture(scope="module")
def cells():
    """The measured Table 4 row of every Table 3 level's locking engine, and
    of the levels the ablations compare against."""
    return compute_table4_explored(
        (L.DEGREE_0, *TABLE_3, L.SNAPSHOT_ISOLATION,
         L.ORACLE_READ_CONSISTENCY)).possibilities()


def every_variant_manifests(code, factory):
    """Whether each variant of ``code``, replayed on its printed interleaving
    under an engine the levels do not name, shows its anomaly."""
    return all(run_variant(variant, factory, code).manifested
               for variant in scenario_by_code(code).variants)


def test_table2_lock_rules():
    measured = {
        level: tuple(policy.describe()[action] for action in
                     ("item read", "predicate read", "cursor read", "write"))
        for level, policy in POLICIES.items()
    }
    assert measured == TABLE_2


def test_remark2_locking_levels_forbid_what_their_ansi_namesakes_forbid(cells):
    for level, forbidden in ANSI_FORBIDS.items():
        for code in forbidden:
            assert cells[level][code] is NOT_POSSIBLE, (level, code)


def test_remark6_locking_engines_realize_table3(cells):
    measured = {level: {code: cells[level][code] for code in TABLE_3[level]}
                for level in TABLE_3}
    assert measured == TABLE_3


# -- Section 4.2: Snapshot Isolation vs locking under contention ---------------

def contention_totals(level, hot_items, read_only_fraction):
    """Blocking, abort and commit counts over five seeded 8-transaction
    contention workloads."""
    totals = {"blocked": 0, "aborted": 0, "committed": 0, "reader_aborts": 0}
    for seed in range(5):
        database, programs, interleaving = contention_workload(
            seed=seed, transactions=8, items=10, hot_items=hot_items,
            read_only_fraction=read_only_fraction)
        outcome = ScheduleRunner(make_engine(database, level), programs,
                                 interleaving).run()
        assert not outcome.stalled
        totals["blocked"] += outcome.blocked_events
        readers = {p.txn for p in programs if p.label.startswith("reader")}
        for txn in outcome.statuses:
            if outcome.committed(txn):
                totals["committed"] += 1
            elif outcome.aborted(txn):
                totals["aborted"] += 1
                totals["reader_aborts"] += txn in readers
    return totals


def test_snapshot_readers_never_block_and_never_abort():
    """Read-heavy contention: SI never blocks and never aborts a reader, while
    Locking SERIALIZABLE blocks."""
    si = contention_totals(L.SNAPSHOT_ISOLATION, 2, 0.6)
    serializable = contention_totals(L.SERIALIZABLE, 2, 0.6)
    assert si["blocked"] == 0 and si["reader_aborts"] == 0
    assert serializable["blocked"] > 0


def test_locking_blocks_where_snapshot_isolation_proceeds_under_write_contention():
    si = contention_totals(L.SNAPSHOT_ISOLATION, 2, 0.0)
    serializable = contention_totals(L.SERIALIZABLE, 2, 0.0)
    assert si["blocked"] == 0 and serializable["blocked"] > 0
    assert si["committed"] > 0 and serializable["committed"] > 0


def test_first_committer_wins_aborts_grow_with_contention():
    """Write-only workloads over fewer and fewer hot items."""
    rates = {}
    for hot_items in (8, 1):
        totals = contention_totals(L.SNAPSHOT_ISOLATION, hot_items, 0.0)
        rates[hot_items] = totals["aborted"] / (totals["aborted"]
                                                + totals["committed"])
    assert rates[1] > 0.0
    assert rates[1] >= rates[8]


# -- ablations -----------------------------------------------------------------

def test_broad_reading_admits_fewer_non_serializable_histories_than_strict():
    """Neither reading of ANOMALY SERIALIZABLE closes the gap (P0 and write
    skew remain, hence Table 3), but the broad one admits strictly fewer."""
    corpus = [history for history in default_history_corpus(seed=29, count=400)
              if not is_serializable(history)]
    level = L.ANOMALY_SERIALIZABLE
    strict = sum(ANSI_STRICT_LEVELS[level].permits(h) for h in corpus)
    broad = sum(ANSI_BROAD_LEVELS[level].permits(h) for h in corpus)
    assert strict > broad > 0


def test_serializable_without_predicate_locks_admits_phantoms(cells):
    item_only = LockingPolicy(
        level=L.SERIALIZABLE,
        item_read=LockRule(LockMode.SHARED, LockDuration.LONG),
        predicate_read=None,
        write=LockRule(LockMode.EXCLUSIVE, LockDuration.LONG),
        cursor_read=LockRule(LockMode.SHARED, LockDuration.LONG),
    )
    assert cells[L.SERIALIZABLE]["P3"] is NOT_POSSIBLE
    assert every_variant_manifests(
        "P3", engine_factory(L.SERIALIZABLE, policy=item_only))


def test_first_committer_wins_is_what_stops_lost_updates(cells):
    """SI forbids P4 and P4C; without first-committer-wins it loses updates;
    Oracle Read Consistency (first-writer-wins) forbids only P4C."""
    si = cells[L.SNAPSHOT_ISOLATION]
    assert (si["P4"], si["P4C"]) == (NOT_POSSIBLE, NOT_POSSIBLE)
    assert every_variant_manifests(
        "P4", engine_factory(L.SNAPSHOT_ISOLATION, first_committer_wins=False))
    oracle = cells[L.ORACLE_READ_CONSISTENCY]
    assert oracle["P4"] is not NOT_POSSIBLE and oracle["P4C"] is NOT_POSSIBLE


def test_short_write_locks_admit_dirty_writes(cells):
    """Degree 0's short write locks admit P0; Degree 1's long ones do not."""
    assert cells[L.DEGREE_0]["P0"] is POSSIBLE
    assert cells[L.READ_UNCOMMITTED]["P0"] is NOT_POSSIBLE
