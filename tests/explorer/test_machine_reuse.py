"""A level that is the same lock machine as an earlier one reuses its records.

``machine_key`` says which levels run one machine on a program set; a level
whose key an earlier level of the same ``explore()`` call already has is not
executed.  The oracle here is ``explore()`` of the reused level alone, which
executes it.
"""

from __future__ import annotations

import itertools

import pytest

from repro.analysis.matrix import TABLE_4_LEVELS
from repro.core.isolation import IsolationLevelName as L
from repro.engine.programs import (
    Commit,
    Fetch,
    OpenCursor,
    ReadItem,
    SelectPredicate,
    TransactionProgram,
    WriteItem,
)
from repro.explorer import ExploreOptions, ProgramSetSpec, explore
from repro.locking.policy import machine_key
from repro.explorer.options import DEFAULT_LEVELS
from repro.storage.database import Database
from repro.storage.predicates import whole_table
from repro.workloads import program_sets
from repro.workloads.program_sets import available_program_sets, build_program_set

#: Every level the coverage report or Table 4 runs, in Table 4's order.
LEVELS = tuple(dict.fromkeys(TABLE_4_LEVELS + DEFAULT_LEVELS))
SAMPLE = dict(mode="auto", max_schedules=60, seed=3, chunk_size=8)


def _merged(programs, levels=LEVELS + (L.DEGREE_0,)):
    """The pairs of levels whose machine keys are equal."""
    return {frozenset((a, b)) for a, b in itertools.combinations(levels, 2)
            if machine_key(programs, a) == machine_key(programs, b)}


def _cursor_set():
    database = Database()
    database.set_item("x", 10)
    return database, [
        TransactionProgram(1, [OpenCursor("c", ["x"]), Fetch("c", into="x"),
                               WriteItem("x", lambda ctx: ctx["x"] + 1),
                               Commit()]),
        TransactionProgram(2, [ReadItem("x"),
                               WriteItem("x", lambda ctx: ctx["x"] + 10),
                               Commit()]),
    ]


class TestKeyTable:
    @pytest.mark.parametrize("name", available_program_sets())
    def test_item_only_sets_merge_exactly_two_pairs(self, name):
        _, programs = build_program_set(ProgramSetSpec.make(name))
        # Table 2: RR and SERIALIZABLE differ in predicate-read duration,
        # RC and Cursor Stability in cursor-read duration; Degree 0 and
        # READ UNCOMMITTED differ in write duration, so they stay apart.
        assert _merged(programs) == {
            frozenset((L.READ_COMMITTED, L.CURSOR_STABILITY)),
            frozenset((L.REPEATABLE_READ, L.SERIALIZABLE)),
        }

    @pytest.mark.parametrize("extra", [
        SelectPredicate(whole_table("All", "t"), into="rows"),
        OpenCursor("c", ["x"]),
        Fetch("c"),
    ], ids=["predicate", "open-cursor", "fetch"])
    def test_sets_with_predicate_or_cursor_steps_merge_nothing(self, extra):
        programs = [TransactionProgram(1, [ReadItem("x"), extra, Commit()]),
                    TransactionProgram(2, [WriteItem("x", 1), Commit()])]
        assert _merged(programs) == set()

    def test_non_locking_levels_are_their_own_key(self):
        _, programs = build_program_set(ProgramSetSpec.make("write-skew"))
        for level in (L.SNAPSHOT_ISOLATION, L.ORACLE_READ_CONSISTENCY):
            assert machine_key(programs, level) is level


class TestReuseOracle:
    @pytest.mark.parametrize("name", available_program_sets())
    def test_reused_records_equal_an_execution_of_the_level_alone(self, name):
        spec = ProgramSetSpec.make(name)
        _, programs = build_program_set(spec)
        result = explore(spec, ExploreOptions(levels=LEVELS, **SAMPLE))
        first_of_key = {}
        for level in LEVELS:
            exploration = result.levels[level]
            source = first_of_key.setdefault(machine_key(programs, level), level)
            if source is level:
                # A key no earlier level has: never reused.
                assert exploration.reused_from is None
                continue
            assert exploration.reused_from is source
            assert exploration.records is result.levels[source].records
            alone = explore(spec, ExploreOptions(levels=(level,), **SAMPLE))
            assert alone.levels[level].reused_from is None
            assert alone.levels[level].cache_stats["batch_rows_fast"] > 0
            assert exploration.records == alone.levels[level].records
        assert {level for level in LEVELS
                if result.levels[level].reused_from is not None} == {
            L.CURSOR_STABILITY, L.SERIALIZABLE}

    def test_a_cursor_set_executes_every_level(self, monkeypatch):
        monkeypatch.setitem(program_sets._REGISTRY, "reuse-test-cursor",
                            lambda: _cursor_set())
        spec = ProgramSetSpec.make("reuse-test-cursor")
        result = explore(spec, ExploreOptions(levels=LEVELS, mode="exhaustive"))
        assert all(exploration.reused_from is None
                   for exploration in result.levels.values())
        committed = result.levels[L.READ_COMMITTED]
        stable = result.levels[L.CURSOR_STABILITY]
        # The cursor lock is what sets the two apart here (P4C).
        assert [r.phenomena for r in committed.records] != \
            [r.phenomena for r in stable.records]
