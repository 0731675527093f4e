"""The classification memo: one table per run and process, keyed by shorthand.

A history's classification is defined on the history alone, so the memo may
answer across chunks and levels — but never change an answer, never outgrow its cap, never cross workloads, and never depend on
how many workers split the stream.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import History
from repro.core.isolation import IsolationLevelName
from repro.core.operations import Operation, OperationKind
from repro.engine.programs import Commit, ReadItem, TransactionProgram, WriteItem
from repro.explorer import ExploreOptions, ProgramSetSpec, explore, memo, worker
from repro.explorer.memo import BatchClassifier
from repro.explorer.schedules import schedule_space
from repro.explorer.worker import ChunkResult, ChunkTask, execute_chunk
from repro.persist.session import LevelPersistence
from repro.storage.database import Database
from repro.workloads.program_sets import build_program_set

from ..property.strategies import histories

COMMON_SETTINGS = settings(max_examples=80, deadline=None)

CONTENTION = ProgramSetSpec.make("contention", transactions=3, items=3,
                                 hot_items=2, operations_per_transaction=2)
#: 252 schedules: an exhaustive space where many schedules share a history.
BANK = ProgramSetSpec.make("bank-transfer")
SAMPLE = dict(mode="sample", max_schedules=96, seed=5)


@st.composite
def mv_histories(draw) -> History:
    """A random history whose reads carry version subscripts (at least one)."""
    ops = list(draw(histories()))
    reads = [index for index, op in enumerate(ops)
             if op.kind is OperationKind.READ]
    if not reads:
        ops.insert(0, Operation(OperationKind.READ, ops[0].txn, item="x"))
        reads = [0]
    forced = draw(st.sampled_from(reads))
    for index in reads:
        version = draw(st.sampled_from((None, 0, 1, 2)))
        if index == forced and version is None:
            version = 0
        if version is not None:
            op = ops[index]
            ops[index] = Operation(op.kind, op.txn, item=op.item, version=version)
    return History(ops, validate=False)


class TestWarmMemoEqualsFresh:
    @COMMON_SETTINGS
    @given(st.lists(histories(), min_size=1, max_size=8))
    def test_single_version(self, batch):
        warm = BatchClassifier()
        for history in batch + batch:
            rebuilt = History(history.operations, validate=False)
            assert warm.classify(rebuilt) == BatchClassifier().classify(history)
        assert warm.hits >= len(batch)
        assert warm.hits + warm.misses == 2 * len(batch)

    @COMMON_SETTINGS
    @given(st.lists(mv_histories(), min_size=1, max_size=8),
           st.sampled_from((None, ("x",), ("x", "y", "z"))))
    def test_multiversion(self, batch, initial_items):
        warm = BatchClassifier(initial_items=initial_items)
        for history in batch + batch:
            assert history.is_multiversion()
            fresh = BatchClassifier(initial_items=initial_items)
            assert warm.classify(history) == fresh.classify(history)
        assert warm.hits + warm.misses == 2 * len(batch)


class TestCap:
    def test_table_stops_at_the_cap_and_results_stay_equal(self, monkeypatch):
        monkeypatch.setattr(memo, "CLASSIFICATION_MEMO_CAP", 5)
        _, programs = build_program_set(CONTENTION)
        schedules = schedule_space(programs, **SAMPLE).schedules
        level = IsolationLevelName.SNAPSHOT_ISOLATION
        capped = BatchClassifier(initial_items=("a0", "a1", "a2"))
        result = execute_chunk(ChunkTask(0, CONTENTION, level, schedules), capped)
        distinct = {record.history for record in result.records}
        assert len(distinct) > 5
        assert len(capped) == 5
        assert len(capped._mv_classes) == 5
        assert result.cache_stats["misses"] >= len(distinct)
        monkeypatch.undo()
        roomy = BatchClassifier(initial_items=("a0", "a1", "a2"))
        assert execute_chunk(ChunkTask(0, CONTENTION, level, schedules),
                             roomy).records == result.records
        assert len(roomy) == len(distinct)

    def test_admitted_entries_still_hit_and_new_ones_still_classify(self, monkeypatch):
        monkeypatch.setattr(memo, "CLASSIFICATION_MEMO_CAP", 1)
        classifier = BatchClassifier()
        first = History.parse("w1[x] r2[x] c1 c2")
        second = History.parse("w1[x] c1 r2[x] c2")
        assert "P1" in classifier.classify(first).phenomena
        assert "P1" not in classifier.classify(second).phenomena
        assert "P1" in classifier.classify(first).phenomena
        assert "P1" not in classifier.classify(second).phenomena
        assert (classifier.hits, classifier.misses, len(classifier)) == (1, 3, 1)


class TestStatsAreChunkDeltas:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_schedule_is_a_hit_or_a_miss(self, workers):
        result = explore(CONTENTION, ExploreOptions(
            workers=workers, chunk_size=16, **SAMPLE))
        reused = {}
        for exploration in result.levels.values():
            stats = exploration.cache_stats
            if exploration.reused_from is not None:
                reused[exploration.level] = exploration.reused_from
                assert exploration.records == \
                    result.levels[exploration.reused_from].records
                # Nothing was classified for it: every counter reads 0.
                assert set(stats.values()) == {0}, exploration.level
                continue
            assert (stats["hits"] + stats["misses"]
                    == exploration.executed == 96), exploration.level
        # Table 2 separates the two by predicate-read lock duration only, and
        # these programs read no predicate.
        assert reused == {IsolationLevelName.SERIALIZABLE:
                          IsolationLevelName.REPEATABLE_READ}

    def test_serial_levels_share_one_memo(self):
        result = explore(CONTENTION, ExploreOptions(chunk_size=16, **SAMPLE))
        repeatable = result.levels[IsolationLevelName.REPEATABLE_READ]
        serializable = result.levels[IsolationLevelName.SERIALIZABLE]
        assert serializable.reused_from is IsolationLevelName.REPEATABLE_READ
        assert serializable.records == repeatable.records
        assert serializable.executed == len(serializable.records) == 96
        # Every history was classified once, across the executed levels.
        distinct = {record.history for exploration in result.levels.values()
                    for record in exploration.records}
        assert sum(exploration.cache_stats["misses"]
                   for exploration in result.levels.values()) == len(distinct)


def _late_item(preexisting: bool = True):
    """T1 writes ``z`` and T2 reads it, whether or not ``z`` exists initially:
    the two variants differ in their initial item set and nothing else."""
    database = Database()
    database.set_item("y", 5)
    if preexisting:
        database.set_item("z", 7)
    return database, [
        TransactionProgram(1, [ReadItem("y"), WriteItem("z", 7), Commit()]),
        TransactionProgram(2, [ReadItem("z"), WriteItem("y", 9), Commit()]),
    ]


class TestWorkloadIsolation:
    def test_process_memo_is_keyed_by_initial_items(self, monkeypatch):
        monkeypatch.setattr(worker, "_CLASSIFIER_CACHE", {})
        level = IsolationLevelName.SNAPSHOT_ISOLATION
        for preexisting, items in ((True, ("y", "z")), (False, ("y",))):
            # Handed to the task directly: registering it would add it to
            # every test that sweeps the registry.
            spec = ProgramSetSpec.make("memo-test-late-item",
                                       preexisting=preexisting)
            _, programs = _late_item(preexisting)
            task = ChunkTask(0, spec, level, schedule_space(
                programs, mode="exhaustive", max_schedules=50).schedules,
                builder=_late_item)
            through_process_memo = execute_chunk(task)
            alone = execute_chunk(task, BatchClassifier(initial_items=items))
            assert through_process_memo.records == alone.records
            # Nothing the other variant learned answered for this one.
            assert through_process_memo.cache_stats["misses"] == \
                alone.cache_stats["misses"] > 0
        assert {items: classifier.initial_items
                for items, classifier in worker._CLASSIFIER_CACHE.items()} == {
            ("y", "z"): frozenset(("y", "z")), ("y",): frozenset(("y",))}

    def test_second_chunk_in_the_process_hits_the_first_ones_entries(self, monkeypatch):
        monkeypatch.setattr(worker, "_CLASSIFIER_CACHE", {})
        _, programs = build_program_set(CONTENTION)
        schedules = schedule_space(programs, **SAMPLE).schedules
        task = ChunkTask(0, CONTENTION, IsolationLevelName.READ_COMMITTED, schedules)
        first = execute_chunk(task)
        second = execute_chunk(task)
        assert second.records == first.records
        assert first.cache_stats["misses"] > 0
        # Per-chunk deltas: the second chunk reports its own all-hit pass.
        assert second.cache_stats["misses"] == 0
        assert second.cache_stats["hits"] == len(schedules)


class TestDeterminismGrid:
    @pytest.mark.parametrize("spec,space", [
        (CONTENTION, SAMPLE),
        (BANK, dict(mode="exhaustive", max_schedules=300)),
    ], ids=["contention", "bank-transfer"])
    def test_fingerprint_is_independent_of_workers_and_chunking(self, spec, space):
        options = ExploreOptions(**space)
        fingerprints = {
            (workers, chunk_size): explore(spec, options.replace(
                workers=workers, chunk_size=chunk_size)).fingerprint()
            for workers in (1, 2, 3) for chunk_size in (16, 256)
        }
        assert len(set(fingerprints.values())) == 1, fingerprints


class TestRemovedSurface:
    def test_chunks_carry_records_and_counters_only(self):
        """A chunk hands back no classifications beside its records, and a
        task cannot ask for them: nothing saves them apart from records."""
        assert [f.name for f in dataclasses.fields(ChunkResult)] == [
            "chunk_index", "records", "cache_stats"]
        assert [f.name for f in dataclasses.fields(ChunkTask)] == [
            "chunk_index", "spec", "level", "schedules", "builder"]
        assert list(inspect.signature(LevelPersistence.commit_chunk).parameters) \
            == ["self", "chunk_index", "records"]

    def test_options_reject_shared_cache_by_name(self):
        with pytest.raises(TypeError, match="shared_cache"):
            ExploreOptions(shared_cache=True)

    def test_explore_rejects_shared_cache_by_name(self):
        with pytest.raises(TypeError, match="shared_cache"):
            explore(CONTENTION, shared_cache=False)
