"""The schedule-level outcome memo: determinism, reuse, and soundness gates.

The memo executes the *canonical* member of each commutation-equivalence
class and serves its outcome to every member, so records must be a pure
function of the explore() inputs — independent of worker count, chunk size,
and memo warmth — and coverage must match a full enumeration exactly.
"""

from __future__ import annotations

import pytest

from repro.analysis.coverage import coverage_mismatches
from repro.core.isolation import IsolationLevelName
from repro.explorer import ExploreOptions, ProgramSetSpec, explore
from repro.explorer.memo import ScheduleOutcome, ScheduleOutcomeMemo
from repro.explorer.worker import ChunkTask, execute_chunk
from repro.workloads.program_sets import build_program_set

LEVELS = (IsolationLevelName.READ_COMMITTED,
          IsolationLevelName.SNAPSHOT_ISOLATION)

#: A small space the "auto" policy memoizes (bank-transfer: 252 schedules).
SPEC = ProgramSetSpec.make("bank-transfer")


class TestMemoUnit:
    def _memo(self):
        _, programs = build_program_set(SPEC)
        return ScheduleOutcomeMemo(programs, terminal_scope="footprint")

    def test_put_and_peek(self):
        memo = self._memo()
        outcome = ScheduleOutcome("h", True, (), (1,), (), 0, 0, False)
        key = (1, 2, 1, 2)
        assert memo.peek(key) is None
        memo.put(key, outcome)
        assert memo.peek(key) is outcome
        assert len(memo) == 1

    def test_canonical_is_class_invariant(self):
        memo = self._memo()
        _, programs = build_program_set(SPEC)
        # Two interleavings differing by swapping adjacent commuting slots of
        # different transactions share a canonical key.
        from repro.explorer.schedules import schedule_space
        schedules = list(schedule_space(programs, mode="exhaustive",
                                        max_schedules=300))
        keys = {memo.canonical(schedule) for schedule in schedules}
        assert len(keys) < len(schedules)
        for key in keys:
            assert memo.canonical(key) == key  # canonical members are fixed points

    def test_preload_and_drain_fresh(self):
        memo = self._memo()
        outcome = ScheduleOutcome("h", True, (), (1,), (), 0, 0, False)
        memo.preload({(1, 1): outcome})
        assert memo.peek((1, 1)) is outcome
        assert memo.drain_fresh() == {}  # preloaded entries are never fresh
        memo.put((2, 2), outcome)
        drained = memo.drain_fresh()
        assert drained == {(2, 2): outcome}
        assert memo.drain_fresh() == {}
        assert memo.peek((2, 2)) is outcome


class TestMemoDeterminism:
    def test_hit_miss_split_does_not_change_records_across_worker_counts(self):
        serial = explore(SPEC, ExploreOptions(
            levels=LEVELS, mode="exhaustive",
            max_schedules=300, outcome_memo=True, workers=1,
            chunk_size=16))
        parallel = explore(SPEC, ExploreOptions(
            levels=LEVELS, mode="exhaustive",
            max_schedules=300, outcome_memo=True, workers=2,
            chunk_size=7))
        assert serial.outcome_memo and parallel.outcome_memo
        assert serial.fingerprint() == parallel.fingerprint()
        for level in LEVELS:
            assert serial.levels[level].records == parallel.levels[level].records

    def test_chunk_size_does_not_change_records(self):
        coarse = explore(SPEC, ExploreOptions(
            levels=LEVELS, mode="exhaustive",
            max_schedules=300, outcome_memo=True, chunk_size=64))
        fine = explore(SPEC, ExploreOptions(
            levels=LEVELS, mode="exhaustive",
            max_schedules=300, outcome_memo=True, chunk_size=5))
        assert coarse.fingerprint() == fine.fingerprint()

    def test_warm_memo_changes_executed_counts_but_never_records(self):
        first = explore(SPEC, ExploreOptions(
            levels=LEVELS, mode="exhaustive", max_schedules=300, outcome_memo=True))
        second = explore(SPEC, ExploreOptions(
            levels=LEVELS, mode="exhaustive", max_schedules=300, outcome_memo=True))
        assert first.fingerprint() == second.fingerprint()
        # The serial path shares one per-process memo: the second run is
        # answered entirely from it.
        assert second.executed_schedules() == 0
        assert second.total_schedules() == first.total_schedules()


class TestMemoSoundness:
    def test_coverage_matches_full_enumeration(self):
        full = explore(SPEC, ExploreOptions(
            levels=LEVELS, mode="exhaustive", max_schedules=300, outcome_memo=False))
        memoized = explore(SPEC, ExploreOptions(
            levels=LEVELS, mode="exhaustive", max_schedules=300, outcome_memo=True))
        assert coverage_mismatches(full, memoized, levels=LEVELS) == []
        assert memoized.total_schedules() == full.total_schedules()

    def test_records_keep_their_own_interleavings(self):
        result = explore(SPEC, ExploreOptions(
            levels=(IsolationLevelName.READ_COMMITTED,),
            mode="exhaustive", max_schedules=300,
            outcome_memo=True))
        records = result.levels[IsolationLevelName.READ_COMMITTED].records
        assert len({record.interleaving for record in records}) == len(records)

    def test_auto_policy(self):
        small = explore(SPEC, ExploreOptions(
            levels=(IsolationLevelName.READ_COMMITTED,),
            mode="exhaustive", max_schedules=300))
        assert small.outcome_memo  # 252-schedule space: auto turns it on
        big = explore(ProgramSetSpec.make("contention", transactions=4, items=4,
                                          hot_items=2,
                                          operations_per_transaction=2),
                      ExploreOptions(levels=(IsolationLevelName.READ_COMMITTED,),
                                     mode="sample", max_schedules=50, seed=3))
        assert not big.outcome_memo  # sparse sample of a ~1e10 space
        reduced = explore(SPEC, ExploreOptions(
            levels=(IsolationLevelName.READ_COMMITTED,),
            mode="exhaustive", max_schedules=300,
            reduction="sleep-set"))
        assert not reduced.outcome_memo  # reduction already dedupes classes

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            explore(SPEC, ExploreOptions(outcome_memo="always"))


class TestMemoizedChunk:
    def test_execute_chunk_memoized_equals_plain(self):
        """A memoized chunk must classify every schedule like a plain chunk."""
        _, programs = build_program_set(SPEC)
        from repro.explorer.schedules import schedule_space
        schedules = schedule_space(programs, mode="exhaustive",
                                   max_schedules=300).schedules
        plain = execute_chunk(ChunkTask(0, SPEC,
                                        IsolationLevelName.SNAPSHOT_ISOLATION,
                                        schedules))
        memoized = execute_chunk(ChunkTask(0, SPEC,
                                           IsolationLevelName.SNAPSHOT_ISOLATION,
                                           schedules, outcome_memo=True))
        assert len(plain.records) == len(memoized.records)
        for before, after in zip(plain.records, memoized.records):
            assert before.interleaving == after.interleaving
            assert before.serializable == after.serializable
            assert before.phenomena == after.phenomena
            assert before.committed == after.committed
            assert before.aborted == after.aborted
