"""The memoized classifier must agree exactly with the direct analyses."""

from __future__ import annotations


from repro.core.dependency import is_serializable
from repro.core.history import parse_history
from repro.core.mv_analysis import assign_write_versions, mv_is_serializable, mv_to_sv
from repro.core.phenomena import detect_all
from repro.explorer.memo import BatchClassifier
from repro.workloads.generators import history_corpus


class TestBatchClassifier:
    def test_matches_direct_serializability_and_detection(self):
        classifier = BatchClassifier()
        for history in history_corpus(seed=4, count=80):
            result = classifier.classify(history)
            assert result.serializable == is_serializable(history)
            expected = tuple(sorted(
                code for code, found in detect_all(history).items() if found
            ))
            assert result.phenomena == expected

    def test_duplicate_histories_hit_the_cache(self):
        classifier = BatchClassifier()
        history = parse_history("w1[x] r2[x] c1 c2")
        first = classifier.classify(history)
        second = classifier.classify(parse_history("w1[x] r2[x] c1 c2"))
        assert first == second
        assert classifier.stats["hits"] == 1
        assert classifier.stats["misses"] == 1

    def test_multiversion_histories_use_the_mv_touchstone(self):
        # Write skew realized under SI: versioned reads, unversioned writes.
        skew = parse_history(
            "r1[x0=50] r1[y0=50] w1[y=100] r2[x0=50] c1 r2[y0=50] w2[x=100] c2",
            multiversion=True,
        )
        completed = assign_write_versions(skew)
        assert all(op.version is not None for op in completed
                   if op.is_write and op.item is not None)
        assert not mv_is_serializable(completed)
        result = BatchClassifier().classify(skew)
        assert not result.serializable
        assert "A5B" in result.phenomena

    def test_items_created_during_the_run_version_from_zero(self):
        # T1 creates item z (not in the initial database); T2 then reads the
        # version T1 installed, which the engine numbers 0.  With the initial
        # item set supplied, the serial execution classifies as serializable.
        history = parse_history(
            "r1[y0=5] w1[z=7] c1 r2[z0=7] w2[y=9] c2", multiversion=True,
        )
        informed = BatchClassifier(initial_items=("y",)).classify(history)
        assert informed.serializable
        completed = assign_write_versions(history, initial_items=("y",))
        z_writes = [op for op in completed if op.is_write and op.item == "z"]
        assert [op.version for op in z_writes] == [0]
        # Without the initial item set, every item is assumed to pre-exist and
        # the first write of z is stamped 1 — misaligned with its reader.
        assert not BatchClassifier().classify(history).serializable

    def test_write_skew_over_items_created_mid_run_is_caught(self):
        # T1 and T2 each read the item the other then creates: the classic
        # rw-cycle, but over items with no initial version — their reads come
        # back unversioned, so the anti-dependencies hinge on read completion.
        history = parse_history(
            "r1[x0=1] r2[x0=1] r1[z] r2[w] w1[w=1] w2[z=2] c1 c2",
            multiversion=True,
        )
        completed = assign_write_versions(history, initial_items=("x",))
        reads = {(op.txn, op.item): op.version for op in completed if op.is_read}
        assert reads[(1, "z")] == -1 and reads[(2, "w")] == -1
        assert not mv_is_serializable(completed)
        result = BatchClassifier(initial_items=("x",)).classify(history)
        assert not result.serializable

    def test_reads_of_own_pending_writes_stay_at_the_commit_point(self):
        # The engines return a txn's own buffered write with version=None; the
        # completion must stamp it with the installed version so mv_to_sv does
        # not relocate it before the write that produced its value.
        history = parse_history(
            "r2[y0=1] w1[x=5] r1[x=5] c1 c2", multiversion=True,
        )
        completed = assign_write_versions(history, initial_items=("x", "y"))
        own_read = next(op for op in completed if op.is_read and op.txn == 1)
        own_write = next(op for op in completed if op.is_write and op.txn == 1)
        assert own_read.version == own_write.version == 1
        mapped = mv_to_sv(completed)
        ops = list(mapped)
        write_at = next(i for i, op in enumerate(ops) if op.is_write and op.txn == 1)
        read_at = next(i for i, op in enumerate(ops) if op.is_read and op.txn == 1)
        assert write_at < read_at

    def test_snapshot_reads_are_not_dirty_reads(self):
        # T2 reads the *old* version after T1's write: no P1 under the MV mapping.
        history = parse_history("w1[x=10] r2[x0=50] c1 c2", multiversion=True)
        result = BatchClassifier().classify(history)
        assert "P1" not in result.phenomena
        assert "A1" not in result.phenomena


class TestFusedMvClassifyCore:
    """The fused MV core must equal the unfused three-stage pipeline."""

    def _assert_equivalent(self, history, initial_items=None):
        from repro.explorer.memo import _mv_classify_core

        completed = assign_write_versions(history, initial_items)
        expected_serializable = mv_is_serializable(completed)
        expected_mapped = mv_to_sv(completed)
        serializable, mapped = _mv_classify_core(
            history, None if initial_items is None else frozenset(initial_items))
        assert serializable == expected_serializable, history.to_shorthand()
        assert mapped == expected_mapped, history.to_shorthand()

    def test_on_catalogued_mv_histories(self):
        from repro.core.catalog import CATALOG

        checked = 0
        for entry in CATALOG.values():
            history = entry.history if hasattr(entry, "history") else entry
            if history.is_multiversion():
                self._assert_equivalent(history)
                checked += 1
        assert checked >= 1

    def test_on_realized_snapshot_isolation_histories(self):
        from repro.core.isolation import IsolationLevelName
        from repro.explorer import ProgramSetSpec, schedule_space
        from repro.explorer.trie_executor import TrieExecutor
        from repro.explorer.worker import _initial_items
        from repro.workloads.program_sets import build_program_set

        spec = ProgramSetSpec.make("contention", transactions=3, items=3,
                                   hot_items=2, operations_per_transaction=2)
        for level in (IsolationLevelName.SNAPSHOT_ISOLATION,
                      IsolationLevelName.ORACLE_READ_CONSISTENCY):
            database, programs = build_program_set(spec)
            items = _initial_items(database)
            executor = TrieExecutor(database, programs, level)
            schedules = schedule_space(programs, mode="sample",
                                       max_schedules=120, seed=11).schedules
            for _, outcome in executor.run_batch(schedules):
                if outcome.history.is_multiversion():
                    self._assert_equivalent(outcome.history, items)
