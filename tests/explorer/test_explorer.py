"""The explorer's determinism contract and the coverage report built on it."""

from __future__ import annotations

import math

import pytest

from repro.analysis.coverage import build_coverage_report
from repro.core.isolation import IsolationLevelName, Possibility
from repro.explorer import ExploreOptions, ProgramSetSpec, explore

LEVELS_FAST = (
    IsolationLevelName.READ_COMMITTED,
    IsolationLevelName.SNAPSHOT_ISOLATION,
    IsolationLevelName.SERIALIZABLE,
)


class TestExhaustiveMode:
    def test_explores_exactly_the_multinomial_space_for_two_programs(self):
        spec = ProgramSetSpec.make("increments", transactions=2)
        result = explore(spec, ExploreOptions(
            levels=LEVELS_FAST, mode="exhaustive", max_schedules=50))
        expected = math.factorial(6) // (math.factorial(3) ** 2)
        assert result.space.total == expected == 20
        for exploration in result.levels.values():
            assert len(exploration.records) == expected
            assert len({record.interleaving for record in exploration.records}) == expected

    def test_three_tiny_programs_match_the_formula(self):
        spec = ProgramSetSpec.make("increments", transactions=3)
        result = explore(spec, ExploreOptions(
            levels=[IsolationLevelName.SERIALIZABLE],
            mode="exhaustive", max_schedules=2000))
        expected = math.factorial(9) // (math.factorial(3) ** 3)
        assert result.space.total == expected == 1680
        assert result.total_schedules() == expected

    def test_every_record_ran_to_completion(self):
        spec = ProgramSetSpec.make("bank-transfer")
        result = explore(spec, ExploreOptions(
            levels=LEVELS_FAST, mode="exhaustive", max_schedules=300))
        for exploration in result.levels.values():
            for record in exploration.records:
                assert not record.stalled
                assert record.history  # something actually executed


class TestDeterminism:
    def test_same_seed_identical_schedule_set_and_fingerprint(self):
        spec = ProgramSetSpec.make("contention", transactions=4)
        first = explore(spec, ExploreOptions(
            levels=LEVELS_FAST, mode="sample", max_schedules=60, seed=13))
        second = explore(spec, ExploreOptions(
            levels=LEVELS_FAST, mode="sample", max_schedules=60, seed=13))
        assert first.space.schedules == second.space.schedules
        assert first.fingerprint() == second.fingerprint()

    def test_different_seed_different_schedules(self):
        spec = ProgramSetSpec.make("contention", transactions=4)
        first = explore(spec, ExploreOptions(
            levels=[IsolationLevelName.SERIALIZABLE],
            mode="sample", max_schedules=40, seed=1))
        second = explore(spec, ExploreOptions(
            levels=[IsolationLevelName.SERIALIZABLE],
            mode="sample", max_schedules=40, seed=2))
        assert first.space.schedules != second.space.schedules

    def test_chunk_size_does_not_change_results(self):
        spec = ProgramSetSpec.make("write-skew")
        coarse = explore(spec, ExploreOptions(
            levels=LEVELS_FAST, max_schedules=100, chunk_size=64))
        fine = explore(spec, ExploreOptions(
            levels=LEVELS_FAST, max_schedules=100, chunk_size=7))
        assert coarse.fingerprint() == fine.fingerprint()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_results_byte_identical_to_serial(self, workers):
        spec = ProgramSetSpec.make("contention", transactions=3,
                                   operations_per_transaction=2)
        serial = explore(spec, ExploreOptions(
            levels=LEVELS_FAST, mode="sample",
            max_schedules=80, seed=5, workers=1, chunk_size=10))
        parallel = explore(spec, ExploreOptions(
            levels=LEVELS_FAST, mode="sample",
            max_schedules=80, seed=5, workers=workers, chunk_size=10))
        assert serial.fingerprint() == parallel.fingerprint()
        for level in LEVELS_FAST:
            assert serial.levels[level].records == parallel.levels[level].records

    def test_invalid_configuration_rejected(self):
        spec = ProgramSetSpec.make("write-skew")
        with pytest.raises(ValueError):
            explore(spec, ExploreOptions(workers=0))
        with pytest.raises(ValueError):
            explore(spec, ExploreOptions(chunk_size=0))
        with pytest.raises(ValueError):
            explore(spec, ExploreOptions(workers="turbo"))
        with pytest.raises(ValueError):
            explore(spec, ExploreOptions(reduction="everything"))

    def test_streaming_matches_the_materialized_path(self):
        """Memory-bounded iteration realizes the same records as a materialized run."""
        spec = ProgramSetSpec.make("contention", transactions=4)
        result = explore(spec, ExploreOptions(
            levels=(IsolationLevelName.READ_COMMITTED,),
            mode="sample", max_schedules=120, seed=9, chunk_size=16))
        # The explorer streamed; nothing was materialized as a side effect.
        assert result.space._materialized is None

        # Execute the explicitly materialized schedule list in one chunk and
        # compare: the streamed chunks must realize byte-identical records.
        from repro.explorer.worker import ChunkTask, execute_chunk
        schedules = result.space.schedules
        assert len(schedules) == 120
        assert tuple(result.space) == schedules
        chunk = execute_chunk(ChunkTask(0, spec, IsolationLevelName.READ_COMMITTED,
                                        schedules))
        assert chunk.records == result.levels[IsolationLevelName.READ_COMMITTED].records

    def test_worker_memos_do_not_change_results(self):
        """Each pool worker classifies through its own memo for the run."""
        spec = ProgramSetSpec.make("contention", transactions=3,
                                   operations_per_transaction=2)
        options = ExploreOptions(
            levels=(IsolationLevelName.READ_COMMITTED,),
            mode="sample", max_schedules=60, seed=4, chunk_size=8)
        pooled = explore(spec, options.replace(workers=2))
        serial = explore(spec, options)
        assert pooled.fingerprint() == serial.fingerprint()
        stats = pooled.levels[IsolationLevelName.READ_COMMITTED].cache_stats
        assert stats["hits"] + stats["misses"] + stats["shared_hits"] == 60
        # Two private memos can only miss more often than one, never less.
        serial_stats = serial.levels[IsolationLevelName.READ_COMMITTED].cache_stats
        assert stats["misses"] >= serial_stats["misses"]


class TestWorkerAutoResolution:
    def test_workers_auto_uses_available_workers(self, monkeypatch):
        import repro.explorer.explorer as explorer_module
        monkeypatch.setattr(explorer_module, "available_workers", lambda: 2)
        spec = ProgramSetSpec.make("write-skew")
        result = explore(spec, ExploreOptions(
            levels=(IsolationLevelName.SERIALIZABLE,),
            mode="exhaustive", max_schedules=100, workers="auto"))
        assert result.workers == 2

    def test_workers_auto_matches_serial_fingerprint(self, monkeypatch):
        import repro.explorer.explorer as explorer_module
        monkeypatch.setattr(explorer_module, "available_workers", lambda: 2)
        spec = ProgramSetSpec.make("increments", transactions=2)
        serial = explore(spec, ExploreOptions(
            levels=(IsolationLevelName.READ_COMMITTED,),
            mode="exhaustive", max_schedules=50, workers=1))
        auto = explore(spec, ExploreOptions(
            levels=(IsolationLevelName.READ_COMMITTED,),
            mode="exhaustive", max_schedules=50, workers="auto"))
        assert auto.fingerprint() == serial.fingerprint()


class TestCoverageReport:
    def test_lost_update_is_witnessed_where_the_paper_says(self):
        spec = ProgramSetSpec.make("increments", transactions=2)
        result = explore(spec, ExploreOptions(
            levels=(
                IsolationLevelName.READ_COMMITTED,
                IsolationLevelName.REPEATABLE_READ,
                IsolationLevelName.SNAPSHOT_ISOLATION,
            ), mode="exhaustive", max_schedules=50))
        report = build_coverage_report(result)
        assert report.witnessed(IsolationLevelName.READ_COMMITTED, "P4") > 0
        assert report.witnessed(IsolationLevelName.REPEATABLE_READ, "P4") == 0
        assert report.witnessed(IsolationLevelName.SNAPSHOT_ISOLATION, "P4") == 0
        witness = report.witness(IsolationLevelName.READ_COMMITTED, "P4")
        assert witness is not None
        interleaving, history = witness
        assert len(interleaving) == 6 and "w" in history

    def test_write_skew_separates_si_from_serializable(self):
        spec = ProgramSetSpec.make("write-skew")
        result = explore(spec, ExploreOptions(
            levels=(
                IsolationLevelName.SNAPSHOT_ISOLATION,
                IsolationLevelName.SERIALIZABLE,
            ), mode="exhaustive", max_schedules=100))
        report = build_coverage_report(result)
        si = report.levels[IsolationLevelName.SNAPSHOT_ISOLATION]
        assert report.witnessed(IsolationLevelName.SNAPSHOT_ISOLATION, "A5B") > 0
        assert si.non_serializable_fraction > 0.5
        ser = report.levels[IsolationLevelName.SERIALIZABLE]
        assert report.witnessed(IsolationLevelName.SERIALIZABLE, "A5B") == 0
        assert ser.non_serializable_fraction == 0.0

    def test_possibility_mapping_and_render(self):
        spec = ProgramSetSpec.make("increments", transactions=2)
        result = explore(spec, ExploreOptions(
            levels=(IsolationLevelName.READ_COMMITTED,),
            mode="exhaustive", max_schedules=50))
        report = build_coverage_report(result, codes=("P4", "P0"))
        coverage = report.levels[IsolationLevelName.READ_COMMITTED]
        assert coverage.phenomena["P4"].possibility is Possibility.POSSIBLE
        assert 0 < coverage.phenomena["P4"].frequency < 1
        assert coverage.phenomena["P0"].possibility is Possibility.NOT_POSSIBLE
        rendered = report.render()
        assert "READ COMMITTED" in rendered and "P4" in rendered

    def test_cache_statistics_are_reported(self):
        spec = ProgramSetSpec.make("increments", transactions=2)
        result = explore(spec, ExploreOptions(
            levels=(IsolationLevelName.SERIALIZABLE,),
            mode="exhaustive", max_schedules=50))
        stats = result.levels[IsolationLevelName.SERIALIZABLE].cache_stats
        # Without reduction every schedule executes and is classified (a
        # memo hit or a miss), however small the space.
        assert result.executed_schedules() == 20
        assert stats["hits"] + stats["misses"] == 20

    def test_real_engine_table_counters_are_reported(self):
        """With the kernel off the real engines' transition table does the
        sharing, and its hit rate reaches cache_stats."""
        spec = ProgramSetSpec.make("increments", transactions=2)
        result = explore(spec, ExploreOptions(
            levels=(IsolationLevelName.SERIALIZABLE,),
            mode="exhaustive", max_schedules=50, batch_kernel="off"))
        stats = result.levels[IsolationLevelName.SERIALIZABLE].cache_stats
        assert stats["trie_transitions_reused"] > stats["trie_transitions_computed"] > 0
        assert 0 < stats["trie_states"] <= stats["trie_transitions_computed"]
        assert stats["trie_slots_executed"] < stats["trie_slots_total"]


class TestScale:
    def test_ten_thousand_sampled_schedules(self):
        """The acceptance-criteria scale: >= 10k interleavings of a contention set."""
        spec = ProgramSetSpec.make("contention", transactions=4, items=4,
                                   hot_items=2, operations_per_transaction=2)
        result = explore(spec, ExploreOptions(
            levels=(IsolationLevelName.READ_COMMITTED,),
            mode="sample", max_schedules=10_000, seed=42))
        assert result.total_schedules() == 10_000
        # The stream was never materialized into a schedule list.
        assert result.space._materialized is None
        report = build_coverage_report(result)
        coverage = report.levels[IsolationLevelName.READ_COMMITTED]
        assert coverage.schedules == 10_000
        # Contention must actually surface anomalies somewhere in the space.
        assert any(item.witnessed for item in coverage.phenomena.values())

    def test_sample_of_a_small_space_caps_at_the_distinct_count(self):
        """Oversampling a small space yields every distinct schedule exactly once."""
        spec = ProgramSetSpec.make("contention", transactions=3, items=3,
                                   hot_items=1, operations_per_transaction=1)
        result = explore(spec, ExploreOptions(
            levels=(IsolationLevelName.READ_COMMITTED,),
            mode="sample", max_schedules=10_000, seed=42))
        assert result.space.total == 560
        assert result.total_schedules() == 560
        assert result.space.distinct == 560
        records = result.levels[IsolationLevelName.READ_COMMITTED].records
        assert len({record.interleaving for record in records}) == 560
