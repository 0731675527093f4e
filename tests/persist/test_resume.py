"""Kill-and-resume determinism and cross-run dedupe — the tentpole contract.

A campaign interrupted at any commit boundary and resumed must produce a
result byte-identical to the uninterrupted run (fingerprint AND rendered
coverage report), and re-running a completed campaign must execute nothing.
"""

from __future__ import annotations

import pytest

from repro.analysis.coverage import (
    build_coverage_report,
    coverage_report_from_store,
)
from repro.explorer import ExploreOptions, ProgramSetSpec, explore
from repro.persist import SqliteStore


class Interrupted(RuntimeError):
    """Stands in for a SIGKILL: raised mid-campaign, after N durable commits."""


class InterruptingStore:
    """Proxy that dies after ``fail_after`` chunk commits have gone durable."""

    def __init__(self, inner, fail_after: int):
        self._inner = inner
        self._left = fail_after

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name != "commit_chunk":
            return attr

        def commit_chunk(*args, **kwargs):
            if self._left <= 0:
                raise Interrupted()
            self._left -= 1
            return attr(*args, **kwargs)

        return commit_chunk


SPEC = ProgramSetSpec.make("increments")
EXPLORE_KWARGS = dict(max_schedules=200, chunk_size=8)
#: The streams the transparency and resume contracts run on: ``SPEC``'s
#: whole space (it holds 100 schedules, so ``auto`` enumerates it), and a
#: seeded sample of a space far larger than its budget.
STREAMS = {
    "exhaustive": (SPEC, EXPLORE_KWARGS),
    "sampled": (ProgramSetSpec.make("contention"),
                dict(mode="sample", max_schedules=120, seed=11, chunk_size=8)),
}


@pytest.fixture(scope="module")
def baseline():
    """The uninterrupted, store-less result every variant must reproduce."""
    return explore(SPEC, ExploreOptions(**EXPLORE_KWARGS))


@pytest.fixture(scope="module")
def stream_baselines():
    """``baseline`` for every stream of ``STREAMS``."""
    return {name: explore(spec, ExploreOptions(**kwargs))
            for name, (spec, kwargs) in STREAMS.items()}


class TestStoreTransparency:
    @pytest.mark.parametrize("stream", STREAMS)
    def test_store_backed_run_matches_plain_run(self, store, stream_baselines,
                                                stream):
        spec, kwargs = STREAMS[stream]
        result = explore(spec, ExploreOptions(
            store=store, campaign_id="c1", **kwargs))
        assert result.fingerprint() == stream_baselines[stream].fingerprint()

    def test_store_backed_report_renders_identically(self, store, baseline):
        explore(SPEC, ExploreOptions(store=store, campaign_id="c1", **EXPLORE_KWARGS))
        live = build_coverage_report(baseline).render()
        stored = coverage_report_from_store(store, "c1").render()
        assert stored == live

    def test_campaign_id_requires_a_store(self):
        with pytest.raises(ValueError):
            explore(SPEC, ExploreOptions(campaign_id="c1", **EXPLORE_KWARGS))


class TestKillAndResume:
    @pytest.mark.parametrize("stream", STREAMS)
    @pytest.mark.parametrize("fail_after", [0, 1, 3, 7])
    def test_resume_is_byte_identical(self, store, stream_baselines, fail_after,
                                      stream):
        spec, kwargs = STREAMS[stream]
        with pytest.raises(Interrupted):
            explore(spec, ExploreOptions(
                store=InterruptingStore(store, fail_after),
                campaign_id="c1", **kwargs))
        resumed = explore(spec, ExploreOptions(
            store=store, campaign_id="c1", **kwargs))
        expected = stream_baselines[stream]
        assert resumed.fingerprint() == expected.fingerprint()
        assert (coverage_report_from_store(store, "c1").render()
                == build_coverage_report(expected).render())

    def test_resume_executes_only_the_remainder(self, store):
        with pytest.raises(Interrupted):
            explore(SPEC, ExploreOptions(
                store=InterruptingStore(store, 3), campaign_id="c1", **EXPLORE_KWARGS))
        resumed = explore(SPEC, ExploreOptions(
            store=store, campaign_id="c1", **EXPLORE_KWARGS))
        loaded = sum(level.cache_stats.get("store_chunks_loaded", 0)
                     for level in resumed.levels.values())
        committed = sum(level.cache_stats.get("store_chunks_committed", 0)
                        for level in resumed.levels.values())
        assert loaded == 3          # exactly the durable prefix was reused
        assert committed > 0        # and the remainder was executed and saved
        progress = store.scope_progress("c1")
        assert all(state.complete for state in progress.values())

    def test_double_interruption_still_converges(self, store, baseline):
        for fail_after in (1, 1):
            with pytest.raises(Interrupted):
                explore(SPEC, ExploreOptions(
                    store=InterruptingStore(store, fail_after),
                    campaign_id="c1", **EXPLORE_KWARGS))
        resumed = explore(SPEC, ExploreOptions(
            store=store, campaign_id="c1", **EXPLORE_KWARGS))
        assert resumed.fingerprint() == baseline.fingerprint()


class TestCrossRunDedupe:
    def test_rerun_of_complete_campaign_executes_nothing(self, store, baseline):
        first = explore(SPEC, ExploreOptions(
            store=store, campaign_id="c1", **EXPLORE_KWARGS))
        rerun = explore(SPEC, ExploreOptions(
            store=store, campaign_id="c1", **EXPLORE_KWARGS))
        assert rerun.executed_schedules() == 0
        assert rerun.fingerprint() == first.fingerprint()
        assert rerun.fingerprint() == baseline.fingerprint()

    def test_cross_workload_classification_dedupe(self, store):
        explore(SPEC, ExploreOptions(store=store, campaign_id="c1", **EXPLORE_KWARGS))
        stored = set(store.load_classifications())
        assert stored
        other = ProgramSetSpec.make("contention")
        result = explore(other, ExploreOptions(
            store=store, campaign_id="c2", **EXPLORE_KWARGS))
        stats = result.levels[next(iter(result.levels))].cache_stats
        # classifications are keyed by history shorthand, not workload, so a
        # different workload still preloads everything the first one learned
        assert stats.get("store_classifications_preloaded", 0) >= len(stored)

    def test_different_config_same_campaign_is_refused(self, store):
        from repro.persist import CampaignConfigMismatch
        explore(SPEC, ExploreOptions(store=store, campaign_id="c1", **EXPLORE_KWARGS))
        with pytest.raises(CampaignConfigMismatch):
            explore(SPEC, ExploreOptions(
                store=store, campaign_id="c1", seed=5, **EXPLORE_KWARGS))


class TestParallelCampaigns:
    def test_parallel_run_matches_and_dedupes(self, baseline):
        store = SqliteStore(":memory:")
        first = explore(SPEC, ExploreOptions(
            workers=2, store=store, campaign_id="par", **EXPLORE_KWARGS))
        assert first.fingerprint() == baseline.fingerprint()
        rerun = explore(SPEC, ExploreOptions(
            workers=2, store=store, campaign_id="par", **EXPLORE_KWARGS))
        assert rerun.executed_schedules() == 0
        assert rerun.fingerprint() == first.fingerprint()

    def test_serial_resume_of_parallel_campaign(self, baseline):
        store = SqliteStore(":memory:")
        with pytest.raises(Interrupted):
            explore(SPEC, ExploreOptions(
                workers=2, store=InterruptingStore(store, 2),
                campaign_id="par", **EXPLORE_KWARGS))
        resumed = explore(SPEC, ExploreOptions(
            workers=1, store=store, campaign_id="par", **EXPLORE_KWARGS))
        assert resumed.fingerprint() == baseline.fingerprint()


class SaveCountingStore:
    """Proxy that records how many rows each classification-tier save was
    handed."""

    def __init__(self, inner):
        self._inner = inner
        self.classification_batches = []

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name != "save_classifications":
            return attr

        def save_classifications(entries):
            self.classification_batches.append(len(entries))
            return attr(entries)

        return save_classifications


def _distinct_histories(result):
    return {record.history for level in result.levels.values()
            for record in level.records}


class TestTiersAreSavedWithTheChunk:
    """Whatever a chunk newly classified is saved with that chunk — serial
    and parallel alike — so the tier holds exactly what the committed chunks
    learned, whichever process learned it."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_classification_rows_equal_distinct_histories(self, store, workers,
                                                          tmp_path):
        result = explore(SPEC, ExploreOptions(
            workers=workers, store=store, campaign_id="c1", **EXPLORE_KWARGS))
        assert set(store.load_classifications()) == _distinct_histories(result)
        # The memo belongs to the call, not to the process: a second explore()
        # here has everything to learn again, so a new store is filled too.
        another = SqliteStore(":memory:" if store.path == ":memory:"
                              else tmp_path / "another.sqlite")
        try:
            again = explore(SPEC, ExploreOptions(
                workers=workers, store=another, campaign_id="c1", **EXPLORE_KWARGS))
            assert again.fingerprint() == result.fingerprint()
            assert set(another.load_classifications()) == _distinct_histories(result)
        finally:
            another.close()

    def test_serial_run_saves_each_classification_exactly_once(self, store):
        counting = SaveCountingStore(store)
        result = explore(SPEC, ExploreOptions(
            store=counting, campaign_id="c1", **EXPLORE_KWARGS))
        assert sum(counting.classification_batches) == \
            len(_distinct_histories(result)) == len(store.load_classifications())

    def test_warm_store_is_preloaded_once_and_nothing_is_saved_again(self, store):
        first = explore(SPEC, ExploreOptions(
            store=store, campaign_id="c1", **EXPLORE_KWARGS))
        stored = len(store.load_classifications())
        counting = SaveCountingStore(store)
        second = explore(SPEC, ExploreOptions(
            store=counting, campaign_id="c2", **EXPLORE_KWARGS))
        assert second.fingerprint() == first.fingerprint()
        assert counting.classification_batches == []
        preloaded = [level.cache_stats.get("store_classifications_preloaded", 0)
                     for level in second.levels.values()]
        assert preloaded == [stored] + [0] * (len(preloaded) - 1)
        for level in second.levels.values():
            stats = level.cache_stats
            assert (stats["hits"], stats["misses"]) == (0, 0)
            if level.reused_from is None:
                assert stats["shared_hits"] == len(level.records)
            else:
                # The same machine as an earlier level: nothing classified.
                assert stats["shared_hits"] == 0
                assert level.records == second.levels[level.reused_from].records

    @pytest.mark.parametrize("workers", [1, 2])
    def test_killed_run_leaves_no_committed_chunk_without_its_classifications(
            self, store, workers):
        with pytest.raises(Interrupted):
            explore(SPEC, ExploreOptions(
                workers=workers, store=InterruptingStore(store, 3),
                campaign_id="c1", **EXPLORE_KWARGS))
        scope = next(iter(store.scope_progress("c1")))
        committed = {record.history
                     for chunk in range(store.cursor("c1", scope))
                     for record in store.load_chunk("c1", scope, chunk)}
        assert committed and committed <= set(store.load_classifications())
        resumed = explore(SPEC, ExploreOptions(
            workers=workers, store=store, campaign_id="c1", **EXPLORE_KWARGS))
        assert set(store.load_classifications()) == _distinct_histories(resumed)
