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


class DyingAtCompletion:
    """Proxy that dies in the ``fail_at``-th ``mark_scope_complete``, before
    it writes: every chunk of that scope is durable, its completion is not."""

    def __init__(self, inner, fail_at: int):
        self._inner = inner
        self._left = fail_at

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name != "mark_scope_complete":
            return attr

        def mark_scope_complete(*args, **kwargs):
            self._left -= 1
            if self._left <= 0:
                raise Interrupted()
            return attr(*args, **kwargs)

        return mark_scope_complete


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


class TestStoreWrites:
    """A store-attached run writes records and cursors, nothing else."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_write_transaction_per_chunk(self, store, workers):
        result = explore(SPEC, ExploreOptions(
            workers=workers, store=store, campaign_id="c1", **EXPLORE_KWARGS))
        levels = len(result.levels)
        chunks = -(-len(result.space) // EXPLORE_KWARGS["chunk_size"])
        assert (levels, len(result.space), chunks) == (5, 20, 3)
        # The campaign row, then per level one transaction per chunk (a
        # level reused from an earlier one commits its chunks too) and one
        # that marks the scope complete: 1 + 5 * (3 + 1).
        assert store.stats()["write_transactions"] == 1 + levels * (chunks + 1) == 21
        # A re-run executes nothing and writes nothing: every scope is
        # already recorded complete.
        explore(SPEC, ExploreOptions(
            workers=workers, store=store, campaign_id="c1", **EXPLORE_KWARGS))
        assert store.stats()["write_transactions"] == 21

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_run_killed_marking_its_last_scope_complete_resumes(
            self, store, workers, baseline):
        with pytest.raises(Interrupted):
            explore(SPEC, ExploreOptions(
                workers=workers, store=DyingAtCompletion(store, 5),
                campaign_id="c1", **EXPLORE_KWARGS))
        progress = store.scope_progress("c1")
        chunks = -(-len(baseline.space) // EXPLORE_KWARGS["chunk_size"])
        assert sorted(state.cursor for state in progress.values()) == [chunks] * 5
        incomplete = [scope for scope, state in progress.items()
                      if not state.complete]
        assert len(incomplete) == 1
        writes = store.stats()["write_transactions"]
        resumed = explore(SPEC, ExploreOptions(
            workers=workers, store=store, campaign_id="c1", **EXPLORE_KWARGS))
        assert resumed.fingerprint() == baseline.fingerprint()
        assert resumed.executed_schedules() == 0
        # The one write the resume makes: the missing completion.
        assert store.stats()["write_transactions"] == writes + 1
        assert all(state.complete
                   for state in store.scope_progress("c1").values())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_killed_run_resumes_to_the_uninterrupted_result(
            self, store, workers, baseline):
        with pytest.raises(Interrupted):
            explore(SPEC, ExploreOptions(
                workers=workers, store=InterruptingStore(store, 3),
                campaign_id="c1", **EXPLORE_KWARGS))
        # Three chunks are durable, each equal to the uninterrupted run's.
        unit = EXPLORE_KWARGS["chunk_size"]
        durable = [(scope, chunk) for scope in store.scope_progress("c1")
                   for chunk in range(store.cursor("c1", scope))]
        assert len(durable) == 3
        by_scope = {level.value: exploration.records
                    for level, exploration in baseline.levels.items()}
        for scope, chunk in durable:
            assert store.load_chunk("c1", scope, chunk) == \
                by_scope[scope][chunk * unit:(chunk + 1) * unit]
        resumed = explore(SPEC, ExploreOptions(
            workers=workers, store=store, campaign_id="c1", **EXPLORE_KWARGS))
        assert resumed.fingerprint() == baseline.fingerprint()
        assert (coverage_report_from_store(store, "c1").render()
                == build_coverage_report(baseline).render())
