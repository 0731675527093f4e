"""Table 4 as a resumable campaign: per-cell commits, skips, and rebuilds."""

from __future__ import annotations

import pytest

from repro.analysis.matrix import (
    TABLE_4_LEVELS,
    compute_table4_explored,
    table4_explored_from_store,
)
from repro.persist import CampaignConfigMismatch
from repro.persist.store import StoreError
from repro.workloads.scenarios import ALL_SCENARIOS

LEVELS = TABLE_4_LEVELS[:2]
SCENARIOS = ALL_SCENARIOS[:3]
KWARGS = dict(max_schedules=300)


class CellCounter:
    """Store proxy counting cell writes (how many cells actually executed)."""

    def __init__(self, inner):
        self._inner = inner
        self.saved = 0

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name != "save_table4_cell":
            return attr

        def save_table4_cell(*args, **kwargs):
            self.saved += 1
            return attr(*args, **kwargs)

        return save_table4_cell


class Interrupted(RuntimeError):
    pass


class InterruptingStore:
    def __init__(self, inner, fail_after: int):
        self._inner = inner
        self._left = fail_after

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name != "save_table4_cell":
            return attr

        def save_table4_cell(*args, **kwargs):
            if self._left <= 0:
                raise Interrupted()
            self._left -= 1
            return attr(*args, **kwargs)

        return save_table4_cell


def test_store_backed_matrix_matches_plain(store):
    plain = compute_table4_explored(LEVELS, SCENARIOS, **KWARGS)
    stored = compute_table4_explored(LEVELS, SCENARIOS, store=store, **KWARGS)
    assert stored == plain


def test_rerun_executes_no_cells(store):
    compute_table4_explored(LEVELS, SCENARIOS, store=store, **KWARGS)
    counter = CellCounter(store)
    rerun = compute_table4_explored(LEVELS, SCENARIOS, store=counter, **KWARGS)
    assert counter.saved == 0
    assert rerun == compute_table4_explored(LEVELS, SCENARIOS, **KWARGS)


def test_interrupted_matrix_resumes_with_only_missing_cells(store):
    with pytest.raises(Interrupted):
        compute_table4_explored(LEVELS, SCENARIOS,
                                store=InterruptingStore(store, 2), **KWARGS)
    counter = CellCounter(store)
    resumed = compute_table4_explored(LEVELS, SCENARIOS, store=counter,
                                      **KWARGS)
    assert counter.saved == len(LEVELS) * len(SCENARIOS) - 2
    assert resumed == compute_table4_explored(LEVELS, SCENARIOS, **KWARGS)


def test_rebuild_from_store(store):
    computed = compute_table4_explored(LEVELS, SCENARIOS, store=store,
                                       campaign_id="t4", **KWARGS)
    assert table4_explored_from_store(store, "t4") == computed


def test_rebuild_of_unfinished_campaign_is_an_error(store):
    with pytest.raises(Interrupted):
        compute_table4_explored(LEVELS, SCENARIOS, campaign_id="t4",
                                store=InterruptingStore(store, 1), **KWARGS)
    with pytest.raises(StoreError):
        table4_explored_from_store(store, "t4")


def test_config_mismatch_is_refused(store):
    compute_table4_explored(LEVELS, SCENARIOS, campaign_id="t4", store=store,
                            **KWARGS)
    with pytest.raises(CampaignConfigMismatch):
        compute_table4_explored(LEVELS, SCENARIOS, campaign_id="t4",
                                store=store, max_schedules=301)


class TestUnprunedCampaigns:
    """Campaigns stored unpruned, the default before pruning became it."""

    @pytest.fixture
    def unfinished(self, store) -> str:
        with pytest.raises(Interrupted):
            compute_table4_explored(LEVELS, SCENARIOS, static_pruning=False,
                                    store=InterruptingStore(store, 2), **KWARGS)
        (campaign,) = store.list_campaigns()
        return campaign.campaign_id

    @staticmethod
    def unpruned():
        return compute_table4_explored(LEVELS, SCENARIOS, static_pruning=False,
                                       **KWARGS)

    def test_explicit_unpruned_resume_finishes_unchanged(self, store,
                                                         unfinished):
        resumed = compute_table4_explored(LEVELS, SCENARIOS, store=store,
                                          campaign_id=unfinished,
                                          static_pruning=False, **KWARGS)
        unpruned = self.unpruned()
        assert resumed == unpruned
        assert resumed.render() == unpruned.render()
        assert table4_explored_from_store(store, unfinished) == resumed

    def test_default_call_opens_a_second_pruned_campaign(self, store,
                                                         unfinished):
        pruned = compute_table4_explored(LEVELS, SCENARIOS, store=store,
                                         **KWARGS)
        assert pruned.total_pruned_variants() > 0
        assert pruned.possibilities() == self.unpruned().possibilities()
        campaigns = {info.campaign_id for info in store.list_campaigns()}
        assert len(campaigns) == 2 and unfinished in campaigns
        assert len(store.load_table4_cells(unfinished)) == 2
        compute_table4_explored(LEVELS, SCENARIOS, store=store,
                                campaign_id=unfinished, static_pruning=False,
                                **KWARGS)
        assert table4_explored_from_store(store, unfinished) == self.unpruned()

    def test_explicit_id_with_the_pruned_default_is_refused(self, store,
                                                            unfinished):
        with pytest.raises(CampaignConfigMismatch):
            compute_table4_explored(LEVELS, SCENARIOS, store=store,
                                    campaign_id=unfinished, **KWARGS)


def test_campaign_id_requires_a_store():
    with pytest.raises(ValueError):
        compute_table4_explored(LEVELS, SCENARIOS, campaign_id="t4", **KWARGS)


def test_rebuild_rejects_exploration_campaigns(store):
    from repro.explorer import ExploreOptions, ProgramSetSpec, explore
    explore(ProgramSetSpec.make("increments"), ExploreOptions(
        max_schedules=60, store=store, campaign_id="exp"))
    with pytest.raises(StoreError):
        table4_explored_from_store(store, "exp")
