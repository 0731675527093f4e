"""``explore(workers=N)`` hands workers whole levels, in batches of chunks.

However the executed levels split into batches — more workers than levels,
fewer, one batch per level or many — the records are the serial run's, with
and without a campaign store, and across a killed and resumed parallel run.
One test drives the pool through the ledger's timed stand-in for the
``multiprocessing`` module, so the pool contract the ledger relies on
(``Pool(processes=...)`` and a two-argument ``imap``) is held here too.
An error in the parent leaves the pool only once every batch it was fed is
back: terminating a worker mid-way through sending a result can hang the
pool's exit for good.
"""

from __future__ import annotations

import multiprocessing
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.explorer.explorer as explorer_module
from repro.analysis.matrix import TABLE_4_LEVELS
from repro.core.isolation import IsolationLevelName as L
from repro.explorer import ExploreOptions, ProgramSetSpec, explore
from repro.persist import SqliteStore

from ..persist.test_resume import InterruptingStore, Interrupted

SPEC = ProgramSetSpec.make("contention")
SAMPLE = dict(mode="sample", max_schedules=120, seed=5, chunk_size=8)
#: One executed level (fewer than any pool's workers), and Table 4's six
#: levels, four of them executed (more than two or three workers).
LEVEL_SETS = {"one": (L.READ_COMMITTED,), "table4": TABLE_4_LEVELS}


@pytest.fixture(scope="module")
def serial():
    return {name: explore(SPEC, ExploreOptions(levels=levels, **SAMPLE))
            for name, levels in LEVEL_SETS.items()}


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("levels", LEVEL_SETS)
@pytest.mark.parametrize("with_store", [False, True], ids=["plain", "store"])
def test_fingerprint_is_independent_of_the_batch_shape(serial, workers, levels,
                                                       with_store):
    store = SqliteStore(":memory:") if with_store else None
    try:
        result = explore(SPEC, ExploreOptions(
            levels=LEVEL_SETS[levels], workers=workers, store=store, **SAMPLE))
    finally:
        if store is not None:
            store.close()
    assert result.fingerprint() == serial[levels].fingerprint()
    assert result.executed_schedules() == result.total_schedules()
    assert {level: exploration.reused_from
            for level, exploration in result.levels.items()} == \
        {level: exploration.reused_from
         for level, exploration in serial[levels].levels.items()}


def test_levels_split_into_many_capped_batches(serial, monkeypatch):
    # 15 chunks of 8 per level, at most 3 chunks per batch: five batches each.
    monkeypatch.setattr(explorer_module, "BATCH_SCHEDULES", 24)
    result = explore(SPEC, ExploreOptions(
        levels=TABLE_4_LEVELS, workers=2, **SAMPLE))
    assert result.fingerprint() == serial["table4"].fingerprint()


@pytest.mark.parametrize("fail_after", [0, 2, 17, 40])
def test_killed_parallel_run_resumes_byte_identical(serial, fail_after):
    store = SqliteStore(":memory:")
    try:
        with pytest.raises(Interrupted):
            explore(SPEC, ExploreOptions(
                levels=TABLE_4_LEVELS, workers=2,
                store=InterruptingStore(store, fail_after), **SAMPLE))
        resumed = explore(SPEC, ExploreOptions(
            levels=TABLE_4_LEVELS, workers=2, store=store, **SAMPLE))
        again = explore(SPEC, ExploreOptions(
            levels=TABLE_4_LEVELS, workers=2, store=store, **SAMPLE))
    finally:
        store.close()
    assert resumed.fingerprint() == serial["table4"].fingerprint()
    assert resumed.executed_schedules() == \
        resumed.total_schedules() - 8 * fail_after
    assert again.executed_schedules() == 0
    assert again.fingerprint() == resumed.fingerprint()


def test_pool_runs_through_the_ledger_timed_stand_in(serial, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[2]))
    from benchmarks.ledger.children import _TimedMultiprocessing
    from benchmarks.ledger.trace import Recorder

    recorder = Recorder("level-batches")
    # Installed the way the ledger's traced explore child installs it.
    monkeypatch.setattr(explorer_module, "multiprocessing",
                        _TimedMultiprocessing(recorder))
    result = explore(SPEC, ExploreOptions(
        levels=TABLE_4_LEVELS, workers=2, **SAMPLE))
    assert result.fingerprint() == serial["table4"].fingerprint()
    totals = recorder.totals()
    # One wait per batch: four executed levels, one batch each.
    assert totals["explorer.explorer.ipc_wait"][1] == 4
    assert totals["explorer.explorer.pool_spinup"][1] == 2


class _CountingPool:
    """A real pool that counts the batches it is fed and the results it returns."""

    def __init__(self, processes):
        self._pool = multiprocessing.Pool(processes=processes)
        self.fed = self.returned = 0
        self.at_exit = None

    def __enter__(self):
        self._pool.__enter__()
        return self

    def __exit__(self, *exc):
        self.at_exit = (self.fed, self.returned)
        return self._pool.__exit__(*exc)

    def _feed(self, tasks):
        for task in tasks:  # on the pool's feeder thread
            self.fed += 1
            yield task

    def imap(self, func, tasks):
        for result in self._pool.imap(func, self._feed(tasks)):
            self.returned += 1
            yield result


@pytest.mark.parametrize("fail_after", [0, 17])
def test_an_interrupted_pool_is_left_once_its_batches_are_back(monkeypatch,
                                                               fail_after):
    pools = []

    def pool(processes):
        pools.append(_CountingPool(processes))
        return pools[-1]

    monkeypatch.setattr(explorer_module, "multiprocessing",
                        SimpleNamespace(Pool=pool))
    store = SqliteStore(":memory:")
    try:
        with pytest.raises(Interrupted):
            explore(SPEC, ExploreOptions(
                levels=TABLE_4_LEVELS, workers=2,
                store=InterruptingStore(store, fail_after), **SAMPLE))
    finally:
        store.close()
    [counting] = pools
    fed, returned = counting.at_exit
    assert fed == returned > 0


def test_waiting_out_a_pool_skips_failed_batches():
    class Results:
        """Like ``imap``'s iterator: a failed task raises, the next goes on."""

        def __init__(self):
            self.left = [1, ValueError("task failed"), 3]

        def __next__(self):
            if not self.left:
                raise StopIteration
            item = self.left.pop(0)
            if isinstance(item, Exception):
                raise item
            return item

    results = Results()
    explorer_module._wait_out(results)
    assert results.left == []
