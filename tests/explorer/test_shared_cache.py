"""The cross-process classification cache: append-only log, monotonic freshness.

Regression coverage for the staleness bug in the earlier dict-based design:
the per-process snapshot memo considered itself fresh whenever ``len(proxy)``
was unchanged, so a concurrent worker that overwrote existing keys (same
size, new values) was never re-pulled.  The log design keys freshness on the
number of published batches — which grows monotonically with every publish —
so a publish can never be invisible to a later pull.
"""

from __future__ import annotations

import multiprocessing

from repro.core.isolation import IsolationLevelName
from repro.explorer import ExploreOptions, ProgramSetSpec, explore
from repro.explorer.memo import HistoryClassification
from repro.explorer.worker import (
    _SHARED_LOG_STATE,
    _publish_shared,
    _shared_snapshot,
)


def classification(tag: str) -> HistoryClassification:
    return HistoryClassification(shorthand=tag, serializable=True, phenomena=(),
                                 committed=(1,), aborted=())


class _TokenList(list):
    """A plain list masquerading as a manager proxy (stable token, no IPC)."""

    def __init__(self, token: str):
        super().__init__()
        self._token = token


class TestAppendOnlyLogProtocol:
    def test_same_size_republish_is_picked_up(self):
        """The historical bug: an overwrite that kept the entry count equal."""
        log = _TokenList("test-log-republish")
        _publish_shared(log, {"h1": classification("first")})
        first = _shared_snapshot(log)
        assert first["h1"].shorthand == "first"
        # A concurrent worker publishes a batch with the same key set — the
        # merged entry count does not change, only the batch count does.
        _publish_shared(log, {"h1": classification("second")})
        second = _shared_snapshot(log)
        assert second["h1"].shorthand == "second"

    def test_incremental_pull_consumes_each_batch_once(self):
        log = _TokenList("test-log-incremental")
        _publish_shared(log, {"a": classification("a")})
        assert set(_shared_snapshot(log)) == {"a"}
        _publish_shared(log, {"b": classification("b")})
        _publish_shared(log, {"c": classification("c")})
        merged = _shared_snapshot(log)
        assert set(merged) == {"a", "b", "c"}
        consumed, _, _ = _SHARED_LOG_STATE[str(log._token)]
        assert consumed == 3
        # A pull with nothing new leaves the cursor and the merge unchanged.
        again = _shared_snapshot(log)
        assert again == merged
        assert _SHARED_LOG_STATE[str(log._token)][0] == 3

    def test_plain_list_without_token_still_works(self):
        log = []
        _publish_shared(log, {"x": classification("x")})
        assert set(_shared_snapshot(log)) == {"x"}


class TestSharedCacheEndToEnd:
    def test_shared_log_changes_no_records(self):
        spec = ProgramSetSpec.make("contention", transactions=3, items=3,
                                   hot_items=2, operations_per_transaction=2)
        with_log = explore(spec, ExploreOptions(
            levels=(IsolationLevelName.READ_COMMITTED,),
            mode="sample", max_schedules=48, seed=6, workers=2,
            chunk_size=8, shared_cache=True))
        without = explore(spec, ExploreOptions(
            levels=(IsolationLevelName.READ_COMMITTED,),
            mode="sample", max_schedules=48, seed=6, workers=2,
            chunk_size=8, shared_cache=False))
        assert with_log.fingerprint() == without.fingerprint()

    def test_manager_list_proxy_round_trips(self):
        """The real proxy type: slice reads and appends behave like the fake."""
        with multiprocessing.Manager() as manager:
            log = manager.list()
            _publish_shared(log, {"h": classification("one")})
            snapshot = _shared_snapshot(log)
            assert snapshot["h"].shorthand == "one"
            _publish_shared(log, {"h": classification("two")})
            assert _shared_snapshot(log)["h"].shorthand == "two"


class TestSharedLogCap:
    """The size cap on the append-only logs: publishes are refused, not lost
    work — a dropped batch only means other processes re-derive those entries.
    """

    def test_publish_below_cap_succeeds(self, monkeypatch):
        monkeypatch.setenv("EXPLORER_SHARED_LOG_CAP", "3")
        log = []
        assert _publish_shared(log, {"a": classification("a"),
                                     "b": classification("b")})
        assert len(log) == 1

    def test_publish_over_cap_is_refused(self, monkeypatch):
        monkeypatch.setenv("EXPLORER_SHARED_LOG_CAP", "3")
        log = []
        assert _publish_shared(log, {"a": classification("a"),
                                     "b": classification("b")})
        refused = {"c": classification("c"), "d": classification("d")}
        assert not _publish_shared(log, refused)
        assert len(log) == 1  # nothing appended
        # a batch that still fits is accepted after a refusal
        assert _publish_shared(log, {"e": classification("e")})

    def test_cap_disabled_with_minus_one(self, monkeypatch):
        monkeypatch.setenv("EXPLORER_SHARED_LOG_CAP", "-1")
        log = []
        for index in range(50):
            batch = {f"h{index}": classification(str(index))}
            assert _publish_shared(log, batch)
        assert len(log) == 50

    def test_eviction_is_surfaced_in_cache_stats(self, monkeypatch):
        """A capped run reports dropped publishes instead of hiding them."""
        monkeypatch.setenv("EXPLORER_SHARED_LOG_CAP", "1")
        spec = ProgramSetSpec.make("contention", transactions=3, items=3,
                                   hot_items=2, operations_per_transaction=2)
        result = explore(spec, ExploreOptions(
            levels=(IsolationLevelName.READ_COMMITTED,),
            mode="sample", max_schedules=48, seed=6, workers=2,
            chunk_size=8, shared_cache=True))
        stats = result.levels[IsolationLevelName.READ_COMMITTED].cache_stats
        assert stats.get("shared_evicted", 0) > 0

    def test_capped_run_changes_no_records(self, monkeypatch):
        """Dropping publishes is sound: the log is a cache, never the truth."""
        spec = ProgramSetSpec.make("contention", transactions=3, items=3,
                                   hot_items=2, operations_per_transaction=2)
        kwargs = dict(levels=(IsolationLevelName.READ_COMMITTED,),
                      mode="sample", max_schedules=48, seed=6, workers=2,
                      chunk_size=8, shared_cache=True)
        monkeypatch.setenv("EXPLORER_SHARED_LOG_CAP", "1")
        capped = explore(spec, ExploreOptions(**kwargs))
        monkeypatch.delenv("EXPLORER_SHARED_LOG_CAP")
        uncapped = explore(spec, ExploreOptions(**kwargs))
        assert capped.fingerprint() == uncapped.fingerprint()
