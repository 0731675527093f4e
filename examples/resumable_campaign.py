"""Persistent campaigns: survive a kill, skip finished work, query anomalies.

An ``explore()`` call with a :class:`~repro.persist.SqliteStore` attached is
a *campaign*: every chunk of records is committed atomically as it arrives,
so the process can die at any moment and a re-run of the same call loads the
durable prefix and executes only the remainder — producing a result
byte-identical to an uninterrupted run.  This walkthrough stages exactly
that (a simulated mid-campaign crash), then shows that a finished campaign
re-runs without executing, and the SQL anomaly analytics the stored rows
make possible.

Run with:  PYTHONPATH=src python examples/resumable_campaign.py
"""

from __future__ import annotations

import os
import tempfile

from repro.analysis.coverage import build_coverage_report, coverage_report_from_store
from repro.explorer import ExploreOptions, ProgramSetSpec, explore
from repro.persist import SqliteStore
from repro.persist.analytics import campaign_summary, persist_result


class SimulatedCrash(RuntimeError):
    """Stands in for a SIGKILL landing mid-campaign."""


class CrashingStore:
    """Store proxy that dies after N chunk commits have gone durable."""

    def __init__(self, inner, survive_commits):
        self._inner = inner
        self._left = survive_commits

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name != "commit_chunk":
            return attr

        def commit_chunk(*args, **kwargs):
            if self._left <= 0:
                raise SimulatedCrash()
            self._left -= 1
            return attr(*args, **kwargs)

        return commit_chunk


def main() -> None:
    path = os.path.join(tempfile.mkdtemp(), "campaigns.sqlite")
    spec = ProgramSetSpec.make("increments")
    base = ExploreOptions(max_schedules=200, chunk_size=8)

    # 1. The control: an ordinary, store-less run to compare against.
    control = explore(spec, base)

    # 2. A campaign that "crashes" after three chunk commits.
    store = SqliteStore(path)
    try:
        explore(spec, base.replace(store=CrashingStore(store, 3),
                                   campaign_id="demo"))
    except SimulatedCrash:
        print("campaign killed mid-stream; 3 chunks are durable\n")

    # 3. Resume: same call, same store.  The durable prefix is loaded, the
    #    remainder executed; the result is byte-identical to the control.
    resumed = explore(spec, base.replace(store=store, campaign_id="demo"))
    print(f"resume matches uninterrupted run: "
          f"{resumed.fingerprint() == control.fingerprint()}")
    stats = next(iter(resumed.levels.values())).cache_stats
    print(f"first level reused {stats.get('store_chunks_loaded', 0)} stored "
          f"chunks, committed {stats.get('store_chunks_committed', 0)} new\n")

    # 4. A re-run of the completed campaign executes nothing.
    rerun = explore(spec, base.replace(store=store, campaign_id="demo"))
    print(f"re-run of the finished campaign executed "
          f"{rerun.executed_schedules()} schedules\n")

    # 5. The stored rows rebuild the coverage report without executing —
    #    byte-equal to the live one.
    live = build_coverage_report(control).render()
    stored = coverage_report_from_store(store, "demo").render()
    print(f"store-rebuilt coverage report is byte-equal: {stored == live}\n")

    # 6. SQL analytics: persist the derived coverage cells and witness edges,
    #    then query anomaly frequency over logical time, first witnesses,
    #    and ranked conflict-edge kinds.
    persist_result(store, "demo", rerun)
    print(campaign_summary(store, "demo"))
    store.close()

    print(f"\nthe campaign file is plain SQLite — inspect it with any client:")
    print(f"  sqlite3 {path} 'SELECT scope, COUNT(*) FROM records GROUP BY scope'")


if __name__ == "__main__":
    main()
