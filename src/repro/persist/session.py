"""Parent-side glue between ``explore()`` and a :class:`SqliteStore`.

A :class:`CampaignSession` owns one campaign of one ``explore()`` call: it
derives the canonical campaign config from the explore inputs, opens (or
validates) the campaign row, and hands each isolation level a
:class:`LevelPersistence` that the level loop drives:

* ``cursor`` — how many chunks of this scope are already durable; the level
  loop skips executing those and loads their records instead;
* ``commit_chunk`` — one atomic store write of the chunk's records +
  cursor advance;
* ``finish`` — mark the scope complete, unless the store already records it so.

Everything here runs in the parent process only.  Workers never see the
store: the parent commits chunks as their results arrive in chunk order,
which is what makes the cursor a contiguous high-water mark and a SIGKILL
at any moment resumable.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..core.isolation import IsolationLevelName
from ..explorer.worker import ScheduleRecord
from ..workloads.program_sets import ProgramSetSpec
from .records import default_campaign_id
from .sqlite_store import SqliteStore

__all__ = ["CampaignSession", "LevelPersistence", "campaign_config"]


def campaign_config(spec: ProgramSetSpec, mode: str, max_schedules: int,
                    seed: int, chunk_size: int,
                    reduction: str = "none") -> Dict[str, Any]:
    """The canonical campaign config: every input the record stream depends on.

    Deliberately excludes workers — it changes wall-clock behaviour only,
    never records (the explorer's determinism contract), so a campaign may
    be resumed with a different worker count.  ``chunk_size`` *is*
    included: it fixes the chunk boundaries the progress cursor counts.
    ``"reduction": "none"`` stays in the config, so derived campaign ids
    are unchanged; a stored campaign with any other value (an earlier build's, which executed one schedule per
    commutation-equivalence class) never matches, and resuming it raises
    :class:`~repro.persist.store.CampaignConfigMismatch`.  Likewise a
    campaign a pre-v4 build may have written through the retired
    schedule-outcome memo: the store's v3 → v4 migration tags its stored
    config with one more key.
    """
    if reduction != "none":
        raise ValueError(f"reduction must be 'none', got {reduction!r}")
    return {
        "spec_name": spec.name,
        "spec_params": [[key, value] for key, value in spec.params],
        "mode": mode,
        "max_schedules": max_schedules,
        "seed": seed,
        "reduction": reduction,
        "chunk_size": chunk_size,
    }


class LevelPersistence:
    """One scope's resume cursor and chunk commits."""

    def __init__(self, session: "CampaignSession", level: IsolationLevelName):
        self.session = session
        self.scope = level.value
        progress = session.store.scope_progress(session.campaign_id).get(self.scope)
        self.cursor = progress.cursor if progress is not None else 0
        self.complete = progress is not None and progress.complete
        self.stats: Dict[str, int] = {}
        self._committed = 0

    # -- resume ------------------------------------------------------------------------

    def load_chunk(self, chunk_index: int) -> Tuple[ScheduleRecord, ...]:
        records = self.session.store.load_chunk(
            self.session.campaign_id, self.scope, chunk_index)
        self.stats["store_chunks_loaded"] = self.stats.get("store_chunks_loaded", 0) + 1
        self.stats["store_records_loaded"] = (
            self.stats.get("store_records_loaded", 0) + len(records))
        return records

    # -- commits -----------------------------------------------------------------------

    def commit_chunk(self, chunk_index: int,
                     records: Sequence[ScheduleRecord]) -> None:
        """Commit the chunk's records and advance the cursor, atomically."""
        self.session.store.commit_chunk(self.session.campaign_id, self.scope,
                                        chunk_index, records)
        self._committed += 1
        self.stats["store_chunks_committed"] = self._committed
        self.stats["store_records_committed"] = (
            self.stats.get("store_records_committed", 0) + len(records))

    def finish(self, total_chunks: int) -> None:
        """Mark the scope durably complete (a write only the first time)."""
        if self.complete:
            return
        self.session.store.mark_scope_complete(
            self.session.campaign_id, self.scope, total_chunks, self.stats)
        self.complete = True


class CampaignSession:
    """One campaign of one ``explore()`` call against one store."""

    def __init__(self, store: SqliteStore, config: Mapping[str, Any],
                 campaign_id: Optional[str] = None):
        self.store = store
        self.config = dict(config)
        self.campaign_id = campaign_id or default_campaign_id(self.config)
        store.open_campaign(self.campaign_id, self.config)

    def level(self, level: IsolationLevelName) -> LevelPersistence:
        return LevelPersistence(self, level)
