"""The campaign store's error types and the rows its queries answer with.

The store itself is :class:`~repro.persist.sqlite_store.SqliteStore` — one
SQLite file per store, or ``SqliteStore(":memory:")`` for throwaway and
in-process runs.  It is the durability boundary of the explorer and
persists four kinds of state:

* **campaigns** — one row per campaign: the identifier plus the canonical
  config (workload spec, mode, budget, seed, chunk size, and
  ``"reduction": "none"``) that a resume must match exactly;
* **progress cursors** — per scope (isolation level), the contiguous
  high-water mark of durably committed chunks.  ``commit_chunk`` is atomic:
  either the chunk's records *and* the advanced cursor land together or
  neither does, so a SIGKILL at any point leaves a resumable store;
* **schedule records** — every realized :class:`ScheduleRecord`, row per
  schedule, queryable by the SQL analytics layer and reloadable chunk by
  chunk for byte-identical resume (a record carries its history's
  classification; the store keeps no other);
* **derived artifacts** — coverage cells and witness conflict edges,
  written once a campaign completes.

Rows are encoded and decoded by :mod:`repro.persist.records`.  Only the
parent process uses a store — workers never touch it, which keeps it free
of cross-process locking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from ..explorer.schedules import Interleaving

__all__ = [
    "StoreError",
    "CampaignConfigMismatch",
    "StaleLeaseError",
    "CampaignInfo",
    "ScopeProgress",
    "AnomalyFrequencyRow",
    "StoredWitness",
    "ConflictEdgeRow",
]


class StoreError(RuntimeError):
    """A campaign-store invariant was violated (bad cursor, unknown campaign)
    or the store file is not one this build can read (not a database, a
    future schema, a corrupt page or row)."""


class CampaignConfigMismatch(StoreError):
    """Resuming a campaign with a config that differs from the stored one."""


class StaleLeaseError(StoreError):
    """A fenced commit carried a lease token that is no longer current.

    Raised *inside* the commit transaction, before any row lands: the zombie
    worker's chunk result is discarded whole, never half-applied.
    """


@dataclass(frozen=True)
class CampaignInfo:
    """One campaign's identity and canonical configuration."""

    campaign_id: str
    config: Mapping[str, Any]


@dataclass(frozen=True)
class ScopeProgress:
    """Durable progress of one scope (isolation level) within a campaign."""

    scope: str
    cursor: int          #: chunks [0, cursor) are durably committed
    records: int         #: schedule records committed so far
    complete: bool
    total_chunks: Optional[int]
    stats: Mapping[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class AnomalyFrequencyRow:
    """Anomaly frequency in one chunk of the stream, with the running total.

    "Over time" means over *logical* time — the chunk index of the
    deterministic schedule stream — so the series is reproducible and
    independent of wall clock, worker count, and interruptions.
    """

    chunk_index: int
    schedules: int
    witnessed: int
    cumulative: int


@dataclass(frozen=True)
class StoredWitness:
    """The earliest stored witness of one (scope, phenomenon) cell."""

    schedule_index: int
    interleaving: Interleaving
    history: str


@dataclass(frozen=True)
class ConflictEdgeRow:
    """Aggregated witness conflict edges of one kind under one scope."""

    scope: str
    kind: str
    count: int
    rank: int            #: densest edge kind within the scope ranks 1
