"""The pluggable campaign-store interface and its in-memory reference backend.

A :class:`CampaignStore` is the durability boundary of the explorer (modeled
on GRR's ``data_store.py``: one abstract interface, interchangeable backends
selected at call time).  It persists five kinds of state:

* **campaigns** — one row per campaign: the identifier plus the canonical
  config (workload spec, mode, budget, seed, reduction, chunk size) that a
  resume must match exactly;
* **progress cursors** — per scope (isolation level), the contiguous
  high-water mark of durably committed chunks.  ``commit_chunk`` is atomic:
  either the chunk's records *and* the advanced cursor land together or
  neither does, so a SIGKILL at any point leaves a resumable store;
* **schedule records** — every realized :class:`ScheduleRecord`, row per
  schedule, queryable by the SQL analytics layer and reloadable chunk by
  chunk for byte-identical resume;
* **dedupe tiers** — memoized canonical-form outcomes (keyed by workload)
  and history classifications (keyed by shorthand, shared across
  workloads), the cross-run extension of the in-process memo/shared-cache;
* **derived artifacts** — coverage cells, witness conflict edges, and
  explored Table 4 cells, written once a campaign completes.

Both backends store *encoded rows* (see :mod:`repro.persist.records`) and
decode on read, so serialization is exercised identically and the two
backends are interchangeable in the kill-and-resume determinism tests.
Backends must be usable from the parent process only — workers never touch
the store, which keeps the interface free of cross-process locking.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..explorer.memo import HistoryClassification, ScheduleOutcome
from ..explorer.schedules import Interleaving
from ..explorer.worker import ScheduleRecord
from . import records as rec

__all__ = [
    "StoreError",
    "CampaignConfigMismatch",
    "StaleLeaseError",
    "CampaignInfo",
    "ScopeProgress",
    "AnomalyFrequencyRow",
    "StoredWitness",
    "ConflictEdgeRow",
    "LeaseRecord",
    "CampaignStore",
    "InMemoryStore",
]

# Re-exported so lease users need not reach into the codec module.
LeaseRecord = rec.LeaseRecord


class StoreError(RuntimeError):
    """A campaign-store invariant was violated (bad cursor, unknown campaign)."""


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


class CampaignStore(abc.ABC):
    """Abstract campaign persistence: progress, records, dedupe, analytics.

    Implementations guarantee: (1) ``commit_chunk`` is atomic with the cursor
    advance; (2) chunks commit contiguously (``chunk_index`` must equal the
    current cursor); (3) reads decode to objects equal to what was written
    (:mod:`repro.persist.records` round-trip); (4) analytics answers are
    identical across backends for identical contents.
    """

    # -- lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources. The in-memory backend has none."""

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    @abc.abstractmethod
    def description(self) -> str:
        """One-line backend description for CLI output."""

    def stats(self) -> Dict[str, int]:
        """Backend health counters (busy retries, write transactions, ...).

        The in-memory backend has nothing to report; the SQLite backend
        surfaces its lock-contention retry counts here.
        """
        return {}

    # -- campaigns --------------------------------------------------------------------

    @abc.abstractmethod
    def open_campaign(self, campaign_id: str,
                      config: Optional[Mapping[str, Any]] = None) -> CampaignInfo:
        """Create the campaign or validate ``config`` against the stored one.

        Raises :class:`CampaignConfigMismatch` when the campaign exists with a
        different config, and :class:`StoreError` when it does not exist and
        no config was supplied.
        """

    @abc.abstractmethod
    def get_campaign(self, campaign_id: str) -> Optional[CampaignInfo]:
        """The stored campaign, or ``None``."""

    @abc.abstractmethod
    def list_campaigns(self) -> Tuple[CampaignInfo, ...]:
        """Every stored campaign, in creation order."""

    # -- progress ---------------------------------------------------------------------

    @abc.abstractmethod
    def scope_progress(self, campaign_id: str) -> Dict[str, ScopeProgress]:
        """Durable progress per scope (empty for a fresh campaign)."""

    def cursor(self, campaign_id: str, scope: str) -> int:
        """The contiguous committed-chunk high-water mark for one scope."""
        progress = self.scope_progress(campaign_id).get(scope)
        return progress.cursor if progress else 0

    @abc.abstractmethod
    def commit_chunk(self, campaign_id: str, scope: str, chunk_index: int,
                     records: Sequence[ScheduleRecord],
                     rep_records: Optional[Sequence[ScheduleRecord]] = None,
                     lease_token: Optional[int] = None) -> None:
        """Durably commit one chunk's records and advance the cursor, atomically.

        ``records`` are the assembled per-schedule records of the chunk (what
        the exploration stream yields); ``rep_records`` are the freshly
        executed representative records when sleep-set reduction is active
        (needed to rebuild the executed-representative stream on resume).
        ``chunk_index`` must equal the current cursor — chunks are committed
        contiguously, in stream order.

        When ``lease_token`` is given the commit is *fenced*: inside the same
        transaction the chunk's lease row must be in state ``leased`` holding
        exactly this token, else :class:`StaleLeaseError` is raised and
        nothing lands.  On success the lease row transitions to ``done``
        atomically with the records and the cursor, so a reclaimed-and-
        regranted chunk can only ever be committed by the current holder.
        """

    # -- leases (the distributed runner's durable work-queue state) -------------------

    @abc.abstractmethod
    def load_leases(self, campaign_id: str) -> Dict[Tuple[str, int], rec.LeaseRecord]:
        """Every stored lease of the campaign, keyed ``(scope, chunk_index)``."""

    @abc.abstractmethod
    def put_lease(self, campaign_id: str, lease: rec.LeaseRecord) -> None:
        """Upsert one chunk's lease row (grant, reclaim, poison, requeue)."""

    @abc.abstractmethod
    def load_chunk(self, campaign_id: str, scope: str, chunk_index: int,
                   ) -> Tuple[Tuple[ScheduleRecord, ...], Tuple[ScheduleRecord, ...]]:
        """The committed chunk's (records, rep_records), decoded."""

    @abc.abstractmethod
    def mark_scope_complete(self, campaign_id: str, scope: str, total_chunks: int,
                            stats: Optional[Mapping[str, int]] = None) -> None:
        """Record that every chunk of the scope is durably committed."""

    @abc.abstractmethod
    def iter_records(self, campaign_id: str, scope: str) -> Iterator[ScheduleRecord]:
        """Every committed record of the scope, in stream order."""

    # -- anomaly certificates (the online certifier service) --------------------------

    @abc.abstractmethod
    def save_certificates(self, campaign_id: str,
                          certificates: Sequence["rec.CertificateRecord"]) -> int:
        """Upsert anomaly certificates keyed ``(stream, seq)``; returns how
        many were new.  Re-saving a stream's certificates is idempotent."""

    @abc.abstractmethod
    def load_certificates(self, campaign_id: str, stream: Optional[str] = None,
                          ) -> Tuple["rec.CertificateRecord", ...]:
        """Stored certificates (optionally one stream's), ordered by
        ``(stream, seq)``."""

    # -- dedupe tiers -----------------------------------------------------------------

    @abc.abstractmethod
    def load_outcomes(self, workload: str, scope: str,
                      ) -> Dict[Interleaving, ScheduleOutcome]:
        """Memoized canonical-form outcomes for one (workload, scope)."""

    @abc.abstractmethod
    def save_outcomes(self, workload: str, scope: str,
                      entries: Mapping[Interleaving, ScheduleOutcome]) -> int:
        """Add memoized outcomes; returns how many keys were new.

        An entry is a pure function of its key, so a key already stored keeps
        its row."""

    @abc.abstractmethod
    def load_classifications(self) -> Dict[str, HistoryClassification]:
        """Every stored history classification (shared across workloads)."""

    @abc.abstractmethod
    def save_classifications(self,
                             entries: Mapping[str, HistoryClassification]) -> int:
        """Add classifications by shorthand (an existing key keeps its row,
        as for outcomes); returns how many were new."""

    # -- derived artifacts ------------------------------------------------------------

    @abc.abstractmethod
    def save_coverage(self, campaign_id: str,
                      rows: Sequence[Tuple[str, str, int, Optional[str],
                                           Optional[str]]]) -> None:
        """Replace the campaign's coverage cells.

        Rows are ``(scope, code, witnessed, witness_interleaving,
        witness_history)`` with the interleaving already encoded.
        """

    @abc.abstractmethod
    def save_witness_edges(self, campaign_id: str,
                           rows: Sequence[Tuple[str, str, int, int, str,
                                                Optional[str]]]) -> None:
        """Replace the campaign's witness conflict edges.

        Rows are ``(scope, code, source, target, kind, item)`` — the
        dependency edges of each witnessed cell's witness history.
        """

    @abc.abstractmethod
    def save_table4_cell(self, campaign_id: str, scope: str, code: str,
                         payload: str) -> None:
        """Upsert one explored Table 4 cell (canonical JSON payload)."""

    @abc.abstractmethod
    def load_table4_cells(self, campaign_id: str) -> Dict[Tuple[str, str], str]:
        """Every stored Table 4 cell payload, keyed ``(scope, code)``."""

    # -- SQL-shaped analytics ---------------------------------------------------------

    @abc.abstractmethod
    def anomaly_frequency(self, campaign_id: str, scope: str,
                          code: str) -> Tuple[AnomalyFrequencyRow, ...]:
        """Witness counts of one phenomenon per chunk, with running totals."""

    @abc.abstractmethod
    def witness_for(self, campaign_id: str, scope: str,
                    code: str) -> Optional[StoredWitness]:
        """The earliest stored witness of one (scope, code) cell, if any."""

    @abc.abstractmethod
    def conflict_edge_summary(self, campaign_id: str) -> Tuple[ConflictEdgeRow, ...]:
        """Witness conflict edges aggregated by (scope, kind), ranked per scope."""


@dataclass
class _ScopeState:
    """In-memory progress + encoded rows of one (campaign, scope)."""

    cursor: int = 0
    complete: bool = False
    total_chunks: Optional[int] = None
    stats: Dict[str, int] = field(default_factory=dict)
    chunk_bounds: List[int] = field(default_factory=list)  #: record count after chunk i
    rows: List[Tuple] = field(default_factory=list)        #: encoded record rows
    chunk_of_row: List[int] = field(default_factory=list)  #: chunk index per row
    rep_rows: Dict[int, List[Tuple]] = field(default_factory=dict)


class InMemoryStore(CampaignStore):
    """Dict-backed reference backend: same encoding, same semantics, no disk.

    Useful for tests and for in-process resumable campaigns; its analytics
    are plain-python reimplementations of the SQLite backend's SQL, and the
    two are held in agreement by ``tests/persist/test_analytics.py``.
    """

    def __init__(self) -> None:
        self._campaigns: Dict[str, Dict[str, Any]] = {}
        self._order: List[str] = []
        self._scopes: Dict[Tuple[str, str], _ScopeState] = {}
        self._outcomes: Dict[Tuple[str, str], Dict[str, Tuple]] = {}
        self._classifications: Dict[str, Tuple] = {}
        self._coverage: Dict[str, List[Tuple]] = {}
        self._witness_edges: Dict[str, List[Tuple]] = {}
        self._table4: Dict[str, Dict[Tuple[str, str], str]] = {}
        self._leases: Dict[str, Dict[Tuple[str, int], Tuple]] = {}
        self._certificates: Dict[str, Dict[Tuple[str, int], Tuple]] = {}

    def description(self) -> str:
        return "InMemoryStore (process-local, dict-backed)"

    # -- campaigns --------------------------------------------------------------------

    def open_campaign(self, campaign_id: str,
                      config: Optional[Mapping[str, Any]] = None) -> CampaignInfo:
        stored = self._campaigns.get(campaign_id)
        if stored is None:
            if config is None:
                raise StoreError(f"unknown campaign {campaign_id!r} and no config "
                                 f"supplied to create it")
            self._campaigns[campaign_id] = dict(config)
            self._order.append(campaign_id)
            return CampaignInfo(campaign_id, dict(config))
        if config is not None and rec.canonical_json(dict(config)) != \
                rec.canonical_json(stored):
            raise CampaignConfigMismatch(
                f"campaign {campaign_id!r} exists with a different config: "
                f"stored {rec.canonical_json(stored)}, "
                f"got {rec.canonical_json(dict(config))}")
        return CampaignInfo(campaign_id, dict(stored))

    def get_campaign(self, campaign_id: str) -> Optional[CampaignInfo]:
        stored = self._campaigns.get(campaign_id)
        return CampaignInfo(campaign_id, dict(stored)) if stored is not None else None

    def list_campaigns(self) -> Tuple[CampaignInfo, ...]:
        return tuple(CampaignInfo(cid, dict(self._campaigns[cid]))
                     for cid in self._order)

    # -- progress ---------------------------------------------------------------------

    def _scope(self, campaign_id: str, scope: str, create: bool = False,
               ) -> Optional[_ScopeState]:
        if campaign_id not in self._campaigns:
            raise StoreError(f"unknown campaign {campaign_id!r}")
        key = (campaign_id, scope)
        state = self._scopes.get(key)
        if state is None and create:
            state = self._scopes[key] = _ScopeState()
        return state

    def scope_progress(self, campaign_id: str) -> Dict[str, ScopeProgress]:
        if campaign_id not in self._campaigns:
            raise StoreError(f"unknown campaign {campaign_id!r}")
        out: Dict[str, ScopeProgress] = {}
        for (cid, scope), state in self._scopes.items():
            if cid == campaign_id:
                out[scope] = ScopeProgress(scope, state.cursor, len(state.rows),
                                           state.complete, state.total_chunks,
                                           dict(state.stats))
        return out

    def commit_chunk(self, campaign_id: str, scope: str, chunk_index: int,
                     records: Sequence[ScheduleRecord],
                     rep_records: Optional[Sequence[ScheduleRecord]] = None,
                     lease_token: Optional[int] = None) -> None:
        state = self._scope(campaign_id, scope, create=True)
        assert state is not None
        if chunk_index != state.cursor:
            raise StoreError(f"non-contiguous commit: chunk {chunk_index} with "
                             f"cursor {state.cursor} ({campaign_id!r}/{scope!r})")
        lease_row: Optional[Tuple] = None
        if lease_token is not None:
            lease_row = self._leases.get(campaign_id, {}).get((scope, chunk_index))
            if lease_row is None or lease_row[2] != "leased" \
                    or int(lease_row[3]) != lease_token:
                held = "no lease" if lease_row is None else \
                    f"state={lease_row[2]!r} token={lease_row[3]}"
                raise StaleLeaseError(
                    f"fenced commit of chunk {chunk_index} "
                    f"({campaign_id!r}/{scope!r}) with token {lease_token} "
                    f"rejected: {held}")
        for record in records:
            state.rows.append(rec.record_to_row(record))
            state.chunk_of_row.append(chunk_index)
        if rep_records:
            state.rep_rows[chunk_index] = [rec.record_to_row(r) for r in rep_records]
        state.cursor = chunk_index + 1
        state.chunk_bounds.append(len(state.rows))
        if lease_row is not None:
            self._leases[campaign_id][(scope, chunk_index)] = \
                lease_row[:2] + ("done",) + lease_row[3:]

    def load_chunk(self, campaign_id: str, scope: str, chunk_index: int,
                   ) -> Tuple[Tuple[ScheduleRecord, ...], Tuple[ScheduleRecord, ...]]:
        state = self._scope(campaign_id, scope)
        if state is None or chunk_index >= state.cursor:
            raise StoreError(f"chunk {chunk_index} of {campaign_id!r}/{scope!r} "
                             f"is not committed")
        start = state.chunk_bounds[chunk_index - 1] if chunk_index else 0
        stop = state.chunk_bounds[chunk_index]
        loaded = tuple(rec.record_from_row(row)
                       for row in state.rows[start:stop])
        reps = tuple(rec.record_from_row(row)
                     for row in state.rep_rows.get(chunk_index, ()))
        return loaded, reps

    def mark_scope_complete(self, campaign_id: str, scope: str, total_chunks: int,
                            stats: Optional[Mapping[str, int]] = None) -> None:
        state = self._scope(campaign_id, scope, create=True)
        assert state is not None
        state.complete = True
        state.total_chunks = total_chunks
        if stats:
            state.stats.update(stats)

    def iter_records(self, campaign_id: str, scope: str) -> Iterator[ScheduleRecord]:
        state = self._scope(campaign_id, scope)
        for row in (state.rows if state is not None else ()):
            yield rec.record_from_row(row)

    # -- leases -----------------------------------------------------------------------

    def load_leases(self, campaign_id: str) -> Dict[Tuple[str, int], rec.LeaseRecord]:
        if campaign_id not in self._campaigns:
            raise StoreError(f"unknown campaign {campaign_id!r}")
        return {key: rec.lease_from_row(row)
                for key, row in sorted(self._leases.get(campaign_id, {}).items())}

    def put_lease(self, campaign_id: str, lease: rec.LeaseRecord) -> None:
        if campaign_id not in self._campaigns:
            raise StoreError(f"unknown campaign {campaign_id!r}")
        row = rec.lease_to_row(lease)
        self._leases.setdefault(campaign_id, {})[
            (lease.scope, lease.chunk_index)] = row

    # -- anomaly certificates ---------------------------------------------------------

    def save_certificates(self, campaign_id: str,
                          certificates: Sequence[rec.CertificateRecord]) -> int:
        if campaign_id not in self._campaigns:
            raise StoreError(f"unknown campaign {campaign_id!r}")
        rows = self._certificates.setdefault(campaign_id, {})
        fresh = 0
        for certificate in certificates:
            row = rec.certificate_to_row(certificate)
            key = (certificate.stream, certificate.seq)
            if key not in rows:
                fresh += 1
            rows[key] = row
        return fresh

    def load_certificates(self, campaign_id: str, stream: Optional[str] = None,
                          ) -> Tuple[rec.CertificateRecord, ...]:
        if campaign_id not in self._campaigns:
            raise StoreError(f"unknown campaign {campaign_id!r}")
        rows = self._certificates.get(campaign_id, {})
        return tuple(rec.certificate_from_row(row)
                     for key, row in sorted(rows.items())
                     if stream is None or key[0] == stream)

    # -- dedupe tiers -----------------------------------------------------------------

    def load_outcomes(self, workload: str, scope: str,
                      ) -> Dict[Interleaving, ScheduleOutcome]:
        rows = self._outcomes.get((workload, scope), {})
        out: Dict[Interleaving, ScheduleOutcome] = {}
        for key_text, row in rows.items():
            key, outcome = rec.outcome_from_row((key_text,) + row)
            out[key] = outcome
        return out

    def save_outcomes(self, workload: str, scope: str,
                      entries: Mapping[Interleaving, ScheduleOutcome]) -> int:
        rows = self._outcomes.setdefault((workload, scope), {})
        before = len(rows)
        for key, outcome in entries.items():
            encoded = rec.outcome_to_row(key, outcome)
            rows.setdefault(encoded[0], encoded[1:])
        return len(rows) - before

    def load_classifications(self) -> Dict[str, HistoryClassification]:
        out: Dict[str, HistoryClassification] = {}
        for shorthand, row in self._classifications.items():
            _, classification = rec.classification_from_row((shorthand,) + row)
            out[shorthand] = classification
        return out

    def save_classifications(self,
                             entries: Mapping[str, HistoryClassification]) -> int:
        before = len(self._classifications)
        for shorthand, classification in entries.items():
            encoded = rec.classification_to_row(shorthand, classification)
            self._classifications.setdefault(encoded[0], encoded[1:])
        return len(self._classifications) - before

    # -- derived artifacts ------------------------------------------------------------

    def save_coverage(self, campaign_id: str,
                      rows: Sequence[Tuple[str, str, int, Optional[str],
                                           Optional[str]]]) -> None:
        self._coverage[campaign_id] = [tuple(row) for row in rows]

    def save_witness_edges(self, campaign_id: str,
                           rows: Sequence[Tuple[str, str, int, int, str,
                                                Optional[str]]]) -> None:
        self._witness_edges[campaign_id] = [tuple(row) for row in rows]

    def save_table4_cell(self, campaign_id: str, scope: str, code: str,
                         payload: str) -> None:
        self._table4.setdefault(campaign_id, {})[(scope, code)] = payload

    def load_table4_cells(self, campaign_id: str) -> Dict[Tuple[str, str], str]:
        return dict(self._table4.get(campaign_id, {}))

    # -- SQL-shaped analytics (plain-python mirrors of SqliteStore's queries) ---------

    def anomaly_frequency(self, campaign_id: str, scope: str,
                          code: str) -> Tuple[AnomalyFrequencyRow, ...]:
        state = self._scope(campaign_id, scope)
        if state is None:
            return ()
        per_chunk: Dict[int, List[int]] = {}
        for row, chunk in zip(state.rows, state.chunk_of_row):
            bucket = per_chunk.setdefault(chunk, [0, 0])
            bucket[0] += 1
            if code in rec.decode_strs(row[3]):
                bucket[1] += 1
        out: List[AnomalyFrequencyRow] = []
        cumulative = 0
        for chunk in sorted(per_chunk):
            schedules, witnessed = per_chunk[chunk]
            cumulative += witnessed
            out.append(AnomalyFrequencyRow(chunk, schedules, witnessed, cumulative))
        return tuple(out)

    def witness_for(self, campaign_id: str, scope: str,
                    code: str) -> Optional[StoredWitness]:
        state = self._scope(campaign_id, scope)
        if state is None:
            return None
        for index, row in enumerate(state.rows):
            if code in rec.decode_strs(row[3]):
                return StoredWitness(index, rec.decode_interleaving(row[0]), row[1])
        return None

    def conflict_edge_summary(self, campaign_id: str) -> Tuple[ConflictEdgeRow, ...]:
        counts: Dict[Tuple[str, str], int] = {}
        for row in self._witness_edges.get(campaign_id, ()):
            scope, _code, _source, _target, kind, _item = row
            counts[(scope, kind)] = counts.get((scope, kind), 0) + 1
        out: List[ConflictEdgeRow] = []
        for scope in sorted({scope for scope, _ in counts}):
            kinds = sorted(((kind, n) for (s, kind), n in counts.items()
                            if s == scope), key=lambda item: (-item[1], item[0]))
            rank = 0
            previous: Optional[int] = None
            for position, (kind, n) in enumerate(kinds, start=1):
                if n != previous:
                    rank = position     # RANK() semantics: ties share, then skip
                    previous = n
                out.append(ConflictEdgeRow(scope, kind, n, rank))
        return tuple(out)

    # -- introspection ----------------------------------------------------------------

    def schedule_index_of_chunk(self, campaign_id: str, scope: str,
                                chunk_index: int) -> int:
        """Global schedule index where ``chunk_index`` starts (test helper)."""
        state = self._scope(campaign_id, scope)
        if state is None or not state.chunk_bounds:
            return 0
        if chunk_index == 0:
            return 0
        return state.chunk_bounds[min(chunk_index, len(state.chunk_bounds)) - 1]
