"""The leased work queue: chunk grants, heartbeats, reclaim, poison, commit.

A :class:`LeaseQueue` owns the lease state machine of one campaign run.  It
lives in the supervising parent process only (workers see tokens, never the
queue) and keeps an authoritative in-memory mirror of every chunk's lease,
writing state transitions through to the campaign store's ``leases`` table
so a crashed run resumes with its attempt counts, fencing tokens, and
poison quarantine intact.

The state machine per ``(scope, chunk)``::

    pending ──acquire──▶ leased ──complete──▶ done
       ▲                   │
       │ reclaim (deadline │ passed, or owner known dead)
       └───────────────────┘         attempts < max_attempts
                           │
                           └──reclaim at attempt budget──▶ poisoned

* **Grants are fenced**: every ``acquire`` bumps a campaign-wide monotonic
  token.  ``complete`` (and the store's ``commit_chunk`` beneath it) accept
  a result only while the chunk is still ``leased`` under exactly that
  token, so a reclaimed-and-regranted chunk silently discards its zombie's
  late result.
* **Deadlines are run-local**: measured on the injected monotonic ``clock``
  and renewable by heartbeat; they are never persisted (a dead run's
  deadlines mean nothing — its ``leased`` rows simply load as ``pending``,
  attempts preserved).
* **Retry is bounded**: each reclaim increments ``attempts`` and delays the
  next grant by exponential backoff with seeded jitter; at ``max_attempts``
  the chunk is quarantined as ``poisoned`` and never granted again until
  explicitly requeued (:meth:`LeaseQueue.drain_poisoned`).
* **Commits stay contiguous**: results may finish out of order, so accepted
  chunks buffer until the scope's cursor reaches them and flush through
  ``commit_chunk(..., lease_token=...)`` in stream order — the store's
  contiguous-cursor protocol, unchanged.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..explorer.worker import ScheduleRecord
from ..persist.records import LeaseRecord
from ..persist.sqlite_store import SqliteStore

__all__ = ["Lease", "ReclaimedLease", "PoisonedChunk", "LeaseQueue"]


@dataclass(frozen=True)
class Lease:
    """One granted chunk lease, as handed to a worker's supervisor."""

    scope: str
    chunk_index: int
    token: int
    deadline: float
    attempts: int


@dataclass(frozen=True)
class ReclaimedLease:
    """One lease taken back from a missing worker (expiry or known death)."""

    scope: str
    chunk_index: int
    token: int
    attempts: int
    poisoned: bool


@dataclass(frozen=True)
class PoisonedChunk:
    """One quarantined chunk: its retry budget is spent."""

    scope: str
    chunk_index: int
    attempts: int


@dataclass
class _Unit:
    """In-memory lease state of one (scope, chunk)."""

    state: str = "pending"          #: pending | leased | done | poisoned
    token: int = 0
    owner: Optional[str] = None
    attempts: int = 0
    deadline: float = 0.0           #: meaningful only while leased
    not_before: float = 0.0         #: retry backoff gate while pending
    flushed: bool = False           #: done AND durably committed


class LeaseQueue:
    """Parent-side lease manager over one campaign's chunk stream."""

    def __init__(self, store: SqliteStore, campaign_id: str, *,
                 lease_duration: float = 5.0,
                 max_attempts: int = 5,
                 backoff_base: float = 0.05,
                 backoff_cap: float = 2.0,
                 jitter_seed: int = 0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.store = store
        self.campaign_id = campaign_id
        self.lease_duration = float(lease_duration)
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self._rng = random.Random(jitter_seed)
        self._clock = clock
        self._scopes: List[str] = []                       #: registration order
        self._affinity: Dict[str, str] = {}                #: owner -> last scope
        self._units: Dict[Tuple[str, int], _Unit] = {}
        self._totals: Dict[str, int] = {}
        self._cursors: Dict[str, int] = {}                 #: store flush cursor
        self._buffers: Dict[str, Dict[int, Tuple[Tuple[ScheduleRecord, ...],
                                                 int]]] = {}
        self._persisted = store.load_leases(campaign_id)
        self._next_token = 1 + max(
            (lease.token for lease in self._persisted.values()), default=0)
        #: Invoked with the running commit ordinal before each store flush
        #: (the fault harness's slow-commit injection point).
        self.commit_hook: Optional[Callable[[int], None]] = None
        self._commit_ordinal = 0
        self.stats: Dict[str, int] = {
            "leases_granted": 0, "leases_renewed": 0, "renew_rejected": 0,
            "leases_reclaimed": 0, "leases_released": 0, "fenced_results": 0,
            "chunks_poisoned": 0, "chunks_requeued": 0,
            "chunks_committed": 0, "records_committed": 0,
        }

    # -- registration -----------------------------------------------------------------

    def register_scope(self, scope: str, total_chunks: int,
                       cursor: int = 0) -> None:
        """Declare one scope's chunk range; chunks below ``cursor`` are done.

        Persisted lease rows (from an earlier, possibly crashed, run) seed
        the in-memory state: ``poisoned`` rows stay quarantined, ``leased``
        rows load as ``pending`` (their runner is gone; attempts and tokens
        survive so every old token stays permanently stale), and ``done``
        rows below the cursor are already flushed.
        """
        if scope in self._totals:
            raise ValueError(f"scope {scope!r} registered twice")
        self._scopes.append(scope)
        self._totals[scope] = int(total_chunks)
        self._cursors[scope] = int(cursor)
        self._buffers[scope] = {}
        for chunk in range(total_chunks):
            unit = _Unit()
            stored = self._persisted.get((scope, chunk))
            if stored is not None:
                unit.token = stored.token
                unit.owner = stored.owner
                unit.attempts = stored.attempts
                if stored.state == "poisoned":
                    unit.state = "poisoned"
            if chunk < cursor:
                unit.state = "done"
                unit.flushed = True
            self._units[(scope, chunk)] = unit

    # -- grants -----------------------------------------------------------------------

    def acquire(self, owner: str) -> Optional[Lease]:
        """Grant the earliest eligible pending chunk of the owner's best
        scope, or ``None``.

        Each scope is its own engine, whose transition table and history
        classes a worker reuses, so an owner keeps to a scope: its next grant
        comes from the scope of its previous grant while that has grantable
        chunks; else from the first scope, in registration order, that no
        other owner holds a lease in; else from any scope.  Chunks go in
        stream order, which keeps each scope's commit buffer shallow.
        """
        now = self._clock()
        last = self._affinity.get(owner)
        held = {scope for (scope, _), unit in self._units.items()
                if unit.state == "leased" and unit.owner != owner}
        for scope in sorted(self._scopes,
                            key=lambda scope: (scope != last, scope in held)):
            for chunk in range(self._cursors[scope], self._totals[scope]):
                unit = self._units[(scope, chunk)]
                if unit.state != "pending" or unit.not_before > now:
                    continue
                unit.state = "leased"
                unit.token = self._next_token
                self._next_token += 1
                unit.owner = owner
                unit.deadline = now + self.lease_duration
                self._put(scope, chunk, unit, "leased")
                self.stats["leases_granted"] += 1
                self._affinity[owner] = scope
                return Lease(scope, chunk, unit.token, unit.deadline,
                             unit.attempts)
        return None

    # -- heartbeats -------------------------------------------------------------------

    def renew(self, scope: str, chunk_index: int, token: int) -> bool:
        """Extend the deadline of a live lease.  Strict: an expired lease
        cannot be renewed even before anyone reclaims it — the worker must
        treat a failed renewal as lease loss."""
        unit = self._units.get((scope, chunk_index))
        now = self._clock()
        if unit is None or unit.state != "leased" or unit.token != token \
                or unit.deadline <= now:
            self.stats["renew_rejected"] += 1
            return False
        unit.deadline = now + self.lease_duration
        self.stats["leases_renewed"] += 1
        return True

    def release(self, scope: str, chunk_index: int, token: int) -> bool:
        """Voluntarily return a lease un-executed (no attempt penalty)."""
        unit = self._units.get((scope, chunk_index))
        if unit is None or unit.state != "leased" or unit.token != token:
            return False
        unit.state = "pending"
        unit.owner = None
        unit.not_before = self._clock()
        self._put(scope, chunk_index, unit, "pending")
        self.stats["leases_released"] += 1
        return True

    # -- reclaim and quarantine -------------------------------------------------------

    def reclaim_expired(self) -> List[ReclaimedLease]:
        """Take back every lease whose deadline passed; backoff or poison."""
        now = self._clock()
        reclaimed: List[ReclaimedLease] = []
        for (scope, chunk), unit in self._units.items():
            if unit.state == "leased" and unit.deadline <= now:
                reclaimed.append(self._reclaim(scope, chunk, unit))
        return reclaimed

    def force_expire(self, scope: str, chunk_index: int,
                     token: int) -> Optional[ReclaimedLease]:
        """Reclaim one lease immediately (its owner is known dead)."""
        unit = self._units.get((scope, chunk_index))
        if unit is None or unit.state != "leased" or unit.token != token:
            return None
        return self._reclaim(scope, chunk_index, unit)

    def _reclaim(self, scope: str, chunk: int, unit: _Unit) -> ReclaimedLease:
        token = unit.token
        unit.attempts += 1
        unit.owner = None
        self.stats["leases_reclaimed"] += 1
        if unit.attempts >= self.max_attempts:
            unit.state = "poisoned"
            self._put(scope, chunk, unit, "poisoned")
            self.stats["chunks_poisoned"] += 1
            return ReclaimedLease(scope, chunk, token, unit.attempts, True)
        unit.state = "pending"
        unit.not_before = self._clock() + self._backoff(unit.attempts)
        self._put(scope, chunk, unit, "pending")
        return ReclaimedLease(scope, chunk, token, unit.attempts, False)

    def _backoff(self, attempts: int) -> float:
        """``base * 2^(attempts-1)`` capped, scaled by seeded jitter in
        [0.5, 1.5) — retries spread out instead of thundering back."""
        delay = min(self.backoff_cap, self.backoff_base * (2 ** (attempts - 1)))
        return delay * (0.5 + self._rng.random())

    def poisoned(self) -> Tuple[PoisonedChunk, ...]:
        return tuple(PoisonedChunk(scope, chunk, unit.attempts)
                     for (scope, chunk), unit in sorted(self._units.items())
                     if unit.state == "poisoned")

    def drain_poisoned(self, requeue: bool = False) -> Tuple[PoisonedChunk, ...]:
        """The quarantined set; with ``requeue`` they re-enter the queue with
        a fresh attempt budget (an operator decision, never automatic)."""
        drained = self.poisoned()
        if requeue:
            for poisoned in drained:
                unit = self._units[(poisoned.scope, poisoned.chunk_index)]
                unit.state = "pending"
                unit.attempts = 0
                unit.not_before = self._clock()
                self._put(poisoned.scope, poisoned.chunk_index, unit, "pending")
                self.stats["chunks_requeued"] += 1
        return drained

    # -- results ----------------------------------------------------------------------

    def complete(self, scope: str, chunk_index: int, token: int,
                 records: Sequence[ScheduleRecord]) -> bool:
        """Accept one chunk result if its lease is still current.

        The fencing rule, applied twice: here against the in-memory mirror
        (``leased`` under exactly this token — a reclaimed chunk is
        ``pending`` or regranted under a newer token, so the zombie loses
        either way), and again inside the store's commit transaction when
        the buffered chunk flushes.  Accepted chunks buffer until the scope
        cursor reaches them, then flush contiguously.
        """
        unit = self._units.get((scope, chunk_index))
        if unit is None or unit.state != "leased" or unit.token != token:
            self.stats["fenced_results"] += 1
            return False
        unit.state = "done"
        self._buffers[scope][chunk_index] = (tuple(records), token)
        self._flush(scope)
        return True

    def _flush(self, scope: str) -> None:
        buffers = self._buffers[scope]
        cursor = self._cursors[scope]
        while cursor in buffers:
            records, token = buffers.pop(cursor)
            if self.commit_hook is not None:
                self.commit_hook(self._commit_ordinal)
            self.store.commit_chunk(self.campaign_id, scope, cursor, records,
                                    lease_token=token)
            self._commit_ordinal += 1
            unit = self._units[(scope, cursor)]
            unit.flushed = True
            self.stats["chunks_committed"] += 1
            self.stats["records_committed"] += len(records)
            cursor += 1
        self._cursors[scope] = cursor

    # -- progress ---------------------------------------------------------------------

    def scope_committed(self, scope: str) -> bool:
        """Every chunk of the scope durably committed."""
        return self._cursors[scope] >= self._totals[scope]

    def all_committed(self) -> bool:
        return all(self.scope_committed(scope) for scope in self._scopes)

    def has_open_work(self) -> bool:
        """Anything still grantable or in flight: a pending or leased chunk.
        Accepted chunks buffered behind a poisoned gap are not open work."""
        return any(unit.state in ("pending", "leased")
                   for unit in self._units.values())

    def lease_stats(self) -> Dict[str, int]:
        return dict(self.stats)

    # -- persistence ------------------------------------------------------------------

    def _put(self, scope: str, chunk: int, unit: _Unit, state: str) -> None:
        self.store.put_lease(self.campaign_id, LeaseRecord(
            scope=scope, chunk_index=chunk, state=state, token=unit.token,
            owner=unit.owner, attempts=unit.attempts))
