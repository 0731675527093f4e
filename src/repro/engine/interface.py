"""The concurrency-control engine interface shared by locking and MVCC engines.

Every isolation level in the paper is realized as an *engine*: an object that
accepts the actions of concurrently executing transactions (reads, writes,
predicate selects, cursor fetches, commits, aborts) against a shared
:class:`~repro.storage.database.Database` and decides, action by action,
whether the action proceeds, blocks, or forces the transaction to abort.

The interface is deliberately non-blocking in the threading sense: an action
that cannot proceed returns :attr:`OpStatus.BLOCKED` together with the set of
transactions it is waiting on, and the
:class:`~repro.engine.scheduler.ScheduleRunner` decides when to retry it.
That keeps the whole system deterministic (anomalies are properties of logical
interleavings, not of wall-clock races) while still exercising the same
decision logic a real scheduler would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional

from ..core.isolation import IsolationLevelName
from ..storage.database import Database
from ..storage.predicates import Predicate
from ..storage.rows import Row

__all__ = [
    "OpStatus",
    "OpResult",
    "TransactionState",
    "Engine",
    "EngineError",
    "CheckpointError",
]

class EngineError(RuntimeError):
    """Raised for protocol violations (acting on an unknown or finished txn, ...)."""


class CheckpointError(EngineError):
    """Raised when an engine cannot checkpoint or restore its state."""


class OpStatus(enum.Enum):
    """The outcome of submitting one action to an engine."""

    OK = "ok"
    BLOCKED = "blocked"
    ABORTED = "aborted"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class OpResult:
    """Result of one action.

    ``value`` carries the value read (for reads / selects / fetches).
    ``blockers`` names the transactions a BLOCKED action waits on.
    ``version`` optionally records which version a multiversion read saw,
    so that realized histories can be rendered as MV histories.
    """

    status: OpStatus
    value: Any = None
    blockers: FrozenSet[int] = frozenset()
    reason: str = ""
    version: Optional[int] = None
    #: For cursor operations: the item the cursor is currently positioned on,
    #: so the schedule runner can record ``rc``/``wc`` history operations.
    item: Optional[str] = None

    @classmethod
    def ok(cls, value: Any = None, version: Optional[int] = None,
           item: Optional[str] = None) -> "OpResult":
        # OK results are immutable values; replaying thousands of schedules
        # realizes the same (value, version, item) payloads over and over, so
        # intern the hashable ones.  Value-only results (the single-version
        # engines' read/write payloads) take a tuple-free fast path.
        if version is None and item is None:
            if value is None:
                return _OK_RESULT
            try:
                cached = _OK_VALUE_CACHE.get(value)
            except TypeError:  # unhashable payload (e.g. a list of rows)
                return cls(OpStatus.OK, value=value)
            if cached is None:
                cached = cls(OpStatus.OK, value=value)
                if len(_OK_VALUE_CACHE) < 100_000:
                    _OK_VALUE_CACHE[value] = cached
            return cached
        key = (value, version, item)
        try:
            cached = _OK_CACHE.get(key)
        except TypeError:  # unhashable payload
            return cls(OpStatus.OK, value=value, version=version, item=item)
        if cached is None:
            cached = cls(OpStatus.OK, value=value, version=version, item=item)
            if len(_OK_CACHE) < 100_000:
                _OK_CACHE[key] = cached
        return cached

    @classmethod
    def blocked(cls, blockers: Iterable[int], reason: str = "") -> "OpResult":
        return cls(OpStatus.BLOCKED, blockers=frozenset(blockers), reason=reason)

    @classmethod
    def aborted(cls, reason: str) -> "OpResult":
        return cls(OpStatus.ABORTED, reason=reason)

    @property
    def is_ok(self) -> bool:
        return self.status is OpStatus.OK

    @property
    def is_blocked(self) -> bool:
        return self.status is OpStatus.BLOCKED

    @property
    def is_aborted(self) -> bool:
        return self.status is OpStatus.ABORTED


#: The shared no-payload OK result (immutable, so one instance serves all).
_OK_RESULT = OpResult(OpStatus.OK)

#: Interned OK results keyed by (value, version, item).
_OK_CACHE: Dict[Any, OpResult] = {}

#: Interned value-only OK results (version=None, item=None), keyed by value.
_OK_VALUE_CACHE: Dict[Any, OpResult] = {}


class TransactionState(enum.Enum):
    """Lifecycle of a transaction inside an engine."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Engine:
    """Base class for concurrency-control engines.

    Subclasses implement one isolation level (or a family selected by a
    policy).  All mutating entry points must be tolerant of being called with
    an already-aborted transaction: they return an ABORTED result rather than
    raising, because the schedule runner may race a program step against an
    engine-initiated abort (deadlock victim, first-committer-wins failure).
    """

    #: A short display name, e.g. "Locking READ COMMITTED" or "Snapshot Isolation".
    name: str = "engine"
    #: The isolation level this engine implements.
    level: IsolationLevelName = IsolationLevelName.SERIALIZABLE

    def __init__(self, database: Database):
        self.database = database
        self._states: Dict[int, TransactionState] = {}
        self._abort_reasons: Dict[int, str] = {}

    # -- lifecycle -----------------------------------------------------------------

    def begin(self, txn: int) -> None:
        """Register a new transaction."""
        if txn in self._states and self._states[txn] is TransactionState.ACTIVE:
            raise EngineError(f"transaction T{txn} already active")
        self._states[txn] = TransactionState.ACTIVE

    def commit(self, txn: int) -> OpResult:
        """Attempt to commit; may return BLOCKED or ABORTED."""
        raise NotImplementedError

    def abort(self, txn: int, reason: str = "voluntary abort") -> OpResult:
        """Abort a transaction, rolling back its effects."""
        raise NotImplementedError

    # -- data actions -----------------------------------------------------------------

    def read(self, txn: int, item: str) -> OpResult:
        """Read a named data item."""
        raise NotImplementedError

    def write(self, txn: int, item: str, value: Any) -> OpResult:
        """Write a named data item."""
        raise NotImplementedError

    def select(self, txn: int, predicate: Predicate) -> OpResult:
        """Read the set of rows satisfying a predicate (value = list of Rows)."""
        raise NotImplementedError

    def insert(self, txn: int, table: str, row: Row) -> OpResult:
        """Insert a row into a table."""
        raise NotImplementedError

    def update_row(self, txn: int, table: str, key: str, changes: Dict[str, Any]) -> OpResult:
        """Update attributes of an existing row."""
        raise NotImplementedError

    def delete_row(self, txn: int, table: str, key: str) -> OpResult:
        """Delete a row."""
        raise NotImplementedError

    # -- cursor actions (Section 4.1) ----------------------------------------------------

    def open_cursor(self, txn: int, cursor: str, items: List[str]) -> OpResult:
        """Open a cursor ranging over a list of named items."""
        raise NotImplementedError

    def fetch(self, txn: int, cursor: str) -> OpResult:
        """Advance the cursor to its next item and read it (the paper's ``rc``)."""
        raise NotImplementedError

    def cursor_update(self, txn: int, cursor: str, value: Any) -> OpResult:
        """Write the current item of the cursor (the paper's ``wc``)."""
        raise NotImplementedError

    def close_cursor(self, txn: int, cursor: str) -> OpResult:
        """Close a cursor, releasing any cursor-held locks."""
        raise NotImplementedError

    # -- blocking fingerprint ----------------------------------------------------------------

    def blocking_version(self) -> Optional[int]:
        """A version stamp of the state a BLOCKED result depends on, or None.

        Engines whose blocked outcomes are a pure function of some versioned
        internal state (the locking engines' granted-lock table) return its
        monotonic version; the schedule runner then skips re-submitting a
        blocked step whose version has not changed, reusing the previous
        result.  ``None`` (the default, and for engines that never block)
        disables the fast path.
        """
        return None

    def blocking_version_for(self, item: Optional[str]) -> Optional[int]:
        """The :meth:`blocking_version` stamp restricted to one item, or None.

        A blocked *item* operation can only depend on state attached to that
        item (for the locking engines, the item's own locks) — engines with
        per-item version counters return the item's counter so a parked
        blocked attempt survives lock traffic on unrelated items.  ``None``
        as the item (a non-item step) and the default implementation both
        fall back to the whole-state :meth:`blocking_version`.
        """
        return self.blocking_version()

    # -- checkpoint / restore (the prefix-sharing executor contract) ------------------------

    #: Whether this engine implements :meth:`checkpoint` / :meth:`restore`.
    supports_checkpoints: bool = False

    def checkpoint(self) -> Any:
        """Capture the engine's full state (database included) as an opaque token.

        The token is a *value*: it must stay valid however the live state is
        mutated afterwards, and restoring it twice must be possible.  Tokens
        are cheap — engines copy only the small mutable structures and record
        truncation lengths for append-only ones (version chains), which is
        what makes the schedule explorer's prefix-sharing trie executor
        profitable.

        Restore discipline: a token may only be restored on the engine that
        produced it, and only to roll the engine *backwards* to a state on the
        current execution path (the trie executor's DFS discipline).  Engines
        whose stores are restored by truncation rely on this.
        """
        raise CheckpointError(f"{type(self).__name__} does not support checkpoints")

    def restore(self, token: Any) -> None:
        """Reset the engine (database included) to a previously captured token."""
        raise CheckpointError(f"{type(self).__name__} does not support checkpoints")

    #: Left out of :meth:`_base_state_key`, with why no later step can tell.
    _state_key_derivable = (
        ("_abort_reasons", "read only when an aborted transaction acts "
                           "again, and the runner finishes every program "
                           "the engine aborts"),
    )

    def state_key(self) -> Any:
        """A canonical, hashable value of the state :meth:`checkpoint` captures.

        Two engine states with equal keys must answer every later action
        alike, so the key holds what a later step can observe and nothing
        else: counters nothing reads, orders nothing reads and values
        another field already determines stay out (each engine lists them
        in ``_state_key_derivable``).  The trie executor's transition table
        interns states by this key (see :mod:`repro.explorer.transition_table`).
        """
        raise CheckpointError(f"{type(self).__name__} does not support state keys")

    def _base_state_key(self) -> Any:
        """State key of the lifecycle bookkeeping shared by all engines."""
        return tuple(self._states.items())

    def _base_checkpoint(self) -> Any:
        """Checkpoint of the lifecycle bookkeeping shared by all engines."""
        return dict(self._states), dict(self._abort_reasons)

    def _base_restore(self, token: Any) -> None:
        states, abort_reasons = token
        self._states = dict(states)
        self._abort_reasons = dict(abort_reasons)

    # -- bookkeeping shared by subclasses ---------------------------------------------------

    def state_of(self, txn: int) -> TransactionState:
        """The lifecycle state of a transaction."""
        try:
            return self._states[txn]
        except KeyError:
            raise EngineError(f"unknown transaction T{txn}") from None

    def abort_reason(self, txn: int) -> Optional[str]:
        """Why a transaction was aborted, when it was."""
        return self._abort_reasons.get(txn)

    def active_transactions(self) -> List[int]:
        """Transactions currently active."""
        return [
            txn for txn, state in self._states.items()
            if state is TransactionState.ACTIVE
        ]

    def is_active(self, txn: int) -> bool:
        """True when the transaction has begun and not yet terminated."""
        return self._states.get(txn) is TransactionState.ACTIVE

    def _require_active(self, txn: int) -> Optional[OpResult]:
        """Shared guard: a non-active transaction gets an ABORTED/errored result."""
        state = self._states.get(txn)
        if state is TransactionState.ACTIVE:
            return None
        if state is TransactionState.ABORTED:
            return OpResult.aborted(self._abort_reasons.get(txn, "transaction aborted"))
        if state is TransactionState.COMMITTED:
            raise EngineError(f"transaction T{txn} already committed")
        raise EngineError(f"transaction T{txn} never began")

    def _mark_committed(self, txn: int) -> None:
        self._states[txn] = TransactionState.COMMITTED

    def _mark_aborted(self, txn: int, reason: str) -> None:
        self._states[txn] = TransactionState.ABORTED
        self._abort_reasons[txn] = reason
