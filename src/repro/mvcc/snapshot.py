"""Snapshot Isolation: start-timestamp snapshots plus First-Committer-Wins.

Section 4.2 of the paper defines the level this engine implements:

* Every transaction reads from the snapshot of *committed* data as of its
  Start-Timestamp; its own writes are reflected in that snapshot so it reads
  them back on re-access.
* Reads never block ("a transaction running in Snapshot Isolation is never
  blocked attempting a read").
* At commit the transaction receives a Commit-Timestamp larger than any
  existing start or commit timestamp, and commits only if no other transaction
  with a commit timestamp inside its execution interval wrote data it also
  wrote — **First-Committer-Wins**, which prevents Lost Updates (P4).

The constructor flag ``first_committer_wins`` exists for the ablation
benchmark: turning it off demonstrates that the lost-update protection really
does come from that rule and not from the snapshot reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.isolation import IsolationLevelName
from ..engine.interface import Engine, EngineError, OpResult
from ..storage.database import Database
from ..storage.predicates import Predicate
from ..storage.rows import Row, freeze
from .timestamps import TimestampAuthority
from .version_store import VersionStore

__all__ = ["SnapshotIsolationEngine"]

#: Sentinel marking a row as deleted in a transaction's private write set.
_DELETED = object()


@dataclass
class _SnapshotTxn:
    """Per-transaction state: snapshot timestamp and private write sets."""

    start_ts: int
    item_writes: Dict[str, Any] = field(default_factory=dict)
    row_writes: Dict[Tuple[str, str], Any] = field(default_factory=dict)
    cursors: Dict[str, "_SnapshotCursor"] = field(default_factory=dict)


@dataclass
class _SnapshotCursor:
    items: List[str]
    position: int = -1

    @property
    def current_item(self) -> Optional[str]:
        if 0 <= self.position < len(self.items):
            return self.items[self.position]
        return None


class SnapshotIsolationEngine(Engine):
    """Multiversion engine implementing Snapshot Isolation."""

    level = IsolationLevelName.SNAPSHOT_ISOLATION
    supports_checkpoints = True

    #: Immutable per-engine configuration, deliberately outside the
    #: checkpoint token (audited by repolint's checkpoint-completeness check).
    _checkpoint_stable = ("first_committer_wins", "name")

    #: Left out of :meth:`state_key`, with why no later step can tell.
    _state_key_derivable = (
        ("database", "the committed tip: every item and row is its chain's "
                     "newest version in the store"),
        ("clock", "counts commits: it equals the number of COMMITTED "
                  "transactions, each of which took exactly one timestamp"),
        ("fcw_aborts", "a benchmark counter; no action reads it"),
    )

    def __init__(self, database: Database,
                 authority: Optional[TimestampAuthority] = None,
                 first_committer_wins: bool = True):
        super().__init__(database)
        self.store = VersionStore(database)
        self.clock = authority or TimestampAuthority()
        self.first_committer_wins = first_committer_wins
        self.name = "Snapshot Isolation" if first_committer_wins \
            else "Snapshot reads without First-Committer-Wins"
        self._txns: Dict[int, _SnapshotTxn] = {}
        #: Commit-time aborts caused by First-Committer-Wins (for benchmarks).
        self.fcw_aborts = 0

    # -- lifecycle -----------------------------------------------------------------

    def begin(self, txn: int) -> None:
        super().begin(txn)
        self._txns[txn] = _SnapshotTxn(start_ts=self.clock.now())

    def _txn_state(self, txn: int) -> _SnapshotTxn:
        try:
            return self._txns[txn]
        except KeyError:
            raise EngineError(f"unknown transaction T{txn}") from None

    # -- reads (never block) ------------------------------------------------------------

    def read(self, txn: int, item: str) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        state = self._txn_state(txn)
        if item in state.item_writes:
            return OpResult.ok(state.item_writes[item])
        value, version = self.store.read_item(item, state.start_ts)
        return OpResult.ok(value, version=version)

    def select(self, txn: int, predicate: Predicate) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        state = self._txn_state(txn)
        rows = {row.key: row for row in self.store.visible_rows(predicate.table, state.start_ts)}
        for (table, key), pending in state.row_writes.items():
            if table != predicate.table:
                continue
            if pending is _DELETED:
                rows.pop(key, None)
            else:
                rows[key] = pending.copy()
        matching = [row for _, row in sorted(rows.items()) if predicate.matches(row)]
        return OpResult.ok(matching)

    # -- writes (buffered until commit) ----------------------------------------------------

    def write(self, txn: int, item: str, value: Any) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        self._txn_state(txn).item_writes[item] = value
        return OpResult.ok(value)

    def insert(self, txn: int, table: str, row: Row) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        state = self._txn_state(txn)
        existing = self.store.visible_row(table, row.key, state.start_ts)
        pending = state.row_writes.get((table, row.key))
        if (existing is not None and pending is not _DELETED) or (
                pending is not None and pending is not _DELETED):
            return OpResult.aborted(f"duplicate key {row.key!r} in table {table!r}")
        state.row_writes[(table, row.key)] = row.copy()
        return OpResult.ok(value=row.copy(), item=f"{table}/{row.key}")

    def update_row(self, txn: int, table: str, key: str, changes: Dict[str, Any]) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        state = self._txn_state(txn)
        base = state.row_writes.get((table, key))
        if base is _DELETED:
            return OpResult.aborted(f"row {key!r} deleted by this transaction")
        if base is None:
            base = self.store.visible_row(table, key, state.start_ts)
        if base is None:
            return OpResult.aborted(f"no row {key!r} visible in table {table!r}")
        updated = base.updated(**changes)
        state.row_writes[(table, key)] = updated
        return OpResult.ok(value=updated, item=f"{table}/{key}")

    def delete_row(self, txn: int, table: str, key: str) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        state = self._txn_state(txn)
        visible = state.row_writes.get((table, key))
        if visible is None:
            visible = self.store.visible_row(table, key, state.start_ts)
        if visible is None or visible is _DELETED:
            return OpResult.aborted(f"no row {key!r} visible in table {table!r}")
        state.row_writes[(table, key)] = _DELETED
        return OpResult.ok(item=f"{table}/{key}")

    # -- cursors -------------------------------------------------------------------------------

    def open_cursor(self, txn: int, cursor: str, items: List[str]) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        if not items:
            return OpResult.aborted("cannot open a cursor over no items")
        self._txn_state(txn).cursors[cursor] = _SnapshotCursor(list(items))
        return OpResult.ok()

    def fetch(self, txn: int, cursor: str) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        state = self._txn_state(txn)
        cursor_state = self._cursor(state, cursor)
        if cursor_state.position + 1 >= len(cursor_state.items):
            return OpResult.aborted(f"cursor {cursor!r} has no more items")
        cursor_state.position += 1
        item = cursor_state.items[cursor_state.position]
        if item in state.item_writes:
            return OpResult.ok(state.item_writes[item], item=item)
        value, version = self.store.read_item(item, state.start_ts)
        return OpResult.ok(value, version=version, item=item)

    def cursor_update(self, txn: int, cursor: str, value: Any) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        state = self._txn_state(txn)
        item = self._cursor(state, cursor).current_item
        if item is None:
            return OpResult.aborted(f"cursor {cursor!r} is not positioned on a row")
        state.item_writes[item] = value
        return OpResult.ok(value, item=item)

    def close_cursor(self, txn: int, cursor: str) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        self._txn_state(txn).cursors.pop(cursor, None)
        return OpResult.ok()

    @staticmethod
    def _cursor(state: _SnapshotTxn, cursor: str) -> _SnapshotCursor:
        try:
            return state.cursors[cursor]
        except KeyError:
            raise EngineError(f"no open cursor named {cursor!r}") from None

    # -- termination --------------------------------------------------------------------------

    def commit(self, txn: int) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        state = self._txn_state(txn)
        if self.first_committer_wins:
            conflict = self._first_committer_conflict(state)
            if conflict is not None:
                self.fcw_aborts += 1
                self._mark_aborted(txn, conflict)
                return OpResult.aborted(conflict)
        commit_ts = self.clock.next_commit()
        self._install(txn, state, commit_ts)
        self._mark_committed(txn)
        return OpResult.ok()

    def abort(self, txn: int, reason: str = "voluntary abort") -> OpResult:
        if not self.is_active(txn):
            return OpResult.ok()
        self._mark_aborted(txn, reason)
        return OpResult.ok()

    # -- checkpoint / restore --------------------------------------------------------------------

    def checkpoint(self):
        return (
            self._base_checkpoint(),
            self.database.checkpoint(),
            self.store.checkpoint(),
            self.clock.checkpoint(),
            self.fcw_aborts,
            {
                txn: (state.start_ts, dict(state.item_writes), dict(state.row_writes),
                      {name: (tuple(cursor.items), cursor.position)
                       for name, cursor in state.cursors.items()})
                for txn, state in self._txns.items()
            },
        )

    def state_key(self):
        return (
            self._base_state_key(),
            self.store.state_key(),
            tuple([
                (txn, state.start_ts,
                 # Write-set order stays: commit names the first conflict.
                 tuple([(item, freeze(value))
                        for item, value in state.item_writes.items()]),
                 tuple([(key, freeze(value))
                        for key, value in state.row_writes.items()]),
                 tuple(sorted((name, tuple(cursor.items), cursor.position)
                              for name, cursor in state.cursors.items())))
                for txn, state in self._txns.items()]),
        )

    def restore(self, token) -> None:
        base, database, store, clock, fcw_aborts, txns = token
        self._base_restore(base)
        self.database.restore_checkpoint(database)
        self.store.restore(store)
        self.clock.restore(clock)
        self.fcw_aborts = fcw_aborts
        self._txns = {
            txn: _SnapshotTxn(
                start_ts=start_ts,
                item_writes=dict(item_writes),
                row_writes=dict(row_writes),
                cursors={name: _SnapshotCursor(list(items), position)
                         for name, (items, position) in cursors.items()},
            )
            for txn, (start_ts, item_writes, row_writes, cursors) in txns.items()
        }

    # -- helpers ---------------------------------------------------------------------------------

    def _first_committer_conflict(self, state: _SnapshotTxn) -> Optional[str]:
        """First-Committer-Wins: another transaction committed a write to
        something this transaction also wrote, after this transaction started."""
        for item in state.item_writes:
            if self.store.item_modified_since(item, state.start_ts):
                return (f"first-committer-wins: {item} was committed by another "
                        f"transaction after this transaction's snapshot")
        for table, key in state.row_writes:
            if self.store.row_modified_since(table, key, state.start_ts):
                return (f"first-committer-wins: row {table}/{key} was committed by "
                        f"another transaction after this transaction's snapshot")
        return None

    def _install(self, txn: int, state: _SnapshotTxn, commit_ts: int) -> None:
        """Install the write sets as committed versions and sync the database tip."""
        for item, value in state.item_writes.items():
            self.store.install_item(item, value, commit_ts, txn)
            self.database.set_item(item, value)
        for (table, key), pending in state.row_writes.items():
            live_table = self.database.table(table)
            if pending is _DELETED:
                self.store.install_row(table, key, None, commit_ts, txn)
                if live_table.has(key):
                    live_table.delete(key)
            else:
                self.store.install_row(table, key, pending, commit_ts, txn)
                live_table.upsert(pending.copy())
