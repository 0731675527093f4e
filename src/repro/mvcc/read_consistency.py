"""Oracle-style Read Consistency: statement-level snapshots, first-writer-wins.

Section 4.3 of the paper: "Oracle Read Consistency isolation gives each SQL
statement the most recent committed database value at the time the statement
began ... The members of a cursor set are as of the time of the Open Cursor
... Row inserts, updates, and deletes are covered by Write locks to give a
first-writer-wins rather than a first-committer-wins policy.  Read Consistency
is stronger than READ COMMITTED (it disallows cursor lost updates (P4C)) but
allows non-repeatable reads, general lost updates (P4), and read skew (A5A)."

The implementation mirrors that description:

* Every read/select uses the *latest committed* state at the moment the
  statement runs (so two reads in one transaction can see different snapshots,
  unlike Snapshot Isolation's transaction-wide snapshot).
* Writes take long-duration exclusive locks through a
  :class:`~repro.locking.lock_manager.LockManager` — first-writer-wins — and
  are buffered until commit.
* A cursor remembers the timestamp at which it was opened; updating the
  current row of a cursor fails (aborting the transaction) when the row has
  been committed by someone else since the cursor's snapshot, which is what
  rules out P4C while leaving plain P4 possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.isolation import IsolationLevelName
from ..engine.interface import Engine, EngineError, OpResult
from ..locking.lock_manager import LockManager
from ..locking.modes import LockDuration, LockMode, RowTarget
from ..storage.database import Database
from ..storage.predicates import Predicate
from ..storage.rows import Row
from .timestamps import TimestampAuthority
from .version_store import VersionStore

__all__ = ["ReadConsistencyEngine"]

_DELETED = object()


@dataclass
class _ReadConsistencyTxn:
    item_writes: Dict[str, Any] = field(default_factory=dict)
    row_writes: Dict[Tuple[str, str], Any] = field(default_factory=dict)
    cursors: Dict[str, "_ConsistentCursor"] = field(default_factory=dict)


@dataclass
class _ConsistentCursor:
    items: List[str]
    open_ts: int
    position: int = -1

    @property
    def current_item(self) -> Optional[str]:
        if 0 <= self.position < len(self.items):
            return self.items[self.position]
        return None


class ReadConsistencyEngine(Engine):
    """Statement-level multiversion reads with first-writer-wins write locks."""

    level = IsolationLevelName.ORACLE_READ_CONSISTENCY
    name = "Oracle Read Consistency"
    supports_checkpoints = True

    def __init__(self, database: Database,
                 authority: Optional[TimestampAuthority] = None):
        super().__init__(database)
        self.store = VersionStore(database)
        self.clock = authority or TimestampAuthority()
        self.locks = LockManager()
        self._txns: Dict[int, _ReadConsistencyTxn] = {}

    # -- lifecycle -------------------------------------------------------------------

    def begin(self, txn: int) -> None:
        super().begin(txn)
        self._txns[txn] = _ReadConsistencyTxn()

    def _txn_state(self, txn: int) -> _ReadConsistencyTxn:
        try:
            return self._txns[txn]
        except KeyError:
            raise EngineError(f"unknown transaction T{txn}") from None

    def blocking_version(self) -> int:
        # Only write-lock conflicts block here; reads never do.  Lock-table
        # changes and commit installs go hand in hand (commit releases the
        # writer's locks), so the table version covers blocked outcomes.
        return self.locks.version

    def blocking_version_for(self, item: Optional[str]) -> int:
        # A blocked write waits only for write locks on its own item.
        locks = self.locks
        return locks.version_for(item) if item is not None else locks.version

    # -- reads: statement-level snapshots ------------------------------------------------

    def read(self, txn: int, item: str) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        state = self._txn_state(txn)
        if item in state.item_writes:
            return OpResult.ok(state.item_writes[item])
        value, version = self.store.read_item(item, self.clock.now())
        return OpResult.ok(value, version=version)

    def select(self, txn: int, predicate: Predicate) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        state = self._txn_state(txn)
        statement_ts = self.clock.now()
        rows = {row.key: row for row in self.store.visible_rows(predicate.table, statement_ts)}
        for (table, key), pending in state.row_writes.items():
            if table != predicate.table:
                continue
            if pending is _DELETED:
                rows.pop(key, None)
            else:
                rows[key] = pending.copy()
        matching = [row for _, row in sorted(rows.items()) if predicate.matches(row)]
        return OpResult.ok(matching)

    # -- writes: first-writer-wins via long write locks -------------------------------------

    def _lock_item(self, txn: int, item: str) -> Optional[OpResult]:
        target = self.locks.item_target(item)
        result = self.locks.request(txn, target, LockMode.EXCLUSIVE,
                                    LockDuration.LONG)
        if not result.granted:
            return OpResult.blocked(result.blockers,
                                    reason=f"waiting for write lock on {item}")
        return None

    def _lock_row(self, txn: int, table: str, key: str,
                  before: Optional[Row], after: Optional[Row]) -> Optional[OpResult]:
        target = RowTarget(table, key, before=before, after=after)
        result = self.locks.request(txn, target, LockMode.EXCLUSIVE, LockDuration.LONG)
        if not result.granted:
            return OpResult.blocked(result.blockers,
                                    reason=f"waiting for write lock on {table}/{key}")
        return None

    def write(self, txn: int, item: str, value: Any) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        blocked = self._lock_item(txn, item)
        if blocked is not None:
            return blocked
        self._txn_state(txn).item_writes[item] = value
        return OpResult.ok(value)

    def insert(self, txn: int, table: str, row: Row) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        state = self._txn_state(txn)
        existing = self.store.visible_row(table, row.key, self.clock.now())
        if existing is not None or (table, row.key) in state.row_writes:
            return OpResult.aborted(f"duplicate key {row.key!r} in table {table!r}")
        blocked = self._lock_row(txn, table, row.key, before=None, after=row)
        if blocked is not None:
            return blocked
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
            base = self.store.visible_row(table, key, self.clock.now())
        if base is None:
            return OpResult.aborted(f"no row {key!r} visible in table {table!r}")
        updated = base.updated(**changes)
        blocked = self._lock_row(txn, table, key, before=base, after=updated)
        if blocked is not None:
            return blocked
        state.row_writes[(table, key)] = updated
        return OpResult.ok(value=updated, item=f"{table}/{key}")

    def delete_row(self, txn: int, table: str, key: str) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        state = self._txn_state(txn)
        base = state.row_writes.get((table, key))
        if base is None:
            base = self.store.visible_row(table, key, self.clock.now())
        if base is None or base is _DELETED:
            return OpResult.aborted(f"no row {key!r} visible in table {table!r}")
        blocked = self._lock_row(txn, table, key, before=base, after=None)
        if blocked is not None:
            return blocked
        state.row_writes[(table, key)] = _DELETED
        return OpResult.ok(item=f"{table}/{key}")

    # -- cursors: members are as of the Open Cursor ---------------------------------------------

    def open_cursor(self, txn: int, cursor: str, items: List[str]) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        if not items:
            return OpResult.aborted("cannot open a cursor over no items")
        self._txn_state(txn).cursors[cursor] = _ConsistentCursor(
            list(items), open_ts=self.clock.now())
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
        value, version = self.store.read_item(item, cursor_state.open_ts)
        return OpResult.ok(value, version=version, item=item)

    def cursor_update(self, txn: int, cursor: str, value: Any) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        state = self._txn_state(txn)
        cursor_state = self._cursor(state, cursor)
        item = cursor_state.current_item
        if item is None:
            return OpResult.aborted(f"cursor {cursor!r} is not positioned on a row")
        if self.store.item_modified_since(item, cursor_state.open_ts):
            reason = (f"cursor update conflict: {item} changed since the cursor "
                      f"opened (write covered by first-writer-wins)")
            self._mark_aborted(txn, reason)
            self.locks.release_all(txn)
            return OpResult.aborted(reason)
        blocked = self._lock_item(txn, item)
        if blocked is not None:
            return blocked
        state.item_writes[item] = value
        return OpResult.ok(value, item=item)

    def close_cursor(self, txn: int, cursor: str) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        self._txn_state(txn).cursors.pop(cursor, None)
        return OpResult.ok()

    @staticmethod
    def _cursor(state: _ReadConsistencyTxn, cursor: str) -> _ConsistentCursor:
        try:
            return state.cursors[cursor]
        except KeyError:
            raise EngineError(f"no open cursor named {cursor!r}") from None

    # -- termination ------------------------------------------------------------------------------

    def commit(self, txn: int) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        state = self._txn_state(txn)
        commit_ts = self.clock.next_commit()
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
        self.locks.release_all(txn)
        self._mark_committed(txn)
        return OpResult.ok()

    def abort(self, txn: int, reason: str = "voluntary abort") -> OpResult:
        if not self.is_active(txn):
            return OpResult.ok()
        self.locks.release_all(txn)
        self._mark_aborted(txn, reason)
        return OpResult.ok()

    # -- checkpoint / restore --------------------------------------------------------------------

    def checkpoint(self):
        return (
            self._base_checkpoint(),
            self.database.checkpoint(),
            self.store.checkpoint(),
            self.clock.checkpoint(),
            self.locks.checkpoint(),
            {
                txn: (dict(state.item_writes), dict(state.row_writes),
                      {name: (tuple(cursor.items), cursor.open_ts, cursor.position)
                       for name, cursor in state.cursors.items()})
                for txn, state in self._txns.items()
            },
        )

    def restore(self, token) -> None:
        base, database, store, clock, locks, txns = token
        self._base_restore(base)
        self.database.restore_checkpoint(database)
        self.store.restore(store)
        self.clock.restore(clock)
        self.locks.restore(locks)
        self._txns = {
            txn: _ReadConsistencyTxn(
                item_writes=dict(item_writes),
                row_writes=dict(row_writes),
                cursors={name: _ConsistentCursor(list(items), open_ts, position)
                         for name, (items, open_ts, position) in cursors.items()},
            )
            for txn, (item_writes, row_writes, cursors) in txns.items()
        }
