"""The locking scheduler: one engine implementing every Table 2 isolation level.

The engine updates the shared database *in place* (the classical single-
version architecture the paper's Section 2.3 describes): a write first records
a before-image in the undo log, then applies; an abort restores the before-
images in reverse.  Which locks each action must take — and for how long —
comes from the :class:`~repro.locking.policy.LockingPolicy` chosen at
construction, so the same code realizes Degree 0 through Locking
SERIALIZABLE, plus Cursor Stability.

Blocking is cooperative: a conflicting lock request returns a BLOCKED result
naming the holders, and the schedule runner retries later (and detects
deadlocks on the resulting waits-for graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.isolation import IsolationLevelName
from ..engine.interface import Engine, EngineError, OpResult
from ..storage.database import Database
from ..storage.predicates import Predicate
from ..storage.recovery import UndoLog
from ..storage.rows import Row
from .lock_manager import LockManager
from .modes import ItemTarget, LockDuration, LockMode, PredicateTarget, RowTarget
from .policy import LockingPolicy, LockRule, policy_for

__all__ = ["LockingEngine", "CursorState"]


@dataclass
class CursorState:
    """An open cursor: the items it ranges over and its current position."""

    items: List[str]
    position: int = -1

    @property
    def current_item(self) -> Optional[str]:
        """The item the cursor is positioned on, or None before the first fetch."""
        if 0 <= self.position < len(self.items):
            return self.items[self.position]
        return None

    @property
    def exhausted(self) -> bool:
        """True when every item has been fetched."""
        return self.position + 1 >= len(self.items)


class LockingEngine(Engine):
    """Lock-based concurrency control parameterized by a Table 2 policy."""

    supports_checkpoints = True

    #: Outside the checkpoint token by design: the policy (and the names
    #: derived from it) is immutable per-engine configuration — restoring
    #: around it cannot change any outcome.
    _checkpoint_stable = ("policy", "level", "name")

    def __init__(self, database: Database,
                 level: IsolationLevelName = IsolationLevelName.SERIALIZABLE,
                 policy: Optional[LockingPolicy] = None):
        super().__init__(database)
        self.policy = policy or policy_for(level)
        self.level = self.policy.level
        self.name = f"Locking {self.policy.name}"
        self.locks = LockManager()
        self.undo = UndoLog()
        self._cursors: Dict[Tuple[int, str], CursorState] = {}

    def _item_target(self, item: str) -> ItemTarget:
        # The lock manager interns one immutable target per item name.
        return self.locks.item_target(item)

    def blocking_version(self) -> int:
        # Blocked results depend only on the granted-lock table: the engine
        # mutates the database exclusively alongside granted lock operations,
        # so the table version also covers the pre-lock row reads of
        # update_row/delete_row.
        return self.locks.version

    def blocking_version_for(self, item: Optional[str]) -> int:
        # An item step can only be blocked by locks on that item; non-item
        # steps (rows, predicates, cursors) fall back to the table version.
        locks = self.locks
        return locks.version_for(item) if item is not None else locks.version

    # -- small helpers ----------------------------------------------------------------

    def _acquire(self, txn: int, target, rule: Optional[LockRule],
                 cursor: Optional[str] = None,
                 override_mode: Optional[LockMode] = None) -> Optional[OpResult]:
        """Request the lock a rule demands.  Returns a BLOCKED result or None."""
        if rule is None:
            return None
        mode = override_mode or rule.mode
        result = self.locks.request(txn, target, mode, rule.duration, cursor=cursor)
        if not result.granted:
            return OpResult.blocked(result.blockers,
                                    reason=f"waiting for {mode.value} lock on {target}")
        return None

    def _after_action(self, txn: int, rule: Optional[LockRule]) -> None:
        """Release short-duration locks once the action has completed."""
        if rule is not None and rule.duration is LockDuration.SHORT:
            self.locks.release_short(txn)

    # -- item reads and writes ----------------------------------------------------------

    def read(self, txn: int, item: str) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        rule = self.policy.item_read
        blocked = self._acquire(txn, self._item_target(item), rule)
        if blocked is not None:
            return blocked
        value = self.database.get_item(item)
        self._after_action(txn, rule)
        return OpResult.ok(value)

    def write(self, txn: int, item: str, value: Any) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        rule = self.policy.write
        blocked = self._acquire(txn, self._item_target(item), rule)
        if blocked is not None:
            return blocked
        self.undo.record_item(txn, self.database, item)
        self.database.set_item(item, value)
        self._after_action(txn, rule)
        return OpResult.ok(value)

    # -- predicate reads and row writes ---------------------------------------------------

    def select(self, txn: int, predicate: Predicate) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        rule = self.policy.predicate_read
        blocked = self._acquire(txn, PredicateTarget(predicate), rule)
        if blocked is not None:
            return blocked
        rows = [row.copy() for row in self.database.select(predicate)]
        self._after_action(txn, rule)
        return OpResult.ok(rows)

    def insert(self, txn: int, table: str, row: Row) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        rule = self.policy.write
        target = RowTarget(table, row.key, before=None, after=row)
        blocked = self._acquire(txn, target, rule)
        if blocked is not None:
            return blocked
        self.undo.record_row_insert(txn, table, row.key)
        self.database.table(table).insert(row.copy())
        self._after_action(txn, rule)
        return OpResult.ok(value=row.copy(), item=f"{table}/{row.key}")

    def update_row(self, txn: int, table: str, key: str, changes: Dict[str, Any]) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        current = self.database.table(table).get(key)
        if current is None:
            return OpResult.aborted(f"no row {key!r} in table {table!r}")
        after = current.updated(**changes)
        rule = self.policy.write
        target = RowTarget(table, key, before=current.copy(), after=after)
        blocked = self._acquire(txn, target, rule)
        if blocked is not None:
            return blocked
        self.undo.record_row_update(txn, table, current)
        self.database.table(table).update(key, **changes)
        self._after_action(txn, rule)
        return OpResult.ok(value=after, item=f"{table}/{key}")

    def delete_row(self, txn: int, table: str, key: str) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        current = self.database.table(table).get(key)
        if current is None:
            return OpResult.aborted(f"no row {key!r} in table {table!r}")
        rule = self.policy.write
        target = RowTarget(table, key, before=current.copy(), after=None)
        blocked = self._acquire(txn, target, rule)
        if blocked is not None:
            return blocked
        self.undo.record_row_delete(txn, table, current)
        self.database.table(table).delete(key)
        self._after_action(txn, rule)
        return OpResult.ok(item=f"{table}/{key}")

    # -- cursors (Section 4.1) ---------------------------------------------------------------

    def open_cursor(self, txn: int, cursor: str, items: List[str]) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        if not items:
            return OpResult.aborted("cannot open a cursor over no items")
        self._cursors[(txn, cursor)] = CursorState(list(items))
        return OpResult.ok()

    def fetch(self, txn: int, cursor: str) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        state = self._cursor_state(txn, cursor)
        if state.exhausted:
            return OpResult.aborted(f"cursor {cursor!r} has no more items")
        next_item = state.items[state.position + 1]
        rule = self.policy.cursor_read
        # Moving the cursor releases the lock held on the previous current row.
        if rule is not None and rule.duration is LockDuration.CURSOR:
            self.locks.release_cursor(txn, cursor)
        blocked = self._acquire(txn, self._item_target(next_item), rule, cursor=cursor)
        if blocked is not None:
            return blocked
        state.position += 1
        value = self.database.get_item(next_item)
        self._after_action(txn, rule)
        return OpResult.ok(value=value, item=next_item)

    def cursor_update(self, txn: int, cursor: str, value: Any) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        state = self._cursor_state(txn, cursor)
        item = state.current_item
        if item is None:
            return OpResult.aborted(f"cursor {cursor!r} is not positioned on a row")
        rule = self.policy.write
        blocked = self._acquire(txn, self._item_target(item), rule)
        if blocked is not None:
            return blocked
        self.undo.record_item(txn, self.database, item)
        self.database.set_item(item, value)
        self._after_action(txn, rule)
        return OpResult.ok(value=value, item=item)

    def close_cursor(self, txn: int, cursor: str) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        self.locks.release_cursor(txn, cursor)
        self._cursors.pop((txn, cursor), None)
        return OpResult.ok()

    def _cursor_state(self, txn: int, cursor: str) -> CursorState:
        try:
            return self._cursors[(txn, cursor)]
        except KeyError:
            raise EngineError(f"T{txn} has no open cursor named {cursor!r}") from None

    # -- termination -----------------------------------------------------------------------------

    def commit(self, txn: int) -> OpResult:
        guard = self._require_active(txn)
        if guard is not None:
            return guard
        self.undo.forget(txn)
        self.locks.release_all(txn)
        self._drop_cursors(txn)
        self._mark_committed(txn)
        return OpResult.ok()

    def abort(self, txn: int, reason: str = "voluntary abort") -> OpResult:
        if not self.is_active(txn):
            # Aborting an already-terminated transaction is a no-op for the
            # runner (it may race a deadlock-victim abort with a program step).
            return OpResult.ok()
        self.undo.undo(txn, self.database)
        self.locks.release_all(txn)
        self._drop_cursors(txn)
        self._mark_aborted(txn, reason)
        return OpResult.ok()

    def _drop_cursors(self, txn: int) -> None:
        for key in [key for key in self._cursors if key[0] == txn]:
            del self._cursors[key]

    # -- checkpoint / restore --------------------------------------------------------------------

    def checkpoint(self):
        return (
            self._base_checkpoint(),
            self.database.checkpoint(),
            self.locks.checkpoint(),
            self.undo.checkpoint(),
            {key: (tuple(state.items), state.position)
             for key, state in self._cursors.items()},
        )

    def restore(self, token) -> None:
        base, database, locks, undo, cursors = token
        self._base_restore(base)
        self.database.restore_checkpoint(database)
        self.locks.restore(locks)
        self.undo.restore(undo)
        self._cursors = {
            key: CursorState(list(items), position)
            for key, (items, position) in cursors.items()
        }
