"""Before-image recovery: the undo log that makes P0 (Dirty Write) matter.

Section 3 of the paper: "Without protection from P0, the system can't undo
updates by restoring before images."  The locking engines update the shared
database in place, so transaction rollback is implemented the classical way —
every write first records the before-image of the item or row it is about to
change, and an abort replays those images in reverse order.

The module also exposes :func:`detect_unrecoverable_undo`, used by a test and
an ablation benchmark to demonstrate the paper's point: if dirty writes are
allowed (short write locks), undoing by before-image wipes out another
transaction's update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from .database import Database
from .rows import Row, freeze

__all__ = ["UndoRecord", "UndoLog"]


@dataclass(frozen=True)
class UndoRecord:
    """One before-image: enough to undo a single write."""

    txn: int
    kind: str               # "item", "row-update", "row-insert", "row-delete"
    target: str              # item name, or "table/key" for rows
    before: Any               # previous value / Row copy / None

    def describe(self) -> str:
        """Human-readable rendering, used in failure diagnostics."""
        return f"T{self.txn} {self.kind} {self.target}: before={self.before!r}"


class UndoLog:
    """Per-transaction before-image log with reverse-order rollback."""

    def __init__(self) -> None:
        self._records: Dict[int, List[UndoRecord]] = {}

    # -- recording -----------------------------------------------------------------

    def record_item(self, txn: int, database: Database, item: str) -> None:
        """Record the before-image of a named item (missing item → sentinel)."""
        before = database.get_item(item, _MISSING)
        self._append(UndoRecord(txn, "item", item, before))

    def record_row_update(self, txn: int, table: str, row: Row) -> None:
        """Record the before-image of a row that is about to be updated."""
        self._append(UndoRecord(txn, "row-update", f"{table}/{row.key}", row.copy()))

    def record_row_insert(self, txn: int, table: str, key: str) -> None:
        """Record that a row is being inserted (undo deletes it)."""
        self._append(UndoRecord(txn, "row-insert", f"{table}/{key}", None))

    def record_row_delete(self, txn: int, table: str, row: Row) -> None:
        """Record the image of a row that is about to be deleted."""
        self._append(UndoRecord(txn, "row-delete", f"{table}/{row.key}", row.copy()))

    def _append(self, record: UndoRecord) -> None:
        self._records.setdefault(record.txn, []).append(record)

    # -- rollback / cleanup ------------------------------------------------------------

    def records_of(self, txn: int) -> List[UndoRecord]:
        """The before-images recorded for one transaction, oldest first."""
        return list(self._records.get(txn, []))

    def undo(self, txn: int, database: Database) -> List[UndoRecord]:
        """Roll back a transaction by restoring its before-images in reverse.

        Returns the records that were applied, newest first.
        """
        applied: List[UndoRecord] = []
        for record in reversed(self._records.pop(txn, [])):
            self._apply(record, database)
            applied.append(record)
        return applied

    def forget(self, txn: int) -> None:
        """Discard a transaction's undo records (after a successful commit)."""
        self._records.pop(txn, None)

    # -- checkpoints ---------------------------------------------------------------------

    def checkpoint(self) -> Dict[int, Tuple[UndoRecord, ...]]:
        """A value token of the log (records are immutable, shared by reference)."""
        return {txn: tuple(records) for txn, records in self._records.items()}

    def restore(self, token: Dict[int, Tuple[UndoRecord, ...]]) -> None:
        """Reset the log to a :meth:`checkpoint` token (reusable)."""
        self._records = {txn: list(records) for txn, records in token.items()}

    def state_key(self) -> Tuple:
        """The log as one hashable value: each transaction's images, in order."""
        return tuple(sorted(
            (txn, tuple([(record.kind, record.target, freeze(record.before))
                         for record in records]))
            for txn, records in self._records.items()))

    @staticmethod
    def _apply(record: UndoRecord, database: Database) -> None:
        if record.kind == "item":
            if record.before is _MISSING:
                database.delete_item(record.target)
            else:
                database.set_item(record.target, record.before)
            return
        table_name, _, key = record.target.partition("/")
        table = database.table(table_name)
        if record.kind == "row-insert":
            if table.has(key):
                table.delete(key)
        elif record.kind == "row-update":
            table.upsert(record.before.copy())
        elif record.kind == "row-delete":
            if not table.has(key):
                table.insert(record.before.copy())
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown undo record kind: {record.kind!r}")

    def __len__(self) -> int:
        return sum(len(records) for records in self._records.values())


class _Missing:
    """Sentinel distinguishing "item did not exist" from "item was None"."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<missing>"


_MISSING = _Missing()
