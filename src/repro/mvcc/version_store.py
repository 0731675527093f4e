"""The multiversion store: committed versions of items and rows, by timestamp.

"At any time, each data item might have multiple versions, created by active
and committed transactions.  Reads by a transaction must choose the
appropriate version." (Section 4.2.)  This store keeps, for every named item
and every table row, the list of *committed* versions in commit-timestamp
order; uncommitted writes live in the owning transaction's private write set
inside the engine and are only installed here at commit.

The store is initialized from a :class:`~repro.storage.database.Database`
snapshot at timestamp 0, and the engines keep the database's "committed tip"
in sync when they install new versions, so that constraint checks and final-
state assertions work uniformly across locking and multiversion engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..storage.database import Database
from ..storage.rows import Row, freeze

__all__ = ["ItemVersion", "RowVersion", "VersionStore"]


@dataclass(frozen=True)
class ItemVersion:
    """One committed version of a named item."""

    value: Any
    commit_ts: int
    txn: Optional[int]  # None for the initial database state


@dataclass(frozen=True)
class RowVersion:
    """One committed version of a table row (``row is None`` means deleted/absent)."""

    row: Optional[Row]
    commit_ts: int
    txn: Optional[int]


class VersionStore:
    """Committed version chains for items and rows."""

    #: Left out of :meth:`state_key`, with why no later step can tell.
    _state_key_derivable = (
        ("_tables", "the keys of each table's chains in _rows; visible_rows "
                    "reads nothing else"),
    )

    def __init__(self, database: Database):
        self._items: Dict[str, List[ItemVersion]] = {}
        self._rows: Dict[Tuple[str, str], List[RowVersion]] = {}
        self._tables: Dict[str, set] = {}
        for name, value in database.items().items():
            self._items[name] = [ItemVersion(value, 0, None)]
        for table_name, table in database.tables().items():
            self._tables[table_name] = set()
            for row in table:
                self._rows[(table_name, row.key)] = [RowVersion(row.copy(), 0, None)]
                self._tables[table_name].add(row.key)

    # -- items --------------------------------------------------------------------

    def read_item(self, item: str, as_of: int) -> Tuple[Any, Optional[int]]:
        """The value of an item visible at a timestamp, and its version index.

        Returns ``(None, None)`` when the item has no version visible at the
        timestamp (it never existed, or was created later).
        """
        versions = self._items.get(item)
        if versions is None:
            return None, None
        # Chains are appended in commit-timestamp order, so the visible
        # version (the last one with commit_ts <= as_of) is found fastest by
        # scanning from the newest end — usually the first probe.
        for index in range(len(versions) - 1, -1, -1):
            version = versions[index]
            if version.commit_ts <= as_of:
                return version.value, index
        return None, None

    def install_item(self, item: str, value: Any, commit_ts: int, txn: int) -> None:
        """Append a new committed version of an item."""
        self._items.setdefault(item, []).append(ItemVersion(value, commit_ts, txn))

    def item_modified_since(self, item: str, since_ts: int) -> bool:
        """True when some transaction committed a new version after ``since_ts``."""
        versions = self._items.get(item)
        # Ascending commit timestamps: any newer version implies the last is.
        return bool(versions) and versions[-1].commit_ts > since_ts

    def item_versions(self, item: str) -> List[ItemVersion]:
        """The full committed version chain of an item (oldest first)."""
        return list(self._items.get(item, []))

    # -- rows -----------------------------------------------------------------------

    def visible_row(self, table: str, key: str, as_of: int) -> Optional[Row]:
        """The row version visible at a timestamp (None when absent/deleted)."""
        versions = self._rows.get((table, key), [])
        visible: Optional[RowVersion] = None
        for version in versions:
            if version.commit_ts <= as_of:
                visible = version
        if visible is None or visible.row is None:
            return None
        return visible.row.copy()

    def visible_rows(self, table: str, as_of: int) -> List[Row]:
        """All rows of a table visible at a timestamp."""
        rows: List[Row] = []
        for key in sorted(self._tables.get(table, set())):
            row = self.visible_row(table, key, as_of)
            if row is not None:
                rows.append(row)
        return rows

    def install_row(self, table: str, key: str, row: Optional[Row],
                    commit_ts: int, txn: int) -> None:
        """Append a new committed row version (``row=None`` records a delete)."""
        stored = row.copy() if row is not None else None
        self._rows.setdefault((table, key), []).append(RowVersion(stored, commit_ts, txn))
        self._tables.setdefault(table, set()).add(key)

    def row_modified_since(self, table: str, key: str, since_ts: int) -> bool:
        """True when the row got a new committed version after ``since_ts``."""
        versions = self._rows.get((table, key))
        return bool(versions) and versions[-1].commit_ts > since_ts

    def row_keys(self, table: str) -> List[str]:
        """Every key that has ever had a version in the table."""
        return sorted(self._tables.get(table, set()))

    # -- checkpoints -----------------------------------------------------------------

    def state_key(self) -> Tuple:
        """Every chain as (value, commit timestamp) pairs, sorted by name.

        Commit timestamps stay: the engines' clocks count commits, so a
        timestamp already is the version's rank in commit order, and reads
        and First-Committer-Wins compare exactly those ranks.  A version's
        writer stays out: no engine action reads it.
        """
        return (
            tuple([(item, tuple([(freeze(version.value), version.commit_ts)
                                 for version in versions]))
                   for item, versions in sorted(self._items.items())]),
            tuple([(key, tuple([(freeze(version.row), version.commit_ts)
                                for version in versions]))
                   for key, versions in sorted(self._rows.items())]),
        )

    def checkpoint(self) -> Tuple:
        """A truncation token: per-chain lengths plus the table key sets.

        Version chains are append-only (``install_item`` / ``install_row``
        only ever append immutable version records), so a checkpoint needs no
        copies of the versions themselves — just how long each chain was.
        Restoring truncates the chains back; this is only sound when rolling
        the store *backwards* along its own execution path, which is exactly
        the schedule explorer's checkpoint discipline.
        """
        return (
            {item: len(versions) for item, versions in self._items.items()},
            {key: len(versions) for key, versions in self._rows.items()},
            {table: frozenset(keys) for table, keys in self._tables.items()},
        )

    def restore(self, token: Tuple) -> None:
        """Truncate every chain back to a :meth:`checkpoint` token (reusable)."""
        item_lengths, row_lengths, tables = token
        for item in [item for item in self._items if item not in item_lengths]:
            del self._items[item]
        for item, length in item_lengths.items():
            versions = self._items[item]
            if len(versions) > length:
                del versions[length:]
        for key in [key for key in self._rows if key not in row_lengths]:
            del self._rows[key]
        for key, length in row_lengths.items():
            versions = self._rows[key]
            if len(versions) > length:
                del versions[length:]
        self._tables = {table: set(keys) for table, keys in tables.items()}
