"""The in-memory database: named items, tables of rows, and constraints.

This is the shared mutable state that the *locking* engines update in place
(with before-image recovery via :mod:`repro.storage.recovery`), and that the
*multiversion* engines treat as the committed tip of the version store.  It
deliberately stays small: named scalar items model the paper's ``x``, ``y``,
``z`` bank balances and counters, and tables of rows support the predicate
scenarios (employees, job tasks).
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .constraints import Constraint
from .predicates import Predicate
from .rows import Row, Table, freeze

__all__ = ["Database", "DatabaseSnapshot"]


class DatabaseSnapshot:
    """An immutable deep copy of a database state, for comparison in tests."""

    def __init__(self, items: Dict[str, Any], tables: Dict[str, Table]):
        self.items = items
        self.tables = tables

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseSnapshot):
            return NotImplemented
        if self.items != other.items:
            return False
        if set(self.tables) != set(other.tables):
            return False
        for name, table in self.tables.items():
            mine = {row.key: row.attributes for row in table}
            theirs = {row.key: row.attributes for row in other.tables[name]}
            if mine != theirs:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DatabaseSnapshot items={self.items}>"


class Database:
    """Named data items + tables + registered constraints."""

    #: Constraints are registered at setup time and intentionally excluded
    #: from snapshot/restore, which covers data (items + tables) only.
    _checkpoint_stable = ("_constraints",)

    def __init__(self) -> None:
        self._items: Dict[str, Any] = {}
        self._tables: Dict[str, Table] = {}
        self._constraints: List[Constraint] = []

    # -- scalar items ------------------------------------------------------------

    def set_item(self, name: str, value: Any) -> None:
        """Create or overwrite a named data item."""
        self._items[name] = value

    def get_item(self, name: str, default: Any = None) -> Any:
        """Read a named data item (returning ``default`` when absent)."""
        return self._items.get(name, default)

    def has_item(self, name: str) -> bool:
        """True when the item exists."""
        return name in self._items

    def delete_item(self, name: str) -> None:
        """Remove a named data item."""
        self._items.pop(name, None)

    def items(self) -> Dict[str, Any]:
        """A copy of the item namespace."""
        return dict(self._items)

    # -- tables --------------------------------------------------------------------

    def create_table(self, name: str, rows: Optional[Iterable[Row]] = None) -> Table:
        """Create a table (error if it already exists)."""
        if name in self._tables:
            raise KeyError(f"table {name!r} already exists")
        table = Table(name, rows)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        """Fetch a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        """True when the table exists."""
        return name in self._tables

    def tables(self) -> Dict[str, Table]:
        """The table namespace (live references)."""
        return dict(self._tables)

    def select(self, predicate: Predicate) -> List[Row]:
        """All rows of the predicate's table currently satisfying it."""
        return self.table(predicate.table).select(predicate.matches)

    # -- constraints ------------------------------------------------------------------

    def add_constraint(self, constraint: Constraint) -> None:
        """Register an invariant that :meth:`constraints_hold` will check."""
        self._constraints.append(constraint)

    @property
    def constraints(self) -> List[Constraint]:
        """The registered constraints."""
        return list(self._constraints)

    def violated_constraints(self) -> List[Constraint]:
        """The registered constraints the current state violates."""
        return [c for c in self._constraints if not c.holds(self)]

    def constraints_hold(self) -> bool:
        """True when every registered constraint holds (C(DB) is TRUE)."""
        return not self.violated_constraints()

    # -- snapshots -----------------------------------------------------------------------

    def snapshot(self) -> DatabaseSnapshot:
        """A deep, immutable copy of the current state."""
        return DatabaseSnapshot(
            items=copy.deepcopy(self._items),
            tables={name: table.copy() for name, table in self._tables.items()},
        )

    def restore(self, snapshot: DatabaseSnapshot) -> None:
        """Replace the current state with a snapshot's."""
        self._items = copy.deepcopy(snapshot.items)
        self._tables = {name: table.copy() for name, table in snapshot.tables.items()}

    # -- checkpoints (cheap, for the prefix-sharing executor) ----------------------------

    def checkpoint(self) -> "Tuple[Dict[str, Any], Dict[str, Tuple[Row, ...]]]":
        """A cheap state token for :meth:`restore_checkpoint`.

        Unlike :meth:`snapshot`, item values are copied by reference: engines
        replace item values wholesale (``set_item``) and never mutate them in
        place, so sharing them is sound.  Rows *are* copied, because
        ``Table.update`` mutates rows in place.
        """
        return (
            dict(self._items),
            {name: tuple(row.copy() for row in table)
             for name, table in self._tables.items()},
        )

    def restore_checkpoint(self, token: "Tuple[Dict[str, Any], Dict[str, Tuple[Row, ...]]]") -> None:
        """Reset items and tables to a :meth:`checkpoint` token (reusable)."""
        items, tables = token
        self._items = dict(items)
        self._tables = {
            name: Table(name, (row.copy() for row in rows))
            for name, rows in tables.items()
        }

    def state_key(self) -> Tuple:
        """Items and tables as one hashable value (see :func:`~.rows.freeze`).

        Items are sorted by name: nothing reads their insertion order.  Rows
        keep table order, because a select returns them in it.
        """
        return (
            tuple([(name, freeze(value))
                   for name, value in sorted(self._items.items())]),
            tuple([(name, tuple([freeze(row) for row in table]))
                   for name, table in self._tables.items()]),
        )

    def clone(self) -> "Database":
        """An independent copy of the database (constraints shared by reference)."""
        other = Database()
        other.restore(self.snapshot())
        for constraint in self._constraints:
            other.add_constraint(constraint)
        return other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Database items={self._items} tables={list(self._tables)}>"
