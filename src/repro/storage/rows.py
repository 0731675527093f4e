"""Rows and tables: the data the predicate scenarios operate on.

The paper's broad reading of "data item" (Section 2.1, following [EGLT])
covers table rows as well as whole tables; its predicate phenomena (P3/A3)
need a notion of rows that satisfy a ``<search condition>``, including
*phantom* rows not currently present.  This module provides a small in-memory
row/table model: rows are dictionaries of attributes addressed by a key, and
tables are ordered collections of rows.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional

__all__ = ["Row", "Table", "freeze"]


@dataclass
class Row:
    """A table row: a key plus a mutable attribute mapping.

    Rows compare equal by value (key and attributes), which makes snapshot
    comparison in tests straightforward.
    """

    key: str
    attributes: Dict[str, Any] = field(default_factory=dict)

    def get(self, attribute: str, default: Any = None) -> Any:
        """Read one attribute (returning ``default`` when absent)."""
        return self.attributes.get(attribute, default)

    def set(self, attribute: str, value: Any) -> None:
        """Write one attribute in place."""
        self.attributes[attribute] = value

    def updated(self, **changes: Any) -> "Row":
        """A copy of the row with some attributes changed."""
        merged = dict(self.attributes)
        merged.update(changes)
        return Row(self.key, merged)

    def copy(self) -> "Row":
        """A deep copy (attribute values are copied too)."""
        return Row(self.key, copy.deepcopy(self.attributes))

    def __getitem__(self, attribute: str) -> Any:
        return self.attributes[attribute]

    def __setitem__(self, attribute: str, value: Any) -> None:
        self.attributes[attribute] = value

    def __contains__(self, attribute: str) -> bool:
        return attribute in self.attributes


class Table:
    """An ordered collection of rows addressed by key."""

    def __init__(self, name: str, rows: Optional[Iterable[Row]] = None):
        self.name = name
        self._rows: Dict[str, Row] = {}
        for row in rows or ():
            self.insert(row)

    # -- mutation --------------------------------------------------------------

    def insert(self, row: Row) -> None:
        """Add a new row; the key must not already exist."""
        if row.key in self._rows:
            raise KeyError(f"duplicate key {row.key!r} in table {self.name!r}")
        self._rows[row.key] = row

    def upsert(self, row: Row) -> None:
        """Insert the row, replacing any existing row with the same key."""
        self._rows[row.key] = row

    def delete(self, key: str) -> Row:
        """Remove and return the row with the given key."""
        try:
            return self._rows.pop(key)
        except KeyError:
            raise KeyError(f"no row {key!r} in table {self.name!r}") from None

    def update(self, key: str, **changes: Any) -> Row:
        """Apply attribute changes to an existing row and return it."""
        row = self.get(key)
        if row is None:
            raise KeyError(f"no row {key!r} in table {self.name!r}")
        for attribute, value in changes.items():
            row.set(attribute, value)
        return row

    # -- access ----------------------------------------------------------------

    def get(self, key: str) -> Optional[Row]:
        """The row with the given key, or None."""
        return self._rows.get(key)

    def has(self, key: str) -> bool:
        """True when a row with the key exists."""
        return key in self._rows

    def rows(self) -> List[Row]:
        """All rows, in insertion order."""
        return list(self._rows.values())

    def keys(self) -> List[str]:
        """All row keys, in insertion order."""
        return list(self._rows.keys())

    def select(self, condition) -> List[Row]:
        """All rows satisfying a condition (callable ``row -> bool``)."""
        return [row for row in self._rows.values() if condition(row)]

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows.values())

    def __contains__(self, key: str) -> bool:
        return key in self._rows

    def copy(self) -> "Table":
        """A deep copy of the table (rows are copied)."""
        return Table(self.name, (row.copy() for row in self._rows.values()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Table {self.name!r} rows={len(self)}>"


def freeze(value: Any) -> Any:
    """A hashable stand-in for an engine value, equal exactly when the values are.

    State keys (``state_key()`` on the engines and their stores) hold item
    values, context bindings and row images.  Rows and lists of rows — what
    a predicate select binds — are mutable and unhashable, so they are keyed
    by content: a row by its key and sorted attributes, a list by its
    elements, each tagged with its type so a list never equals a tuple.
    Every other value is its own key; one that is still unhashable keeps
    its state off the transition table.
    """
    kind = type(value)
    if kind is Row:
        return (Row, value.key, tuple(sorted(
            (name, freeze(item)) for name, item in value.attributes.items())))
    if kind is list:
        return (list, tuple([freeze(item) for item in value]))
    return value
