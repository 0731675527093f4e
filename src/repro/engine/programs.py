"""Transaction programs: scripted sequences of steps the schedule runner drives.

The paper's scenarios are small application programs — "transfer 40 from x to
y", "insert an employee and bump the count", "add a task if the total is under
8 hours" — executed under a particular interleaving.  A
:class:`TransactionProgram` captures one such program as a list of
:class:`Step` objects.  Steps can reference values read earlier in the same
transaction through the per-transaction *context* (a plain dict), so programs
can express read-modify-write logic ("write x := x + 30") exactly the way the
anomalies require.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from ..storage.predicates import Predicate
from ..storage.rows import Row
from .interface import Engine, OpResult

__all__ = [
    "StepFootprint",
    "Step",
    "ReadItem",
    "WriteItem",
    "SelectPredicate",
    "InsertRow",
    "UpdateRow",
    "DeleteRow",
    "OpenCursor",
    "Fetch",
    "CursorUpdate",
    "CloseCursor",
    "Commit",
    "Abort",
    "TransactionProgram",
]

#: A value in a step may be a literal or a callable computing it from the
#: transaction's context (the dict of values read so far).
ValueSpec = Union[Any, Callable[[Dict[str, Any]], Any]]


def _resolve(value: ValueSpec, context: Dict[str, Any]) -> Any:
    """Evaluate a ValueSpec against the transaction's context."""
    return value(context) if callable(value) else value


@dataclass(frozen=True)
class StepFootprint:
    """The statically-known data footprint of one program step.

    ``reads`` / ``writes`` name the items (or ``table/key`` rows) the step is
    guaranteed to touch.  ``opaque`` marks steps whose footprint cannot be
    determined without running them (predicate selects, cursor fetches,
    computed inserts); consumers such as the explorer's partial-order reducer
    must treat an opaque step as potentially touching everything.
    """

    reads: FrozenSet[str] = frozenset()
    writes: FrozenSet[str] = frozenset()
    opaque: bool = False

    def conflicts_with(self, other: "StepFootprint") -> bool:
        """Write-involved overlap — the commutation test of Section 2.1.

        Opaque footprints conflict with everything; otherwise two footprints
        conflict when one's writes intersect the other's reads or writes.
        Read/read overlap is *not* a conflict: shared locks are compatible and
        swapping two reads never changes either value read.
        """
        if self.opaque or other.opaque:
            return True
        return bool(self.writes & (other.reads | other.writes)) or bool(
            other.writes & self.reads
        )


class Step:
    """One action of a transaction program."""

    def perform(self, engine: Engine, txn: int, context: Dict[str, Any]) -> OpResult:
        """Submit the action to the engine; store results into the context."""
        raise NotImplementedError

    def describe(self) -> str:
        """Short rendering used in traces and failure messages."""
        return type(self).__name__

    def footprint(self) -> StepFootprint:
        """The step's static data footprint (opaque unless a subclass knows better)."""
        return StepFootprint(opaque=True)


@dataclass
class ReadItem(Step):
    """Read a named item, optionally binding the value to a context variable."""

    item: str
    into: Optional[str] = None

    def perform(self, engine: Engine, txn: int, context: Dict[str, Any]) -> OpResult:
        result = engine.read(txn, self.item)
        if result.is_ok:
            context[self.into or self.item] = result.value
        return result

    def describe(self) -> str:
        return f"read {self.item}"

    def footprint(self) -> StepFootprint:
        return StepFootprint(reads=frozenset((self.item,)))


@dataclass
class WriteItem(Step):
    """Write a named item; the value may be computed from the context."""

    item: str
    value: ValueSpec = None

    def perform(self, engine: Engine, txn: int, context: Dict[str, Any]) -> OpResult:
        return engine.write(txn, self.item, _resolve(self.value, context))

    def describe(self) -> str:
        return f"write {self.item}"

    def footprint(self) -> StepFootprint:
        return StepFootprint(writes=frozenset((self.item,)))


@dataclass
class SelectPredicate(Step):
    """Read the rows satisfying a predicate, binding the list to a variable."""

    #: The matched row set depends on runtime table contents, so the static
    #: analyzer must treat the footprint as opaque (explicit marker audited
    #: by repolint's footprint-coverage check).
    opaque_footprint = True

    predicate: Predicate
    into: Optional[str] = None

    def perform(self, engine: Engine, txn: int, context: Dict[str, Any]) -> OpResult:
        result = engine.select(txn, self.predicate)
        if result.is_ok:
            context[self.into or self.predicate.name] = result.value
        return result

    def describe(self) -> str:
        return f"select {self.predicate.name}"


@dataclass
class InsertRow(Step):
    """Insert a row; the row may be computed from the context."""

    #: The row (and hence its key) may be computed from the runtime context,
    #: so the written item is statically unknown: opaque by declaration.
    opaque_footprint = True

    table: str
    row: ValueSpec

    def perform(self, engine: Engine, txn: int, context: Dict[str, Any]) -> OpResult:
        row = _resolve(self.row, context)
        if not isinstance(row, Row):
            raise TypeError(f"InsertRow expects a Row, got {type(row).__name__}")
        return engine.insert(txn, self.table, row)

    def describe(self) -> str:
        return f"insert into {self.table}"


@dataclass
class UpdateRow(Step):
    """Update attributes of a row; changes may be computed from the context."""

    table: str
    key: str
    changes: ValueSpec

    def perform(self, engine: Engine, txn: int, context: Dict[str, Any]) -> OpResult:
        changes = _resolve(self.changes, context)
        return engine.update_row(txn, self.table, self.key, dict(changes))

    def describe(self) -> str:
        return f"update {self.table}/{self.key}"

    def footprint(self) -> StepFootprint:
        return StepFootprint(writes=frozenset((f"{self.table}/{self.key}",)))


@dataclass
class DeleteRow(Step):
    """Delete a row by key."""

    table: str
    key: str

    def perform(self, engine: Engine, txn: int, context: Dict[str, Any]) -> OpResult:
        return engine.delete_row(txn, self.table, self.key)

    def describe(self) -> str:
        return f"delete {self.table}/{self.key}"

    def footprint(self) -> StepFootprint:
        return StepFootprint(writes=frozenset((f"{self.table}/{self.key}",)))


@dataclass
class OpenCursor(Step):
    """Open a cursor over a list of named items."""

    #: Which item a later Fetch/CursorUpdate touches depends on cursor
    #: position at runtime; the whole cursor family is opaque by declaration.
    opaque_footprint = True

    cursor: str
    items: Sequence[str]

    def perform(self, engine: Engine, txn: int, context: Dict[str, Any]) -> OpResult:
        return engine.open_cursor(txn, self.cursor, list(self.items))

    def describe(self) -> str:
        return f"open cursor {self.cursor}"


@dataclass
class Fetch(Step):
    """Fetch the next item of a cursor (the paper's ``rc``)."""

    opaque_footprint = True  # reads whichever item the cursor points at

    cursor: str
    into: Optional[str] = None

    def perform(self, engine: Engine, txn: int, context: Dict[str, Any]) -> OpResult:
        result = engine.fetch(txn, self.cursor)
        if result.is_ok and self.into:
            context[self.into] = result.value
        return result

    def describe(self) -> str:
        return f"fetch {self.cursor}"


@dataclass
class CursorUpdate(Step):
    """Write the current item of a cursor (the paper's ``wc``)."""

    opaque_footprint = True  # writes whichever item the cursor points at

    cursor: str
    value: ValueSpec = None

    def perform(self, engine: Engine, txn: int, context: Dict[str, Any]) -> OpResult:
        return engine.cursor_update(txn, self.cursor, _resolve(self.value, context))

    def describe(self) -> str:
        return f"cursor-update {self.cursor}"


@dataclass
class CloseCursor(Step):
    """Close a cursor."""

    opaque_footprint = True  # releases cursor state; no statically known items

    cursor: str

    def perform(self, engine: Engine, txn: int, context: Dict[str, Any]) -> OpResult:
        return engine.close_cursor(txn, self.cursor)

    def describe(self) -> str:
        return f"close cursor {self.cursor}"


@dataclass
class Commit(Step):
    """Commit the transaction."""

    def perform(self, engine: Engine, txn: int, context: Dict[str, Any]) -> OpResult:
        return engine.commit(txn)

    def describe(self) -> str:
        return "commit"

    def footprint(self) -> StepFootprint:
        # A terminal step touches no new data; the locks it releases cover
        # items earlier steps already claimed, which the static dependency
        # graph accounts for through those steps' own footprints.
        return StepFootprint()


@dataclass
class Abort(Step):
    """Voluntarily abort the transaction (e.g. the A1 dirty-read scenario)."""

    def perform(self, engine: Engine, txn: int, context: Dict[str, Any]) -> OpResult:
        return engine.abort(txn, reason="program abort")

    def describe(self) -> str:
        return "abort"

    def footprint(self) -> StepFootprint:
        return StepFootprint()


@dataclass
class TransactionProgram:
    """A transaction: an identifier plus an ordered list of steps."""

    txn: int
    steps: List[Step]
    label: str = ""

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a transaction program needs at least one step")

    @property
    def display_name(self) -> str:
        """``T<id>`` or the provided label."""
        return self.label or f"T{self.txn}"

    def __len__(self) -> int:
        return len(self.steps)

    def footprints(self) -> Tuple[StepFootprint, ...]:
        """The static footprint of every step, in program order."""
        return tuple(step.footprint() for step in self.steps)
