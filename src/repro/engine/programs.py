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

from ..core.operations import OperationKind
from ..storage.predicates import Predicate
from ..storage.rows import Row
from .interface import (
    OP_ABORT,
    OP_COMMIT,
    OP_GENERIC,
    OP_READ,
    OP_WRITE,
    Engine,
    OpResult,
)

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
    "CompiledStep",
    "CompiledProgram",
    "CompiledProgramSet",
    "compile_step",
    "compile_program",
    "compile_programs",
    "BatchProgram",
    "BatchTableSet",
    "emit_batch_tables",
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
        # items earlier steps already claimed, which occurrence-level analyses
        # (see repro.explorer.reduction) account for by accumulation.
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


# -- the compile pass (the scheduler's slot-program step kernel) ------------------------
#
# The schedule explorer replays the same programs under thousands of
# interleavings; per attempt, the stepwise path pays a polymorphic
# ``step.perform`` dispatch, a second dispatch into the engine method, a
# ``_resolve`` call, and an ``isinstance`` chain mapping the completed step to
# its history operation.  Compilation flattens each program into monomorphic
# step tables — op codes, item names, interned item ids, value specs, realized
# operation kinds, and footprints as tuples of ints — that
# :meth:`repro.engine.scheduler.ScheduleRunner.run_compiled` dispatches on
# directly and engines consume through their narrow
# :meth:`~repro.engine.interface.Engine.apply_step` entry point.  The stepwise
# API stays the source of truth: a compiled run must be byte-equal to the
# stepwise run of the same schedule (gated by tests/engine and
# tests/explorer).

#: Tuple layout of one compiled step (plain tuples: hot-path indexing).
#: ``(opcode, item, value_spec, value_is_callable, into, op_kind, step,
#: describe, op_cache)`` — ``op_cache`` is a per-step dict interning the
#: realized Operation by (value, version): opcode, kind, txn, and item are
#: fixed per step, so the remaining pair identifies the operation.
CompiledStep = Tuple[int, Optional[str], Any, bool, Optional[str],
                     Optional[OperationKind], Step, str, Dict[Any, Any]]


def compile_step(step: Step) -> CompiledStep:
    """Flatten one step into its monomorphic dispatch record.

    Only the exact core step types compile to dedicated op codes — a subclass
    overriding :meth:`Step.perform` falls back to :data:`OP_GENERIC`, which
    preserves its behaviour by calling ``perform`` as the stepwise path does.
    """
    cls = type(step)
    if cls is ReadItem:
        return (OP_READ, step.item, None, False, step.into or step.item,
                OperationKind.READ, step, f"read {step.item}", {})
    if cls is WriteItem:
        return (OP_WRITE, step.item, step.value, callable(step.value), None,
                OperationKind.WRITE, step, f"write {step.item}", {})
    if cls is Commit:
        return (OP_COMMIT, None, None, False, None,
                OperationKind.COMMIT, step, "commit", {})
    if cls is Abort:
        return (OP_ABORT, None, None, False, None,
                OperationKind.ABORT, step, "abort", {})
    return (OP_GENERIC, None, None, False, None, None, step, step.describe(), {})


@dataclass(frozen=True)
class CompiledProgram:
    """One transaction program flattened into step tables.

    ``read_ids`` / ``write_ids`` carry each step's footprint as tuples of item
    ids (indices into the program set's item table); ``opaque`` marks steps
    whose footprint is unknowable statically.  Together they are the integer
    form of :meth:`TransactionProgram.footprints`, cheap to turn into bitmask
    commutation tables (see :mod:`repro.explorer.reduction`).
    """

    txn: int
    steps: Tuple[CompiledStep, ...]
    read_ids: Tuple[Tuple[int, ...], ...]
    write_ids: Tuple[Tuple[int, ...], ...]
    opaque: Tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class CompiledProgramSet:
    """Every program of a set compiled against one shared item-id table."""

    programs: Tuple[CompiledProgram, ...]
    item_ids: Dict[str, int]

    def by_txn(self) -> Dict[int, CompiledProgram]:
        return {program.txn: program for program in self.programs}


def compile_program(program: TransactionProgram,
                    item_ids: Dict[str, int]) -> CompiledProgram:
    """Compile one program, interning item names into ``item_ids`` (mutated)."""
    read_ids: List[Tuple[int, ...]] = []
    write_ids: List[Tuple[int, ...]] = []
    opaque: List[bool] = []

    def intern(names: FrozenSet[str]) -> Tuple[int, ...]:
        ids = []
        for name in sorted(names):
            idx = item_ids.get(name)
            if idx is None:
                idx = item_ids[name] = len(item_ids)
            ids.append(idx)
        return tuple(ids)

    for step in program.steps:
        footprint = step.footprint()
        opaque.append(footprint.opaque)
        read_ids.append(intern(footprint.reads) if not footprint.opaque else ())
        write_ids.append(intern(footprint.writes) if not footprint.opaque else ())
    return CompiledProgram(
        txn=program.txn,
        steps=tuple(compile_step(step) for step in program.steps),
        read_ids=tuple(read_ids),
        write_ids=tuple(write_ids),
        opaque=tuple(opaque),
    )


def compile_programs(programs: Sequence[TransactionProgram]) -> CompiledProgramSet:
    """Compile a whole program set against one shared item-id table."""
    item_ids: Dict[str, int] = {}
    return CompiledProgramSet(
        programs=tuple(compile_program(program, item_ids) for program in programs),
        item_ids=item_ids,
    )


# -- batch table emission (the explorer's batch-drain kernel) ----------------------------
#
# The batch kernel (repro.explorer.batch_kernel) executes many schedules of
# one program set against flat per-transaction step tables: plain int tuples
# of op codes and item ids.  Emission lives here, next to compile_step,
# because the tables are a projection of the compiled step tables — the
# kernel reaches value specs, ``into`` bindings, and the per-step
# operation-interning caches through the CompiledProgramSet it was built
# from, so both kernels share one set of interned Operations.

@dataclass(frozen=True)
class BatchProgram:
    """One program's steps as flat int tables (indices into the item table).

    ``item_ids[i]`` is ``-1`` for steps without an item (commit/abort);
    ``supported`` is False when any step compiles to :data:`OP_GENERIC` —
    such programs cannot run on the batch kernel and must take the stepwise
    path.
    """

    txn: int
    opcodes: Tuple[int, ...]
    item_ids: Tuple[int, ...]
    supported: bool


@dataclass(frozen=True)
class BatchTableSet:
    """Every program of a set as batch tables over one shared item table.

    ``item_names`` maps item id -> name (the table's own interning order:
    first encounter across programs in step order).
    """

    programs: Tuple[BatchProgram, ...]
    item_names: Tuple[str, ...]
    supported: bool

    def by_txn(self) -> Dict[int, BatchProgram]:
        return {program.txn: program for program in self.programs}


def emit_batch_tables(compiled: CompiledProgramSet) -> BatchTableSet:
    """Project a compiled program set onto flat batch tables.

    Item names are interned into a fresh table (the compiled set's
    ``item_ids`` covers only static footprints, which by construction agree
    with step items for the core step types — but the batch tables stand on
    their own mapping so emission never depends on footprint completeness).
    """
    ids: Dict[str, int] = {}
    programs: List[BatchProgram] = []
    all_supported = True
    for program in compiled.programs:
        opcodes: List[int] = []
        items: List[int] = []
        supported = True
        for cstep in program.steps:
            opcode = cstep[0]
            opcodes.append(opcode)
            name = cstep[1]
            if name is None:
                items.append(-1)
            else:
                idx = ids.get(name)
                if idx is None:
                    idx = ids[name] = len(ids)
                items.append(idx)
            if opcode == OP_GENERIC:
                supported = False
        all_supported = all_supported and supported
        programs.append(BatchProgram(
            txn=program.txn,
            opcodes=tuple(opcodes),
            item_ids=tuple(items),
            supported=supported,
        ))
    names = [""] * len(ids)
    for name, idx in ids.items():
        names[idx] = name
    return BatchTableSet(
        programs=tuple(programs),
        item_names=tuple(names),
        supported=all_supported,
    )
