"""Hypothesis strategies shared by the property-based tests."""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import strategies as st

from repro.core.history import History
from repro.core.operations import Operation, OperationKind
from repro.engine.programs import (
    Abort,
    Commit,
    ReadItem,
    TransactionProgram,
    WriteItem,
)

ITEMS = ("x", "y", "z")


@st.composite
def transaction_bodies(draw, max_ops: int = 4):
    """Per-transaction operation bodies: a few reads/writes then commit/abort."""
    transactions = draw(st.integers(min_value=1, max_value=3))
    bodies: List[List[Operation]] = []
    for txn in range(1, transactions + 1):
        length = draw(st.integers(min_value=1, max_value=max_ops))
        ops: List[Operation] = []
        for _ in range(length):
            item = draw(st.sampled_from(ITEMS))
            kind = draw(st.sampled_from((OperationKind.READ, OperationKind.WRITE)))
            ops.append(Operation(kind, txn, item=item))
        terminal = draw(st.sampled_from((OperationKind.COMMIT, OperationKind.COMMIT,
                                         OperationKind.COMMIT, OperationKind.ABORT)))
        ops.append(Operation(terminal, txn))
        bodies.append(ops)
    return bodies


@st.composite
def histories(draw, max_ops: int = 4) -> History:
    """Random complete histories: random interleavings of random transactions."""
    bodies = draw(transaction_bodies(max_ops=max_ops))
    remaining = [list(body) for body in bodies]
    merged: List[Operation] = []
    while any(remaining):
        candidates = [index for index, body in enumerate(remaining) if body]
        choice = draw(st.sampled_from(candidates))
        merged.append(remaining[choice].pop(0))
    return History(merged)


@st.composite
def serial_histories(draw, max_ops: int = 4) -> History:
    """Histories that execute transactions strictly one after another."""
    bodies = draw(transaction_bodies(max_ops=max_ops))
    order = draw(st.permutations(range(len(bodies))))
    merged: List[Operation] = []
    for index in order:
        merged.extend(bodies[index])
    return History(merged)


@st.composite
def transaction_programs(draw, max_transactions: int = 3,
                         max_ops: int = 3) -> List[TransactionProgram]:
    """Random executable program sets: reads/writes over shared items, then a
    terminal (mostly commit).  Value specs mix literals and context-derived
    callables, so WRITE steps exercise both resolution paths."""
    count = draw(st.integers(min_value=1, max_value=max_transactions))
    programs: List[TransactionProgram] = []
    for txn in range(1, count + 1):
        steps = []
        length = draw(st.integers(min_value=1, max_value=max_ops))
        for position in range(length):
            item = draw(st.sampled_from(ITEMS))
            if draw(st.booleans()):
                steps.append(ReadItem(item, into=f"v{position}"))
            else:
                if draw(st.booleans()):
                    steps.append(WriteItem(item, value=draw(
                        st.integers(min_value=-5, max_value=5))))
                else:
                    # Read-modify-write through the per-transaction context.
                    bound = f"v{draw(st.integers(min_value=0, max_value=max(0, position - 1)))}"
                    steps.append(WriteItem(
                        item,
                        value=(lambda ctx, key=bound: (ctx.get(key) or 0) + 1)))
        terminal = draw(st.sampled_from((Commit, Commit, Commit, Abort)))
        steps.append(terminal())
        programs.append(TransactionProgram(txn, steps))
    return programs


@st.composite
def interleavings_for(draw, programs: List[TransactionProgram]) -> Tuple[int, ...]:
    """A random complete interleaving of the programs' slots."""
    remaining = {program.txn: len(program) for program in programs}
    slots: List[int] = []
    while any(remaining.values()):
        candidates = [txn for txn, left in remaining.items() if left]
        choice = draw(st.sampled_from(candidates))
        remaining[choice] -= 1
        slots.append(choice)
    return tuple(slots)
