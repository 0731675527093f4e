"""Hypothesis strategies shared by the property-based tests."""

from __future__ import annotations

import random
from typing import List, Tuple

from hypothesis import strategies as st

from repro.core.history import History
from repro.core.operations import Operation, OperationKind, WriteAction
from repro.engine.programs import (
    Abort,
    Commit,
    ReadItem,
    TransactionProgram,
    WriteItem,
)

ITEMS = ("x", "y", "z")
PREDICATES = ("P", "Q")

_C = OperationKind.COMMIT
_A = OperationKind.ABORT
#: Every data-access kind the detectors distinguish.
ALL_KINDS = (OperationKind.READ, OperationKind.WRITE,
             OperationKind.CURSOR_READ, OperationKind.CURSOR_WRITE,
             OperationKind.PREDICATE_READ, OperationKind.PREDICATE_WRITE)


def _body(txn: int, pick, max_ops: int, every_kind: bool) -> List[Operation]:
    """One transaction's operations; ``pick(options)`` chooses one option.

    ``every_kind`` widens the plain read/write bodies to cursor and predicate
    operations and lets the transaction stay unterminated.
    """
    ops: List[Operation] = []
    for _ in range(pick(range(1, max_ops + 1))):
        item = pick(ITEMS)
        kind = pick(ALL_KINDS if every_kind
                    else (OperationKind.READ, OperationKind.WRITE))
        if kind is OperationKind.PREDICATE_READ:
            ops.append(Operation(kind, txn, predicate=pick(PREDICATES)))
        elif kind is OperationKind.PREDICATE_WRITE:
            ops.append(Operation(kind, txn, item=item,
                                 predicate=pick(PREDICATES),
                                 write_action=pick(tuple(WriteAction))))
        else:
            ops.append(Operation(kind, txn, item=item))
    terminal = pick((_C, _C, _C, _A, None) if every_kind else (_C, _C, _C, _A))
    if terminal is not None:
        ops.append(Operation(terminal, txn))
    return ops


def _interleave(bodies: List[List[Operation]], pick) -> History:
    remaining = [list(body) for body in bodies]
    merged: List[Operation] = []
    while any(remaining):
        choice = pick([index for index, body in enumerate(remaining) if body])
        merged.append(remaining[choice].pop(0))
    return History(merged)


@st.composite
def transaction_bodies(draw, max_ops: int = 4, every_kind: bool = False):
    """Per-transaction operation bodies: a few reads/writes then commit/abort.

    With ``every_kind`` the bodies also use cursor and predicate operations
    and may end without a terminal.
    """
    def pick(options):
        return draw(st.sampled_from(options))

    return [_body(txn, pick, max_ops, every_kind)
            for txn in range(1, pick(range(1, 4)) + 1)]


@st.composite
def histories(draw, max_ops: int = 4, every_kind: bool = False) -> History:
    """Random histories: random interleavings of random transactions."""
    bodies = draw(transaction_bodies(max_ops=max_ops, every_kind=every_kind))
    return _interleave(bodies, lambda options: draw(st.sampled_from(options)))


def seeded_histories(seed: int, count: int, max_ops: int = 4) -> List[History]:
    """A fixed corpus of ``every_kind`` histories from ``random.Random(seed)``."""
    pick = random.Random(seed).choice
    corpus = []
    for _ in range(count):
        bodies = [_body(txn, pick, max_ops, True)
                  for txn in range(1, pick(range(1, 4)) + 1)]
        corpus.append(_interleave(bodies, pick))
    return corpus


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
