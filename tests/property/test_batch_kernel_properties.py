"""Property-based gate: the batch kernel is byte-equal to the stepwise runner.

The kernel builds its step tables straight from ``ReadItem`` / ``WriteItem`` /
``Commit`` / ``Abort`` steps; random program sets (literal and
context-derived write values, commit or abort terminals) under random
interleavings and every level the kernel emulates must realize exactly what
``ScheduleRunner`` realizes.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.isolation import IsolationLevelName
from repro.engine.scheduler import ScheduleRunner
from repro.explorer.batch_kernel import build_batch_kernel
from repro.storage.database import Database
from repro.testbed import make_engine

from .strategies import ITEMS, interleavings_for, transaction_programs

KERNEL_LEVELS = (
    IsolationLevelName.READ_UNCOMMITTED,
    IsolationLevelName.READ_COMMITTED,
    IsolationLevelName.CURSOR_STABILITY,
    IsolationLevelName.REPEATABLE_READ,
    IsolationLevelName.SERIALIZABLE,
    IsolationLevelName.SNAPSHOT_ISOLATION,
)


def _fresh_database() -> Database:
    database = Database()
    for index, item in enumerate(ITEMS):
        database.set_item(item, index * 10)
    return database


def _outcome_key(outcome):
    return (
        outcome.engine_name,
        outcome.history.to_shorthand(),
        tuple(sorted((txn, state.value) for txn, state in outcome.statuses.items())),
        tuple(sorted((txn, tuple(sorted(ctx.items())))
                     for txn, ctx in outcome.contexts.items())),
        tuple(sorted(outcome.abort_reasons.items())),
        outcome.blocked_events,
        tuple((d.cycle, d.victim) for d in outcome.deadlocks),
        outcome.stalled,
        tuple(sorted(outcome.database.items())),
    )


@st.composite
def program_sets_with_interleavings(draw):
    programs = draw(transaction_programs())
    interleaving = draw(interleavings_for(programs))
    level = draw(st.sampled_from(KERNEL_LEVELS))
    return programs, interleaving, level


@settings(max_examples=60, deadline=None)
@given(program_sets_with_interleavings())
def test_batch_kernel_byte_equal_to_stepwise(case):
    programs, interleaving, level = case
    stepwise = ScheduleRunner(make_engine(_fresh_database(), level), programs,
                              interleaving, collect_traces=False).run()
    kernel = build_batch_kernel(_fresh_database(), programs, level,
                                stepwise.engine_name)
    [(_, fast)] = list(kernel.run_batch([interleaving]))
    assert _outcome_key(fast) == _outcome_key(stepwise)
