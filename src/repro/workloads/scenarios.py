"""The paper's anomaly scenarios as executable workloads (Table 4's columns).

Each :class:`AnomalyScenario` corresponds to one column of Table 4 (P0, P1,
P4C, P4, P2, P3, A5A, A5B).  A scenario consists of one or more
:class:`ScenarioVariant` objects: a fresh initial database, a set of
transaction programs, the adversarial interleaving, and a ``manifests``
predicate that decides — from values observed, the realized history, and the
final database state — whether the anomaly actually produced a wrong result.

Variants are how the paper's "Sometimes Possible" cells arise: Cursor
Stability, for example, prevents the lost update when the read-modify-write
goes through a cursor but not when it uses plain reads, and Snapshot Isolation
prevents the ANSI-style phantom (rereading a predicate) but not the
constraint-violating disjoint-insert phantom of Section 4.2.

:func:`run_variant` replays one variant's printed interleaving (or any
other) against a fresh engine; it is the from-scratch oracle the schedule
explorer (:mod:`repro.explorer.scenarios`) is held to.  The Table 4 cells
themselves aggregate whole interleaving spaces
(:func:`repro.analysis.matrix.compute_table4_explored`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.phenomena import P1_DIRTY_READ, P4C_CURSOR_LOST_UPDATE
from ..engine.interface import Engine
from ..engine.outcomes import ExecutionOutcome
from ..engine.programs import (
    Abort,
    Commit,
    Fetch,
    InsertRow,
    OpenCursor,
    ReadItem,
    SelectPredicate,
    TransactionProgram,
    WriteItem,
    CursorUpdate,
)
from ..engine.scheduler import ScheduleRunner
from ..storage.constraints import (
    items_equal,
    items_sum_at_least,
    items_sum_equals,
    predicate_count_matches_item,
    predicate_sum_at_most,
)
from ..storage.database import Database
from ..storage.predicates import attribute_equals, whole_table
from ..storage.rows import Row

__all__ = [
    "ScenarioVariant",
    "AnomalyScenario",
    "VariantResult",
    "EngineFactory",
    "ALL_SCENARIOS",
    "scenario_by_code",
    "run_variant",
]

EngineFactory = Callable[[Database], Engine]


@dataclass
class ScenarioVariant:
    """One concrete realization of an anomaly scenario."""

    name: str
    build_database: Callable[[], Database]
    build_programs: Callable[[], List[TransactionProgram]]
    interleaving: List[int]
    manifests: Callable[[ExecutionOutcome], bool]
    description: str = ""


@dataclass
class AnomalyScenario:
    """A Table 4 column: a phenomenon code plus its scenario variants."""

    code: str
    name: str
    description: str
    variants: List[ScenarioVariant]

    def variant(self, name: str) -> ScenarioVariant:
        """Look up a variant by name."""
        for variant in self.variants:
            if variant.name == name:
                return variant
        raise KeyError(f"scenario {self.code} has no variant named {name!r}")


@dataclass(frozen=True)
class VariantResult:
    """The outcome of running one variant against one engine.

    A *stalled* run (the schedule runner gave up: no progress, no deadlock to
    break) is a first-class non-manifesting result, not an error: under
    locking engines, arbitrary interleavings routinely block, and a workload
    that wedges an engine has certainly not produced the anomaly's wrong
    result.  ``manifests`` is never consulted on a stalled outcome — the
    half-run database state it would inspect is meaningless.
    """

    scenario_code: str
    variant_name: str
    engine_name: str
    manifested: bool
    outcome: ExecutionOutcome
    stalled: bool = False


def run_variant(variant: ScenarioVariant, engine_factory: EngineFactory,
                scenario_code: str = "",
                interleaving: Optional[Sequence[int]] = None) -> VariantResult:
    """Execute one variant under the engine built by ``engine_factory``.

    ``interleaving`` overrides the variant's curated interleaving — this is
    how the schedule-space explorer replays arbitrary schedules (and how a
    coverage witness can be re-verified).  Stalled and engine-aborted runs
    return normally: stalls are recorded on the result and count as
    non-manifesting, engine aborts flow through ``manifests`` exactly as
    before (every predicate guards on the commit states it needs).
    """
    database = variant.build_database()
    engine = engine_factory(database)
    schedule = variant.interleaving if interleaving is None else interleaving
    outcome = ScheduleRunner(engine, variant.build_programs(), schedule).run()
    return VariantResult(
        scenario_code=scenario_code,
        variant_name=variant.name,
        engine_name=engine.name,
        manifested=False if outcome.stalled else variant.manifests(outcome),
        outcome=outcome,
        stalled=outcome.stalled,
    )


# ---------------------------------------------------------------------------
# Database builders
# ---------------------------------------------------------------------------


def _bank_database(x: float = 50, y: float = 50, total: float = 100) -> Database:
    """Two bank balances whose sum must stay constant (histories H1/H2/A5A)."""
    database = Database()
    database.set_item("x", x)
    database.set_item("y", y)
    database.add_constraint(items_sum_equals(("x", "y"), total))
    return database


def _equal_items_database() -> Database:
    """Two items constrained to stay equal (the paper's P0 example)."""
    database = Database()
    database.set_item("x", 0)
    database.set_item("y", 0)
    database.add_constraint(items_equal("x", "y"))
    return database


def _single_account_database(balance: float = 100) -> Database:
    """One account, for the lost-update scenarios (history H4)."""
    database = Database()
    database.set_item("x", balance)
    return database


def _write_skew_database() -> Database:
    """Two balances allowed to go negative only jointly (history H5)."""
    database = Database()
    database.set_item("x", 50)
    database.set_item("y", 50)
    database.add_constraint(items_sum_at_least(("x", "y"), 0))
    return database


ACTIVE_EMPLOYEES = attribute_equals("ActiveEmployees", "employees", "active", True)
ALL_TASKS = whole_table("Tasks", "tasks")


def _employees_database() -> Database:
    """Employees plus a materialized count ``z`` (history H3)."""
    database = Database()
    database.create_table("employees", [
        Row("e1", {"name": "Ada", "active": True}),
        Row("e2", {"name": "Grace", "active": True}),
        Row("e3", {"name": "Edsger", "active": False}),
    ])
    database.set_item("z", 2)
    database.add_constraint(predicate_count_matches_item(ACTIVE_EMPLOYEES, "z"))
    return database


def _tasks_database() -> Database:
    """Job tasks whose total hours must not exceed 8 (Section 4.2)."""
    database = Database()
    database.create_table("tasks", [
        Row("t1", {"hours": 3}),
        Row("t2", {"hours": 4}),
    ])
    database.add_constraint(predicate_sum_at_most(ALL_TASKS, "hours", 8))
    return database


# ---------------------------------------------------------------------------
# P0 — Dirty Write
# ---------------------------------------------------------------------------


def _p0_programs() -> List[TransactionProgram]:
    return [
        TransactionProgram(1, [WriteItem("x", 1), WriteItem("y", 1), Commit()],
                           label="T1 writes 1 everywhere"),
        TransactionProgram(2, [WriteItem("x", 2), WriteItem("y", 2), Commit()],
                           label="T2 writes 2 everywhere"),
    ]


def _p0_manifests(outcome: ExecutionOutcome) -> bool:
    return outcome.database.get_item("x") != outcome.database.get_item("y")


P0_SCENARIO = AnomalyScenario(
    code="P0",
    name="Dirty Write",
    description="Two transactions interleave their writes to x and y; the "
                "constraint x == y is violated if the writes interleave "
                "(the paper's Section 3 example).",
    variants=[
        ScenarioVariant(
            name="interleaved-writes",
            build_database=_equal_items_database,
            build_programs=_p0_programs,
            interleaving=[1, 2, 2, 2, 1, 1],
            manifests=_p0_manifests,
            description="w1[x] w2[x] w2[y] c2 w1[y] c1",
        ),
    ],
)


# ---------------------------------------------------------------------------
# P1 — Dirty Read
# ---------------------------------------------------------------------------


def _p1_abort_programs() -> List[TransactionProgram]:
    return [
        TransactionProgram(1, [WriteItem("x", 10), Abort()],
                           label="T1 writes then rolls back"),
        TransactionProgram(2, [ReadItem("x", into="seen_x"), Commit()],
                           label="T2 reads x"),
    ]


def _p1_abort_manifests(outcome: ExecutionOutcome) -> bool:
    # T2 saw the value that was never committed.
    return outcome.observed(2, "seen_x") == 10


def _p1_transfer_programs() -> List[TransactionProgram]:
    return [
        TransactionProgram(1, [
            ReadItem("x"),
            WriteItem("x", lambda ctx: ctx["x"] - 40),
            ReadItem("y"),
            WriteItem("y", lambda ctx: ctx["y"] + 40),
            Commit(),
        ], label="T1 transfers 40 from x to y"),
        TransactionProgram(2, [
            ReadItem("x", into="seen_x"),
            ReadItem("y", into="seen_y"),
            Commit(),
        ], label="T2 audits the total"),
    ]


def _p1_transfer_manifests(outcome: ExecutionOutcome) -> bool:
    # The audit total is wrong *because of a dirty read*.  A wrong total alone
    # is not enough: interleavings where the audit straddles the committed
    # transfer (read x before, y after) also break the total, but that is read
    # skew (A5A) — possible at READ COMMITTED, where P1 must not be — so the
    # realized history must actually contain the P1 pattern.
    if not outcome.committed(2):
        return False
    seen_x = outcome.observed(2, "seen_x")
    seen_y = outcome.observed(2, "seen_y")
    if seen_x is None or seen_y is None or seen_x + seen_y == 100:
        return False
    if outcome.history.is_multiversion():
        # The MV engines (Snapshot Isolation, Read Consistency) only ever hand
        # out committed versions; a wrong total there is read skew, and the
        # raw-history P1 pattern would spuriously match the old-version read.
        return False
    return P1_DIRTY_READ.occurs_in(outcome.history)


P1_SCENARIO = AnomalyScenario(
    code="P1",
    name="Dirty Read",
    description="Reading data written by an uncommitted transaction — either "
                "data that is later rolled back (the strict A1 flavour) or a "
                "mid-transfer state (history H1, the broad flavour).",
    variants=[
        ScenarioVariant(
            name="read-of-rolled-back-write",
            build_database=lambda: _single_account_database(50),
            build_programs=_p1_abort_programs,
            interleaving=[1, 2, 2, 1],
            manifests=_p1_abort_manifests,
            description="w1[x=10] r2[x] c2 a1 — the strict A1 anomaly.",
        ),
        ScenarioVariant(
            name="inconsistent-analysis-H1",
            build_database=_bank_database,
            build_programs=_p1_transfer_programs,
            interleaving=[1, 1, 2, 2, 2, 1, 1, 1],
            manifests=_p1_transfer_manifests,
            description="History H1: the audit sees a total of 60 instead of 100.",
        ),
    ],
)


# ---------------------------------------------------------------------------
# P2 — Fuzzy (non-repeatable) Read
# ---------------------------------------------------------------------------


def _p2_plain_programs() -> List[TransactionProgram]:
    return [
        TransactionProgram(1, [
            ReadItem("x", into="first"),
            ReadItem("x", into="second"),
            Commit(),
        ], label="T1 reads x twice"),
        TransactionProgram(2, [
            ReadItem("x"),
            WriteItem("x", lambda ctx: ctx["x"] + 10),
            Commit(),
        ], label="T2 bumps x"),
    ]


def _p2_manifests(outcome: ExecutionOutcome) -> bool:
    if not outcome.committed(1):
        return False
    return outcome.observed(1, "first") != outcome.observed(1, "second")


def _p2_cursor_programs() -> List[TransactionProgram]:
    return [
        TransactionProgram(1, [
            OpenCursor("c", ["x"]),
            Fetch("c", into="first"),
            ReadItem("x", into="second"),
            Commit(),
        ], label="T1 stabilizes x with a cursor"),
        TransactionProgram(2, [
            ReadItem("x"),
            WriteItem("x", lambda ctx: ctx["x"] + 10),
            Commit(),
        ], label="T2 bumps x"),
    ]


P2_SCENARIO = AnomalyScenario(
    code="P2",
    name="Fuzzy Read",
    description="A transaction rereads a data item and sees a different value "
                "because another transaction updated it in between.",
    variants=[
        ScenarioVariant(
            name="plain-reread",
            build_database=lambda: _single_account_database(100),
            build_programs=_p2_plain_programs,
            interleaving=[1, 2, 2, 2, 1, 1],
            manifests=_p2_manifests,
            description="r1[x] r2[x] w2[x] c2 r1[x] c1 — the A2 anomaly.",
        ),
        ScenarioVariant(
            name="cursor-stabilized-reread",
            build_database=lambda: _single_account_database(100),
            build_programs=_p2_cursor_programs,
            interleaving=[1, 1, 2, 2, 2, 1, 1],
            manifests=_p2_manifests,
            description="The first read holds the item as current of cursor, so "
                        "Cursor Stability keeps it stable.",
        ),
    ],
)


# ---------------------------------------------------------------------------
# P3 — Phantom
# ---------------------------------------------------------------------------


def _p3_count_programs() -> List[TransactionProgram]:
    return [
        TransactionProgram(1, [
            SelectPredicate(ACTIVE_EMPLOYEES, into="employees"),
            ReadItem("z", into="count"),
            Commit(),
        ], label="T1 lists active employees and checks the count"),
        TransactionProgram(2, [
            InsertRow("employees", Row("e4", {"name": "Barbara", "active": True})),
            ReadItem("z"),
            WriteItem("z", lambda ctx: ctx["z"] + 1),
            Commit(),
        ], label="T2 hires an employee and bumps the count"),
    ]


def _p3_count_manifests(outcome: ExecutionOutcome) -> bool:
    if not outcome.committed(1):
        return False
    employees = outcome.observed(1, "employees")
    count = outcome.observed(1, "count")
    if employees is None or count is None:
        return False
    return len(employees) != count


def _guarded_task(key: str) -> Callable[[Dict], Row]:
    """A task row whose hours respect the 8-hour budget the program just read.

    Section 4.2's program checks the predicate total *before* inserting; a
    transaction that sees the budget already full inserts a zero-hour task
    (a no-op against the constraint).  This keeps every program consistency-
    preserving in isolation — serial executions never violate the budget, so
    only genuinely phantom-afflicted interleavings can.
    """
    def build(context: Dict) -> Row:
        total = sum(row.get("hours", 0) for row in context["tasks"])
        return Row(key, {"hours": 1 if total + 1 <= 8 else 0})
    return build


def _p3_tasks_programs() -> List[TransactionProgram]:
    return [
        TransactionProgram(1, [
            SelectPredicate(ALL_TASKS, into="tasks"),
            InsertRow("tasks", _guarded_task("t3")),
            Commit(),
        ], label="T1 adds a one-hour task after checking the total"),
        TransactionProgram(2, [
            SelectPredicate(ALL_TASKS, into="tasks"),
            InsertRow("tasks", _guarded_task("t4")),
            Commit(),
        ], label="T2 adds a one-hour task after checking the total"),
    ]


def _p3_tasks_manifests(outcome: ExecutionOutcome) -> bool:
    total = sum(row.get("hours", 0) for row in outcome.database.table("tasks"))
    return outcome.all_committed(1, 2) and total > 8


P3_SCENARIO = AnomalyScenario(
    code="P3",
    name="Phantom",
    description="A predicate's extent changes under a transaction that has "
                "already evaluated it (history H3 and the Section 4.2 "
                "task-hours example).",
    variants=[
        ScenarioVariant(
            name="employee-count-H3",
            build_database=_employees_database,
            build_programs=_p3_count_programs,
            interleaving=[1, 2, 2, 2, 2, 1, 1],
            manifests=_p3_count_manifests,
            description="History H3: the employee list disagrees with the count.",
        ),
        ScenarioVariant(
            name="disjoint-inserts-task-hours",
            build_database=_tasks_database,
            build_programs=_p3_tasks_programs,
            interleaving=[1, 2, 1, 2, 1, 2],
            manifests=_p3_tasks_manifests,
            description="Both transactions insert different rows into the "
                        "predicate; first-committer-wins never fires, so Snapshot "
                        "Isolation lets the 8-hour constraint break.",
        ),
    ],
)


# ---------------------------------------------------------------------------
# P4 — Lost Update
# ---------------------------------------------------------------------------


def _p4_plain_programs() -> List[TransactionProgram]:
    return [
        TransactionProgram(1, [
            ReadItem("x"),
            WriteItem("x", lambda ctx: ctx["x"] + 30),
            Commit(),
        ], label="T1 adds 30"),
        TransactionProgram(2, [
            ReadItem("x"),
            WriteItem("x", lambda ctx: ctx["x"] + 20),
            Commit(),
        ], label="T2 adds 20"),
    ]


def _p4_manifests(outcome: ExecutionOutcome) -> bool:
    if not outcome.all_committed(1, 2):
        return False
    return outcome.database.get_item("x") != 150


def _p4_cursor_programs() -> List[TransactionProgram]:
    return [
        TransactionProgram(1, [
            OpenCursor("c1", ["x"]),
            Fetch("c1", into="x"),
            CursorUpdate("c1", lambda ctx: ctx["x"] + 30),
            Commit(),
        ], label="T1 adds 30 through a cursor"),
        TransactionProgram(2, [
            OpenCursor("c2", ["x"]),
            Fetch("c2", into="x"),
            CursorUpdate("c2", lambda ctx: ctx["x"] + 20),
            Commit(),
        ], label="T2 adds 20 through a cursor"),
    ]


P4_SCENARIO = AnomalyScenario(
    code="P4",
    name="Lost Update",
    description="History H4: both transactions read x=100 and write back an "
                "increment; one increment vanishes.",
    variants=[
        ScenarioVariant(
            name="plain-read-modify-write",
            build_database=lambda: _single_account_database(100),
            build_programs=_p4_plain_programs,
            interleaving=[1, 2, 2, 2, 1, 1],
            manifests=_p4_manifests,
            description="r1[x] r2[x] w2[x] c2 w1[x] c1 (history H4).",
        ),
        ScenarioVariant(
            name="both-through-cursors",
            build_database=lambda: _single_account_database(100),
            build_programs=_p4_cursor_programs,
            interleaving=[1, 1, 2, 2, 2, 1, 1, 2],
            manifests=_p4_manifests,
            description="Both updates go through cursors, which Cursor Stability "
                        "protects.",
        ),
    ],
)


# ---------------------------------------------------------------------------
# P4C — Cursor Lost Update
# ---------------------------------------------------------------------------


def _p4c_programs() -> List[TransactionProgram]:
    return [
        TransactionProgram(1, [
            OpenCursor("c", ["x"]),
            Fetch("c", into="x"),
            CursorUpdate("c", lambda ctx: ctx["x"] + 30),
            Commit(),
        ], label="T1 adds 30 through a cursor"),
        TransactionProgram(2, [
            ReadItem("x"),
            WriteItem("x", lambda ctx: ctx["x"] + 20),
            Commit(),
        ], label="T2 adds 20 with plain reads"),
    ]


def _p4c_manifests(outcome: ExecutionOutcome) -> bool:
    # The anomaly is specifically T1 clobbering T2's update on the basis of a
    # stale cursor read: rc1[x] ... w2[x] ... w1[x] ... c1 in the realized
    # history, with both transactions committing.
    if not outcome.all_committed(1, 2):
        return False
    return P4C_CURSOR_LOST_UPDATE.occurs_in(outcome.history)


P4C_SCENARIO = AnomalyScenario(
    code="P4C",
    name="Cursor Lost Update",
    description="The cursor form of the lost update: a transaction updates the "
                "row its cursor is on, based on a fetch that predates another "
                "transaction's committed update.",
    variants=[
        ScenarioVariant(
            name="cursor-vs-plain-writer",
            build_database=lambda: _single_account_database(100),
            build_programs=_p4c_programs,
            interleaving=[1, 1, 2, 2, 2, 1, 1],
            manifests=_p4c_manifests,
            description="rc1[x] r2[x] w2[x] c2 wc1[x] c1.",
        ),
    ],
)


# ---------------------------------------------------------------------------
# A5A — Read Skew
# ---------------------------------------------------------------------------


def _a5a_programs() -> List[TransactionProgram]:
    return [
        TransactionProgram(1, [
            ReadItem("x", into="seen_x"),
            ReadItem("y", into="seen_y"),
            Commit(),
        ], label="T1 audits x then y"),
        TransactionProgram(2, [
            ReadItem("x"),
            ReadItem("y"),
            WriteItem("x", lambda ctx: ctx["x"] - 40),
            WriteItem("y", lambda ctx: ctx["y"] + 40),
            Commit(),
        ], label="T2 transfers 40 from x to y"),
    ]


def _a5a_manifests(outcome: ExecutionOutcome) -> bool:
    if not outcome.committed(1):
        return False
    seen_x = outcome.observed(1, "seen_x")
    seen_y = outcome.observed(1, "seen_y")
    return seen_x is not None and seen_y is not None and seen_x + seen_y != 100


A5A_SCENARIO = AnomalyScenario(
    code="A5A",
    name="Read Skew",
    description="T1 reads x before, and y after, T2's committed transfer "
                "between them (history H2's inconsistent analysis).",
    variants=[
        ScenarioVariant(
            name="audit-across-transfer",
            build_database=_bank_database,
            build_programs=_a5a_programs,
            interleaving=[1, 2, 2, 2, 2, 2, 1, 1],
            manifests=_a5a_manifests,
            description="r1[x] then T2 commits a transfer, then r1[y].",
        ),
    ],
)


# ---------------------------------------------------------------------------
# A5B — Write Skew
# ---------------------------------------------------------------------------


def _a5b_withdraw(target: str) -> Callable[[Dict], float]:
    """Withdraw 90 from ``target`` only when the joint balance covers it.

    The paper's premise is that each transaction *alone* preserves
    ``x + y >= 0``: it reads both balances and only withdraws when the total
    is sufficient.  (An unconditional withdrawal would violate the constraint
    even serially, turning every serial schedule into a false witness.)  From
    the initial 50/50 the curated interleaving still realizes the familiar
    ``y = -40`` / ``x = -40`` write-skew values.
    """
    return lambda ctx: ctx[target] - 90 if ctx["x"] + ctx["y"] >= 90 else ctx[target]


def _a5b_plain_programs() -> List[TransactionProgram]:
    return [
        TransactionProgram(1, [
            ReadItem("x"),
            ReadItem("y"),
            WriteItem("y", _a5b_withdraw("y")),
            Commit(),
        ], label="T1 withdraws from y"),
        TransactionProgram(2, [
            ReadItem("x"),
            ReadItem("y"),
            WriteItem("x", _a5b_withdraw("x")),
            Commit(),
        ], label="T2 withdraws from x"),
    ]


def _a5b_manifests(outcome: ExecutionOutcome) -> bool:
    if not outcome.all_committed(1, 2):
        return False
    return (outcome.database.get_item("x") + outcome.database.get_item("y")) < 0


def _a5b_cursor_programs() -> List[TransactionProgram]:
    return [
        TransactionProgram(1, [
            OpenCursor("cx", ["x"]),
            OpenCursor("cy", ["y"]),
            Fetch("cx", into="x"),
            Fetch("cy", into="y"),
            CursorUpdate("cy", _a5b_withdraw("y")),
            Commit(),
        ], label="T1 withdraws from y holding cursors on both"),
        TransactionProgram(2, [
            OpenCursor("cx", ["x"]),
            OpenCursor("cy", ["y"]),
            Fetch("cx", into="x"),
            Fetch("cy", into="y"),
            CursorUpdate("cx", _a5b_withdraw("x")),
            Commit(),
        ], label="T2 withdraws from x holding cursors on both"),
    ]


A5B_SCENARIO = AnomalyScenario(
    code="A5B",
    name="Write Skew",
    description="History H5: each transaction reads both balances and drives "
                "one negative; each preserves x + y >= 0 alone, together they "
                "do not.",
    variants=[
        ScenarioVariant(
            name="plain-reads",
            build_database=_write_skew_database,
            build_programs=_a5b_plain_programs,
            interleaving=[1, 1, 2, 2, 2, 1, 2, 1],
            manifests=_a5b_manifests,
            description="History H5 with plain reads.",
        ),
        ScenarioVariant(
            name="cursors-on-both-items",
            build_database=_write_skew_database,
            build_programs=_a5b_cursor_programs,
            interleaving=[1, 1, 1, 1, 2, 2, 2, 2, 1, 2, 1, 2],
            manifests=_a5b_manifests,
            description="Both transactions parlay multiple cursors into "
                        "repeatable-read-like protection (Section 4.1).",
        ),
    ],
)


#: Every Table 4 column, in the paper's column order.
ALL_SCENARIOS: Tuple[AnomalyScenario, ...] = (
    P0_SCENARIO,
    P1_SCENARIO,
    P4C_SCENARIO,
    P4_SCENARIO,
    P2_SCENARIO,
    P3_SCENARIO,
    A5A_SCENARIO,
    A5B_SCENARIO,
)


def scenario_by_code(code: str) -> AnomalyScenario:
    """Look up a scenario by its phenomenon code."""
    for scenario in ALL_SCENARIOS:
        if scenario.code == code.upper():
            return scenario
    raise KeyError(f"no scenario for phenomenon {code!r}")
