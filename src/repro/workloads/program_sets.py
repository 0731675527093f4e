"""Named, picklable program-set specifications for the schedule-space explorer.

The explorer fans schedule execution out across worker processes, so the
description of *what* to run must cross a process boundary.  Transaction
programs themselves cannot (their steps close over lambdas), so the explorer
ships a :class:`ProgramSetSpec` — a registered builder name plus keyword
parameters — and each worker rebuilds the database and programs locally,
fresh for every schedule.

Builders registered here are explorer-oriented workloads: small contended
program sets whose interleaving spaces contain the paper's anomalies (lost
update, read skew, write skew, dirty read), plus a parameterized contention
workload for throughput studies.  Register project-specific sets with
:func:`register_program_set`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from ..engine.programs import Abort, Commit, ReadItem, TransactionProgram, WriteItem
from ..storage.database import Database
from .generators import random_programs, uniform_database

__all__ = [
    "ProgramSet",
    "ProgramSetSpec",
    "register_program_set",
    "resolve_program_set",
    "build_program_set",
    "check_program_set",
    "available_program_sets",
]

#: What a builder returns: a fresh database plus fresh transaction programs.
ProgramSet = Tuple[Database, List[TransactionProgram]]

_REGISTRY: Dict[str, Callable[..., ProgramSet]] = {}


@dataclass(frozen=True)
class ProgramSetSpec:
    """A picklable reference to a registered program-set builder.

    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs so specs
    are hashable and compare by value; use :meth:`ProgramSetSpec.make` (or the
    keyword constructor) rather than building the tuple by hand.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = field(default=())

    @classmethod
    def make(cls, name: str, **params: Any) -> "ProgramSetSpec":
        """Build a spec from keyword parameters."""
        return cls(name, tuple(sorted(params.items())))

    def kwargs(self) -> Dict[str, Any]:
        """The parameters as a plain keyword dict."""
        return dict(self.params)

    def describe(self) -> str:
        """``name(key=value, ...)`` for report headers."""
        inner = ", ".join(f"{key}={value!r}" for key, value in self.params)
        return f"{self.name}({inner})"


def register_program_set(name: str) -> Callable[[Callable[..., ProgramSet]], Callable[..., ProgramSet]]:
    """Decorator: register a builder under ``name`` for use in explorer specs."""
    def decorate(builder: Callable[..., ProgramSet]) -> Callable[..., ProgramSet]:
        if name in _REGISTRY:
            raise ValueError(f"program set {name!r} is already registered")
        _REGISTRY[name] = builder
        return builder
    return decorate


def resolve_program_set(spec: ProgramSetSpec) -> Callable[..., ProgramSet]:
    """The registered builder a spec names (raises KeyError with the known names)."""
    try:
        return _REGISTRY[spec.name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown program set {spec.name!r}; registered: {known}")


def check_program_set(spec: ProgramSetSpec) -> List[TransactionProgram]:
    """The spec's programs; a named error unless it builds at least one.

    Every parameter must be one the builder declares, with a value of its
    default's type if it has one (an ``int`` default takes an integer, a
    ``float`` default any number; never a bool).  Ranges are the builder's
    to check.
    """
    builder = resolve_program_set(spec)
    parameters = inspect.signature(builder).parameters
    for key, value in spec.params:
        if key not in parameters:
            raise ValueError(f"program set {spec.name!r} has no parameter "
                             f"{key!r}; it takes: {', '.join(parameters)}")
        default = parameters[key].default
        if default is inspect.Parameter.empty:
            continue
        expected = (float, int) if isinstance(default, float) else type(default)
        if isinstance(value, bool) or not isinstance(value, expected):
            raise ValueError(f"program set parameter {key!r} must be of type "
                             f"{type(default).__name__}, got {value!r}")
    programs = builder(**spec.kwargs())[1]
    if not programs:
        raise ValueError(f"program set {spec.describe()} has no transactions")
    return programs


def build_program_set(spec: ProgramSetSpec) -> ProgramSet:
    """Instantiate a spec: a fresh database and fresh programs, every call."""
    return resolve_program_set(spec)(**spec.kwargs())


def available_program_sets() -> List[str]:
    """The names of every registered builder."""
    return sorted(_REGISTRY)


# -- built-in explorer workloads ----------------------------------------------------


@register_program_set("increments")
def increments(transactions: int = 2, initial: int = 100,
               amount: int = 10) -> ProgramSet:
    """N transactions each read-modify-write the same counter (P4 territory).

    Under a serial execution the counter ends at ``initial + N * amount``;
    any interleaving that loses an update ends lower.
    """
    database = Database()
    database.set_item("x", initial)
    programs = [
        TransactionProgram(txn, [
            ReadItem("x"),
            WriteItem("x", lambda ctx: ctx["x"] + amount),
            Commit(),
        ], label=f"incr-{txn}")
        for txn in range(1, transactions + 1)
    ]
    return database, programs


@register_program_set("bank-transfer")
def bank_transfer(balance: int = 50, amount: int = 40) -> ProgramSet:
    """Two transfers between accounts x and y (sum invariant = 2 * balance)."""
    database = Database()
    database.set_item("x", balance)
    database.set_item("y", balance)

    def transfer(txn: int, source: str, target: str) -> TransactionProgram:
        return TransactionProgram(txn, [
            ReadItem(source),
            WriteItem(source, lambda ctx: ctx[source] - amount),
            ReadItem(target),
            WriteItem(target, lambda ctx: ctx[target] + amount),
            Commit(),
        ], label=f"transfer-{source}-{target}")

    return database, [transfer(1, "x", "y"), transfer(2, "y", "x")]


@register_program_set("write-skew")
def write_skew(initial: int = 50) -> ProgramSet:
    """The A5B pattern: each transaction reads x and y, then writes the other's item."""
    database = Database()
    database.set_item("x", initial)
    database.set_item("y", initial)
    t1 = TransactionProgram(1, [
        ReadItem("x"),
        ReadItem("y"),
        WriteItem("y", lambda ctx: ctx["x"] + ctx["y"]),
        Commit(),
    ], label="skew-writes-y")
    t2 = TransactionProgram(2, [
        ReadItem("x"),
        ReadItem("y"),
        WriteItem("x", lambda ctx: ctx["x"] + ctx["y"]),
        Commit(),
    ], label="skew-writes-x")
    return database, [t1, t2]


@register_program_set("read-skew")
def read_skew(initial: int = 50, amount: int = 40) -> ProgramSet:
    """The A5A pattern: a reader scans x then y while a writer moves value between them."""
    database = Database()
    database.set_item("x", initial)
    database.set_item("y", initial)
    reader = TransactionProgram(1, [
        ReadItem("x", into="x_seen"),
        ReadItem("y", into="y_seen"),
        Commit(),
    ], label="auditor")
    writer = TransactionProgram(2, [
        ReadItem("x"),
        WriteItem("x", lambda ctx: ctx["x"] - amount),
        ReadItem("y"),
        WriteItem("y", lambda ctx: ctx["y"] + amount),
        Commit(),
    ], label="mover")
    return database, [reader, writer]


@register_program_set("dirty-abort")
def dirty_abort(initial: int = 50, amount: int = 10) -> ProgramSet:
    """A writer that aborts after writing, plus a reader (P1 / A1 territory)."""
    database = Database()
    database.set_item("x", initial)
    writer = TransactionProgram(1, [
        ReadItem("x"),
        WriteItem("x", lambda ctx: ctx["x"] + amount),
        Abort(),
    ], label="doomed-writer")
    reader = TransactionProgram(2, [
        ReadItem("x", into="x_seen"),
        Commit(),
    ], label="reader")
    return database, [writer, reader]


@register_program_set("sharded-increments")
def sharded_increments(shards: int = 2, transactions_per_shard: int = 1,
                       initial: int = 100, amount: int = 10) -> ProgramSet:
    """Independent increment groups: shard s's transactions RMW only ``x<s>``.

    Transactions in different shards have disjoint footprints, so most
    interleavings differ only by commuting cross-shard steps: the space is
    the full multinomial while its distinct histories are few.
    """
    database = Database()
    for shard in range(shards):
        database.set_item(f"x{shard}", initial)
    programs = []
    txn = 0
    for shard in range(shards):
        item = f"x{shard}"
        for _ in range(transactions_per_shard):
            txn += 1
            programs.append(TransactionProgram(txn, [
                ReadItem(item),
                WriteItem(item, lambda ctx, item=item: ctx[item] + amount),
                Commit(),
            ], label=f"incr-s{shard}-{txn}"))
    return database, programs


@register_program_set("contention")
def contention(seed: int = 0, transactions: int = 4, items: int = 6,
               hot_items: int = 2, read_only_fraction: float = 0.25,
               operations_per_transaction: int = 2) -> ProgramSet:
    """The generators.py contention workload, sized for schedule exploration."""
    if items < 1 or hot_items < 0:
        raise ValueError(f"contention needs items >= 1 and hot_items >= 0, "
                         f"got items={items}, hot_items={hot_items}")
    database = uniform_database(items)
    programs = random_programs(
        seed,
        transactions=transactions,
        items=items,
        operations_per_transaction=operations_per_transaction,
        read_only_fraction=read_only_fraction,
        hot_items=hot_items,
    )
    return database, programs
