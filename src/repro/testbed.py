"""Testbed: one-call construction of any isolation engine, plus a session facade.

This module is the library's front door for applications and examples:

* :func:`make_engine` builds the engine implementing any of the paper's
  isolation levels against a given database — the Table 2 locking levels, the
  Section 4.2 Snapshot Isolation level, and Section 4.3's Oracle-style Read
  Consistency.
* :func:`run_programs` wires an engine and a set of transaction programs into
  a :class:`~repro.engine.scheduler.ScheduleRunner` and runs them.
* :class:`Session` offers an imperative, connection-like API (begin / read /
  write / commit) for interactive use and the quickstart example.  It is a
  thin veneer over the engine interface: operations that would block raise
  :class:`WouldBlock` instead, because a single-threaded session cannot wait
  on itself.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from .core.isolation import IsolationLevelName
from .engine.interface import Engine, OpResult
from .engine.outcomes import ExecutionOutcome
from .engine.programs import TransactionProgram
from .engine.scheduler import ScheduleRunner
from .locking.engine import LockingEngine
from .mvcc.read_consistency import ReadConsistencyEngine
from .mvcc.snapshot import SnapshotIsolationEngine
from .storage.database import Database
from .storage.predicates import Predicate
from .storage.rows import Row

__all__ = [
    "LOCKING_LEVELS",
    "ALL_ENGINE_LEVELS",
    "make_engine",
    "engine_factory",
    "run_programs",
    "WouldBlock",
    "Transaction",
    "Session",
]

#: The isolation levels realized by the locking engine (Table 2).
LOCKING_LEVELS = (
    IsolationLevelName.DEGREE_0,
    IsolationLevelName.READ_UNCOMMITTED,
    IsolationLevelName.READ_COMMITTED,
    IsolationLevelName.CURSOR_STABILITY,
    IsolationLevelName.REPEATABLE_READ,
    IsolationLevelName.SERIALIZABLE,
)

#: Every level :func:`make_engine` can build.
ALL_ENGINE_LEVELS = LOCKING_LEVELS + (
    IsolationLevelName.SNAPSHOT_ISOLATION,
    IsolationLevelName.ORACLE_READ_CONSISTENCY,
)


def make_engine(database: Database, level: IsolationLevelName, **options: Any) -> Engine:
    """Build the engine implementing an isolation level over a database.

    ``options`` are forwarded to the engine constructor (e.g.
    ``first_committer_wins=False`` for the Snapshot Isolation ablation).
    """
    if level in LOCKING_LEVELS:
        return LockingEngine(database, level=level, **options)
    if level is IsolationLevelName.SNAPSHOT_ISOLATION:
        return SnapshotIsolationEngine(database, **options)
    if level is IsolationLevelName.ORACLE_READ_CONSISTENCY:
        return ReadConsistencyEngine(database, **options)
    raise ValueError(f"no engine implements isolation level {level.value!r}")


def engine_factory(level: IsolationLevelName, **options: Any) -> Callable[[Database], Engine]:
    """A factory ``database -> engine`` for a level (used by scenarios and benches)."""
    def build(database: Database) -> Engine:
        return make_engine(database, level, **options)
    return build


def run_programs(database: Database, level: IsolationLevelName,
                 programs: Sequence[TransactionProgram],
                 interleaving: Optional[Sequence[int]] = None,
                 **options: Any) -> ExecutionOutcome:
    """Run a set of transaction programs under one isolation level."""
    engine = make_engine(database, level, **options)
    return ScheduleRunner(engine, programs, interleaving).run()


class WouldBlock(RuntimeError):
    """Raised by :class:`Session` when an operation would have to wait for a lock."""


class TransactionAborted(RuntimeError):
    """Raised by :class:`Session` when the engine aborts the transaction."""


class Transaction:
    """A live transaction handle bound to a session's engine."""

    def __init__(self, engine: Engine, txn_id: int):
        self._engine = engine
        self.txn_id = txn_id

    def _unwrap(self, result: OpResult) -> Any:
        if result.is_blocked:
            raise WouldBlock(result.reason or "operation would block")
        if result.is_aborted:
            raise TransactionAborted(result.reason or "transaction aborted")
        return result.value

    def read(self, item: str) -> Any:
        """Read a named item."""
        return self._unwrap(self._engine.read(self.txn_id, item))

    def write(self, item: str, value: Any) -> None:
        """Write a named item."""
        self._unwrap(self._engine.write(self.txn_id, item, value))

    def select(self, predicate: Predicate) -> List[Row]:
        """Read the rows satisfying a predicate."""
        return self._unwrap(self._engine.select(self.txn_id, predicate))

    def insert(self, table: str, row: Row) -> None:
        """Insert a row."""
        self._unwrap(self._engine.insert(self.txn_id, table, row))

    def update_row(self, table: str, key: str, **changes: Any) -> None:
        """Update a row's attributes."""
        self._unwrap(self._engine.update_row(self.txn_id, table, key, changes))

    def delete_row(self, table: str, key: str) -> None:
        """Delete a row."""
        self._unwrap(self._engine.delete_row(self.txn_id, table, key))

    def commit(self) -> None:
        """Commit (raises :class:`TransactionAborted` on a commit-time abort)."""
        self._unwrap(self._engine.commit(self.txn_id))

    def abort(self) -> None:
        """Roll back."""
        self._unwrap(self._engine.abort(self.txn_id))


class Session:
    """A connection-like facade over one engine instance.

    Multiple transactions may be open at once (they share the engine), which
    is how the quickstart example demonstrates snapshot reads: open T1, open
    T2, let T1 write and commit, and observe that T2 still sees its snapshot.
    """

    def __init__(self, database: Database,
                 level: IsolationLevelName = IsolationLevelName.SERIALIZABLE,
                 **options: Any):
        self.database = database
        self.level = level
        self.engine = make_engine(database, level, **options)
        self._next_txn = 0

    def begin(self) -> Transaction:
        """Start a new transaction."""
        self._next_txn += 1
        self.engine.begin(self._next_txn)
        return Transaction(self.engine, self._next_txn)
