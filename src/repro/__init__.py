"""repro — a reproduction of "A Critique of ANSI SQL Isolation Levels" (SIGMOD 1995).

The library has four layers:

* :mod:`repro.core` — the paper's formalism: histories and the shorthand
  parser, dependency graphs and serializability, the phenomenon/anomaly
  detectors (P0–P4, P4C, A1–A3, A5A, A5B), the phenomenon-based isolation
  level definitions of Tables 1 and 3, the Figure 2 hierarchy, multiversion
  history analysis, and the paper's catalogued example histories H1–H5.
* :mod:`repro.storage`, :mod:`repro.locking`, :mod:`repro.mvcc`,
  :mod:`repro.engine` — the executable substrate: an in-memory database with
  predicates and constraints, a lock manager with predicate locks and deadlock
  detection, the Table 2 locking scheduler, Snapshot Isolation with
  first-committer-wins, Oracle-style Read Consistency, and a deterministic
  schedule runner.
* :mod:`repro.workloads` — the paper's anomaly scenarios (Table 4's columns)
  and randomized workload generators.
* :mod:`repro.analysis` — the machinery that regenerates Tables 1, 3, and 4
  and verifies the Figure 2 hierarchy and the numbered remarks.

Typical entry points::

    from repro import parse_history, detect_all, is_serializable
    from repro import Database, Session, IsolationLevelName
    from repro.analysis import compute_table4_explored, EXPECTED_TABLE_4
"""

from .core import (
    ALL_PHENOMENA,
    CATALOG,
    History,
    IsolationLevelName,
    Operation,
    OperationKind,
    Possibility,
    build_dependency_graph,
    detect_all,
    is_serializable,
    parse_history,
)
from .storage import Database, Predicate, Row, Table
from .engine import (
    Commit,
    ReadItem,
    ScheduleRunner,
    TransactionProgram,
    WriteItem,
    run_schedule,
)
from .locking import LockingEngine
from .mvcc import ReadConsistencyEngine, SnapshotIsolationEngine
from .testbed import (
    ALL_ENGINE_LEVELS,
    LOCKING_LEVELS,
    Session,
    engine_factory,
    make_engine,
    run_programs,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "ALL_PHENOMENA", "CATALOG", "History", "IsolationLevelName", "Operation",
    "OperationKind", "Possibility", "build_dependency_graph", "detect_all",
    "is_serializable", "parse_history",
    # storage
    "Database", "Predicate", "Row", "Table",
    # engines and execution
    "Commit", "ReadItem", "ScheduleRunner", "TransactionProgram", "WriteItem",
    "run_schedule", "LockingEngine", "ReadConsistencyEngine",
    "SnapshotIsolationEngine",
    # testbed
    "ALL_ENGINE_LEVELS", "LOCKING_LEVELS", "Session", "engine_factory",
    "make_engine", "run_programs",
]
