"""Isolation level definitions (Tables 1 and 3) in terms of forbidden phenomena.

The ANSI SQL-92 levels of Table 1 forbid subsets of {Dirty Read, Fuzzy Read,
Phantom}, under either the strict (A1/A2/A3) or the broad (P1/P2/P3)
interpretation.  The paper's corrected definitions of Table 3 add P0 (Dirty
Write) to every level.  This module encodes both tables as data and as
executable *admissibility tests*: a history is admissible at a level when none
of the level's forbidden phenomena occur in it.

Snapshot Isolation and Cursor Stability cannot be captured this way — that is
one of the paper's conclusions (Section 5) — so those levels are defined
operationally by the engines in :mod:`repro.mvcc` and :mod:`repro.locking`,
and are represented here only by their *names* and their expected anomaly
profile (Table 4), which lives in :mod:`repro.analysis.matrix`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .dependency import is_serializable
from .history import History
from .phenomena import by_code

__all__ = [
    "IsolationLevelName",
    "Possibility",
    "PhenomenonBasedLevel",
    "ANSI_STRICT_LEVELS",
    "ANSI_BROAD_LEVELS",
    "CORRECTED_LEVELS",
    "TRUE_SERIALIZABLE",
    "TABLE_1",
    "TABLE_3",
    "level_by_name",
]


class IsolationLevelName(enum.Enum):
    """Every isolation level the paper names.

    The ``ANSI_*`` members refer to the (inadequate) Table 1 definitions based
    on the three original phenomena; the unprefixed members refer to the
    corrected Table 3 / Table 2 levels; the remaining members are the
    commercially popular levels of Section 4.
    """

    DEGREE_0 = "Degree 0"
    READ_UNCOMMITTED = "READ UNCOMMITTED"
    READ_COMMITTED = "READ COMMITTED"
    CURSOR_STABILITY = "Cursor Stability"
    REPEATABLE_READ = "REPEATABLE READ"
    SERIALIZABLE = "SERIALIZABLE"
    SNAPSHOT_ISOLATION = "Snapshot Isolation"
    ORACLE_READ_CONSISTENCY = "Oracle Read Consistency"
    ANSI_READ_UNCOMMITTED = "ANSI READ UNCOMMITTED"
    ANSI_READ_COMMITTED = "ANSI READ COMMITTED"
    ANSI_REPEATABLE_READ = "ANSI REPEATABLE READ"
    ANOMALY_SERIALIZABLE = "ANOMALY SERIALIZABLE"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Possibility(enum.Enum):
    """Cell values of the paper's tables."""

    POSSIBLE = "Possible"
    NOT_POSSIBLE = "Not Possible"
    SOMETIMES_POSSIBLE = "Sometimes Possible"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class PhenomenonBasedLevel:
    """An isolation level defined as "forbid these phenomena".

    Attributes
    ----------
    name:
        Which of the paper's named levels this definition realizes.
    forbidden:
        The codes of the forbidden phenomena (e.g. ``("P0", "P1")``).
    interpretation:
        ``"strict"`` when the level uses the A1/A2/A3 anomalies (the reading
        the paper criticizes), ``"broad"`` for P1/P2/P3, ``"corrected"`` for
        the Table 3 definitions that also forbid P0.
    """

    name: IsolationLevelName
    forbidden: Tuple[str, ...]
    interpretation: str = "corrected"
    description: str = ""

    def permits(self, history: History) -> bool:
        """True when no forbidden phenomenon occurs in the history."""
        return not self.violations(history)

    def violations(self, history: History) -> List[str]:
        """The codes of the forbidden phenomena that occur in the history."""
        return [
            code for code in self.forbidden if by_code(code).occurs_in(history)
        ]

    def forbids(self, code: str) -> bool:
        """True when the level forbids the phenomenon with the given code."""
        return code.upper() in {c.upper() for c in self.forbidden}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        forbidden = ", ".join(self.forbidden) if self.forbidden else "nothing"
        return f"{self.name.value} [{self.interpretation}] forbids {forbidden}"


@dataclass(frozen=True)
class SerializableLevel:
    """The real SERIALIZABLE level: admissibility = conflict serializability.

    ANSI Subclause 4.28 requires "fully serializable execution"; the paper's
    point (the ANOMALY SERIALIZABLE row of Table 1) is that forbidding the
    three phenomena is *not* the same thing.  This class captures the real
    requirement so the two can be compared.
    """

    name: IsolationLevelName = IsolationLevelName.SERIALIZABLE
    interpretation: str = "graph"
    forbidden: Tuple[str, ...] = ("P0", "P1", "P2", "P3")

    def permits(self, history: History) -> bool:
        """True when the committed projection is conflict-serializable."""
        return is_serializable(history)

    def violations(self, history: History) -> List[str]:
        """["non-serializable"] when the dependency graph is cyclic."""
        return [] if self.permits(history) else ["non-serializable"]


# -- Table 1: the original ANSI definitions ------------------------------------------

ANSI_STRICT_LEVELS: Dict[IsolationLevelName, PhenomenonBasedLevel] = {
    IsolationLevelName.ANSI_READ_UNCOMMITTED: PhenomenonBasedLevel(
        IsolationLevelName.ANSI_READ_UNCOMMITTED, (), "strict",
        "Table 1 READ UNCOMMITTED: all three anomalies possible."),
    IsolationLevelName.ANSI_READ_COMMITTED: PhenomenonBasedLevel(
        IsolationLevelName.ANSI_READ_COMMITTED, ("A1",), "strict",
        "Table 1 READ COMMITTED under the strict interpretation: forbids A1."),
    IsolationLevelName.ANSI_REPEATABLE_READ: PhenomenonBasedLevel(
        IsolationLevelName.ANSI_REPEATABLE_READ, ("A1", "A2"), "strict",
        "Table 1 REPEATABLE READ under the strict interpretation."),
    IsolationLevelName.ANOMALY_SERIALIZABLE: PhenomenonBasedLevel(
        IsolationLevelName.ANOMALY_SERIALIZABLE, ("A1", "A2", "A3"), "strict",
        "Table 1 'ANOMALY SERIALIZABLE': forbids A1, A2, A3 — but is not "
        "actually serializable."),
}

ANSI_BROAD_LEVELS: Dict[IsolationLevelName, PhenomenonBasedLevel] = {
    IsolationLevelName.ANSI_READ_UNCOMMITTED: PhenomenonBasedLevel(
        IsolationLevelName.ANSI_READ_UNCOMMITTED, (), "broad",
        "Table 1 READ UNCOMMITTED with broad phenomena."),
    IsolationLevelName.ANSI_READ_COMMITTED: PhenomenonBasedLevel(
        IsolationLevelName.ANSI_READ_COMMITTED, ("P1",), "broad",
        "Table 1 READ COMMITTED with broad phenomena: forbids P1."),
    IsolationLevelName.ANSI_REPEATABLE_READ: PhenomenonBasedLevel(
        IsolationLevelName.ANSI_REPEATABLE_READ, ("P1", "P2"), "broad",
        "Table 1 REPEATABLE READ with broad phenomena."),
    IsolationLevelName.ANOMALY_SERIALIZABLE: PhenomenonBasedLevel(
        IsolationLevelName.ANOMALY_SERIALIZABLE, ("P1", "P2", "P3"), "broad",
        "Table 1 ANOMALY SERIALIZABLE with broad phenomena — still misses P0."),
}

# -- Table 3: the corrected definitions (Remark 5) ----------------------------------

CORRECTED_LEVELS: Dict[IsolationLevelName, PhenomenonBasedLevel] = {
    IsolationLevelName.READ_UNCOMMITTED: PhenomenonBasedLevel(
        IsolationLevelName.READ_UNCOMMITTED, ("P0",), "corrected",
        "Table 3 READ UNCOMMITTED == Degree 1: dirty writes are never allowed."),
    IsolationLevelName.READ_COMMITTED: PhenomenonBasedLevel(
        IsolationLevelName.READ_COMMITTED, ("P0", "P1"), "corrected",
        "Table 3 READ COMMITTED == Degree 2."),
    IsolationLevelName.REPEATABLE_READ: PhenomenonBasedLevel(
        IsolationLevelName.REPEATABLE_READ, ("P0", "P1", "P2"), "corrected",
        "Table 3 REPEATABLE READ: item reads are stable, phantoms remain."),
    IsolationLevelName.SERIALIZABLE: PhenomenonBasedLevel(
        IsolationLevelName.SERIALIZABLE, ("P0", "P1", "P2", "P3"), "corrected",
        "Table 3 SERIALIZABLE == Degree 3: all four phenomena forbidden."),
}

#: Degree 0 of [GLPT]: only action atomicity, nothing forbidden at the history level.
DEGREE_0 = PhenomenonBasedLevel(
    IsolationLevelName.DEGREE_0, (), "corrected",
    "GLPT Degree 0: well-formed writes only; even dirty writes allowed.")

#: The real thing, for comparisons against ANOMALY SERIALIZABLE.
TRUE_SERIALIZABLE = SerializableLevel()


# -- Declared table contents (used by the benchmarks as the paper's expected output) --

#: Table 1 — ANSI SQL isolation levels defined by the three original phenomena.
TABLE_1: Dict[IsolationLevelName, Dict[str, Possibility]] = {
    IsolationLevelName.ANSI_READ_UNCOMMITTED: {
        "P1": Possibility.POSSIBLE, "P2": Possibility.POSSIBLE, "P3": Possibility.POSSIBLE,
    },
    IsolationLevelName.ANSI_READ_COMMITTED: {
        "P1": Possibility.NOT_POSSIBLE, "P2": Possibility.POSSIBLE, "P3": Possibility.POSSIBLE,
    },
    IsolationLevelName.ANSI_REPEATABLE_READ: {
        "P1": Possibility.NOT_POSSIBLE, "P2": Possibility.NOT_POSSIBLE, "P3": Possibility.POSSIBLE,
    },
    IsolationLevelName.ANOMALY_SERIALIZABLE: {
        "P1": Possibility.NOT_POSSIBLE, "P2": Possibility.NOT_POSSIBLE, "P3": Possibility.NOT_POSSIBLE,
    },
}

#: Table 3 — the corrected levels defined by the four phenomena.
TABLE_3: Dict[IsolationLevelName, Dict[str, Possibility]] = {
    IsolationLevelName.READ_UNCOMMITTED: {
        "P0": Possibility.NOT_POSSIBLE, "P1": Possibility.POSSIBLE,
        "P2": Possibility.POSSIBLE, "P3": Possibility.POSSIBLE,
    },
    IsolationLevelName.READ_COMMITTED: {
        "P0": Possibility.NOT_POSSIBLE, "P1": Possibility.NOT_POSSIBLE,
        "P2": Possibility.POSSIBLE, "P3": Possibility.POSSIBLE,
    },
    IsolationLevelName.REPEATABLE_READ: {
        "P0": Possibility.NOT_POSSIBLE, "P1": Possibility.NOT_POSSIBLE,
        "P2": Possibility.NOT_POSSIBLE, "P3": Possibility.POSSIBLE,
    },
    IsolationLevelName.SERIALIZABLE: {
        "P0": Possibility.NOT_POSSIBLE, "P1": Possibility.NOT_POSSIBLE,
        "P2": Possibility.NOT_POSSIBLE, "P3": Possibility.NOT_POSSIBLE,
    },
}


def level_by_name(name: IsolationLevelName,
                  interpretation: str = "corrected") -> PhenomenonBasedLevel:
    """Fetch a phenomenon-based level definition.

    ``interpretation`` selects among the strict Table 1 reading (``"strict"``),
    the broad Table 1 reading (``"broad"``), and the corrected Table 3
    definitions (``"corrected"``, the default).
    """
    table = {
        "strict": ANSI_STRICT_LEVELS,
        "broad": ANSI_BROAD_LEVELS,
        "corrected": CORRECTED_LEVELS,
    }.get(interpretation)
    if table is None:
        raise ValueError(f"unknown interpretation: {interpretation!r}")
    if name is IsolationLevelName.DEGREE_0:
        return DEGREE_0
    if name not in table:
        raise KeyError(
            f"{name.value} has no {interpretation} phenomenon-based definition"
        )
    return table[name]
