"""The paper's named example histories, with their documented properties.

Every history quoted in the paper is reproduced here verbatim (in shorthand)
as a :class:`PaperHistory` carrying the properties the paper asserts about it:
whether it is serializable, which phenomena it exhibits, which it avoids, and
the section that introduces it.  ``tests/core/test_catalog.py`` verifies each
assertion against the detectors and the dependency-graph machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .history import History, parse_history

__all__ = [
    "PaperHistory",
    "H1", "H2", "H3", "H4", "H5", "H1_SI", "H1_SI_SV",
    "DIRTY_WRITE_CONSTRAINT", "DIRTY_WRITE_RECOVERY",
    "CATALOG", "by_name",
]


@dataclass(frozen=True)
class PaperHistory:
    """A history quoted in the paper, plus the paper's claims about it."""

    name: str
    shorthand: str
    section: str
    serializable: bool
    #: Phenomenon codes the paper says this history exhibits.
    exhibits: Tuple[str, ...] = ()
    #: Phenomenon codes the paper explicitly says this history does NOT exhibit.
    avoids: Tuple[str, ...] = ()
    multiversion: bool = False
    commentary: str = ""

    @property
    def history(self) -> History:
        """The parsed history object."""
        return parse_history(self.shorthand, name=self.name,
                             multiversion=self.multiversion)


#: H1 — the classical inconsistent analysis: T1 transfers 40 from x to y while
#: T2 reads a total balance of 60 instead of 100.  Exhibits P1 (broad Dirty
#: Read) but none of the strict anomalies A1, A2, A3 — the paper's argument
#: that the strict interpretations are too weak (Section 3).
H1 = PaperHistory(
    name="H1",
    shorthand="r1[x=50] w1[x=10] r2[x=10] r2[y=50] c2 r1[y=50] w1[y=90] c1",
    section="3",
    serializable=False,
    exhibits=("P1",),
    avoids=("A1", "A2", "A3"),
    commentary="Bank transfer of 40 from x to y; T2 sees total 60, not 100.",
)

#: H2 — inconsistent analysis without any dirty read: T1 sees a total of 140.
#: Exhibits P2 but not A1, A2, A3, P1.
H2 = PaperHistory(
    name="H2",
    shorthand="r1[x=50] r2[x=50] w2[x=10] r2[y=50] w2[y=90] c2 r1[y=90] c1",
    section="3",
    serializable=False,
    exhibits=("P2", "A5A"),
    avoids=("A1", "A2", "A3", "P1"),
    commentary="T2 moves 40 from x to y; T1 reads x before and y after, seeing 140.",
)

#: H3 — the phantom example: T1 lists active employees, T2 inserts one and
#: updates the employee count z, then T1 checks the count and sees a
#: discrepancy.  Non-serializable yet allowed by A3.
H3 = PaperHistory(
    name="H3",
    shorthand="r1[P] w2[insert y to P] r2[z] w2[z] c2 r1[z] c1",
    section="3",
    serializable=False,
    exhibits=("P3",),
    avoids=("A3", "A1", "A2"),
    commentary="Employee list vs. employee count mismatch; predicate read once.",
)

#: H4 — lost update: both transactions read x=100, T2 adds 20 and commits,
#: then T1 adds 30 on top of its stale read, producing 130 instead of 150.
H4 = PaperHistory(
    name="H4",
    shorthand="r1[x=100] r2[x=100] w2[x=120] c2 w1[x=130] c1",
    section="4.1",
    serializable=False,
    exhibits=("P4", "P2"),
    avoids=("P0", "P1"),
    commentary="T2's increment of 20 is lost; final balance reflects only T1's +30.",
)

#: H5 — write skew: a constraint x + y > 0 is maintained by each transaction in
#: isolation but violated by the interleaving.  Allowed by Snapshot Isolation.
H5 = PaperHistory(
    name="H5",
    shorthand="r1[x=50] r1[y=50] r2[x=50] r2[y=50] w1[y=-40] w2[x=-40] c1 c2",
    section="4.2",
    serializable=False,
    exhibits=("A5B", "P2"),
    avoids=("P0", "P1", "P4", "A5A"),
    commentary="Both balances driven negative: x + y = -80 despite the constraint.",
)

#: H1.SI — history H1's actions as they would execute under Snapshot Isolation:
#: each read names the version it sees, and the dataflows are serializable.
H1_SI = PaperHistory(
    name="H1.SI",
    shorthand="r1[x0=50] w1[x1=10] r2[x0=50] r2[y0=50] c2 r1[y0=50] w1[y1=90] c1",
    section="4.2",
    serializable=True,
    multiversion=True,
    commentary="Under SI, T2 reads the committed versions x0, y0: total is 100.",
)

#: H1.SI.SV — the single-valued mapping of H1.SI the paper gives; serial-izable
#: (in fact it is serial in the order T2, T1 with respect to dataflow).
H1_SI_SV = PaperHistory(
    name="H1.SI.SV",
    shorthand="r1[x=50] r1[y=50] r2[x=50] r2[y=50] c2 w1[x=10] w1[y=90] c1",
    section="4.2",
    serializable=True,
    commentary="The SV history that H1.SI maps to, preserving dataflow dependencies.",
)

#: The dirty-write constraint-violation example of Section 3 (before Remark 3):
#: T1 writes 1 into both x and y, T2 writes 2 into both; interleaved writes
#: leave x=2, y=1, violating x == y.
DIRTY_WRITE_CONSTRAINT = PaperHistory(
    name="P0-constraint",
    shorthand="w1[x=1] w2[x=2] w2[y=2] c2 w1[y=1] c1",
    section="3",
    serializable=False,
    exhibits=("P0",),
    commentary="x=2 and y=1 survive, violating the constraint x == y.",
)

#: The dirty-write recovery example of Section 3: w1[x] w2[x] a1 — neither
#: before-image can be restored safely.
DIRTY_WRITE_RECOVERY = PaperHistory(
    name="P0-recovery",
    shorthand="w1[x] w2[x] a1",
    section="3",
    serializable=True,  # only T2 (still active) and the aborted T1; trivially serializable
    exhibits=("P0",),
    commentary="Undo by before-image would wipe out w2[x]; without it, T2's own abort breaks.",
)


#: Every catalogued history, keyed by name.
CATALOG: Dict[str, PaperHistory] = {
    entry.name: entry
    for entry in (H1, H2, H3, H4, H5, H1_SI, H1_SI_SV,
                  DIRTY_WRITE_CONSTRAINT, DIRTY_WRITE_RECOVERY)
}


def by_name(name: str) -> PaperHistory:
    """Look up a catalogued history by its paper name (e.g. ``"H1"``)."""
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(f"no catalogued history named {name!r}") from None
