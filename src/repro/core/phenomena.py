"""Phenomenon and anomaly detectors (P0–P4, P4C, A1–A3, A5A, A5B).

The paper's central move is to distinguish *strict* interpretations of the
ANSI phenomena (A1, A2, A3 — actual anomalies that have already produced a
wrong result) from *broad* interpretations (P1, P2, P3 — patterns that might
lead to an anomaly), to add the Dirty Write phenomenon P0, and to introduce
the multiversion-era anomalies P4 (Lost Update), P4C (Cursor Lost Update),
A5A (Read Skew) and A5B (Write Skew).

Every detector in this module pattern-matches a :class:`~repro.core.history.History`
and reports *occurrences* — the concrete operations that instantiate the
forbidden subsequence — so that tests, the anomaly matrix (Table 4), and the
hierarchy analysis (Figure 2) can all reuse the same machinery.

Interpretation notes
--------------------
* For the broad phenomena (P0–P3) the trailing ``(c1 or a1)`` in the paper's
  final definitions (Remark 5) only says that T1 terminates *after* the
  interfering action.  A history prefix in which T1 has not yet terminated
  still exhibits the dangerous pattern, so we report a match in that case too.
* P3's corrected definition covers any write (insert, update, or delete)
  affecting the predicate once it has been read, not just inserts.
* A5B (Write Skew) is matched in its symmetric form: two committed
  transactions each read an item the other subsequently writes.  This is the
  generalisation the paper's prose describes ("T1 reads x and y ... then a T2
  reads x and y, writes x, and commits.  Then T1 writes y.") and it matches
  history H5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .dependency import adjacency_is_acyclic
from .history import History
from .operations import Operation, OperationKind

__all__ = [
    "Occurrence",
    "HistoryIndex",
    "Phenomenon",
    "P0_DIRTY_WRITE",
    "P1_DIRTY_READ",
    "P2_FUZZY_READ",
    "P3_PHANTOM",
    "A1_DIRTY_READ_STRICT",
    "A2_FUZZY_READ_STRICT",
    "A3_PHANTOM_STRICT",
    "P4_LOST_UPDATE",
    "P4C_CURSOR_LOST_UPDATE",
    "A5A_READ_SKEW",
    "A5B_WRITE_SKEW",
    "ALL_PHENOMENA",
    "BROAD_PHENOMENA",
    "STRICT_ANOMALIES",
    "by_code",
    "detect_all",
    "detect_flags",
    "sweep",
]


@dataclass(frozen=True)
class Occurrence:
    """A concrete instantiation of a phenomenon inside a history."""

    phenomenon: str
    transactions: Tuple[int, ...]
    items: Tuple[str, ...]
    indices: Tuple[int, ...]
    description: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.phenomenon}: {self.description}"


class HistoryIndex:
    """Grouped (index, operation) views of one history, shared by the detectors.

    Every detector used to rescan the full operation list and filter by item /
    transaction in its inner loops; grouping once per history turns those
    inner loops into walks over exactly the candidates that can match.  All
    per-item / per-transaction lists preserve global history order, so a
    detector iterating a grouped list visits the same operations in the same
    order as the original full-scan-and-filter — occurrence output is
    byte-identical.
    """

    __slots__ = ("history", "reads", "writes", "cursor_reads",
                 "predicate_reads", "predicate_writes",
                 "reads_by_item", "writes_by_item", "reads_by_txn",
                 "writes_by_txn", "predicate_writes_by_predicate",
                 "terminals")

    def __init__(self, history: History):
        self.history = history
        self.reads: List[Tuple[int, Operation]] = []
        self.writes: List[Tuple[int, Operation]] = []
        self.cursor_reads: List[Tuple[int, Operation]] = []
        self.predicate_reads: List[Tuple[int, Operation]] = []
        self.predicate_writes: List[Tuple[int, Operation]] = []
        self.reads_by_item: Dict[str, List[Tuple[int, Operation]]] = {}
        self.writes_by_item: Dict[str, List[Tuple[int, Operation]]] = {}
        self.reads_by_txn: Dict[int, List[Tuple[int, Operation]]] = {}
        self.writes_by_txn: Dict[int, List[Tuple[int, Operation]]] = {}
        self.predicate_writes_by_predicate: Dict[str, List[Tuple[int, Operation]]] = {}
        #: First terminal position per transaction (None entries omitted).
        self.terminals: Dict[int, int] = {}
        reads = self.reads
        writes = self.writes
        cursor_reads = self.cursor_reads
        reads_by_item = self.reads_by_item
        writes_by_item = self.writes_by_item
        reads_by_txn = self.reads_by_txn
        writes_by_txn = self.writes_by_txn
        terminals = self.terminals
        commit = OperationKind.COMMIT
        abort = OperationKind.ABORT
        read = OperationKind.READ
        cursor_read = OperationKind.CURSOR_READ
        predicate_read = OperationKind.PREDICATE_READ
        for i, op in enumerate(history):
            kind = op.kind
            if kind is commit or kind is abort:
                if op.txn not in terminals:
                    terminals[op.txn] = i
                continue
            entry = (i, op)
            if kind is read or kind is cursor_read:
                reads.append(entry)
                group = reads_by_item.get(op.item)
                if group is None:
                    group = reads_by_item[op.item] = []
                group.append(entry)
                group = reads_by_txn.get(op.txn)
                if group is None:
                    group = reads_by_txn[op.txn] = []
                group.append(entry)
                if kind is cursor_read:
                    cursor_reads.append(entry)
            elif kind is predicate_read:
                self.predicate_reads.append(entry)
            elif kind.is_write:
                if op.item is not None:
                    writes.append(entry)
                    group = writes_by_item.get(op.item)
                    if group is None:
                        group = writes_by_item[op.item] = []
                    group.append(entry)
                    group = writes_by_txn.get(op.txn)
                    if group is None:
                        group = writes_by_txn[op.txn] = []
                    group.append(entry)
                if op.predicate is not None:
                    self.predicate_writes.append(entry)
                    self.predicate_writes_by_predicate.setdefault(
                        op.predicate, []).append(entry)

    _EMPTY: Tuple = ()

    def item_reads(self, item: Optional[str]) -> Sequence[Tuple[int, Operation]]:
        return self.reads_by_item.get(item, self._EMPTY)

    def item_writes(self, item: Optional[str]) -> Sequence[Tuple[int, Operation]]:
        return self.writes_by_item.get(item, self._EMPTY)

    def txn_reads(self, txn: int) -> Sequence[Tuple[int, Operation]]:
        return self.reads_by_txn.get(txn, self._EMPTY)

    def txn_writes(self, txn: int) -> Sequence[Tuple[int, Operation]]:
        return self.writes_by_txn.get(txn, self._EMPTY)


class Phenomenon:
    """Base class for a named phenomenon / anomaly detector."""

    #: Short code used in the paper ("P0", "A5B", ...).
    code: str = ""
    #: Human-readable name ("Dirty Write", "Write Skew", ...).
    name: str = ""
    #: "broad" for phenomena (P*), "strict" for anomalies (A*).
    interpretation: str = "broad"

    def _scan(self, history: History, index: HistoryIndex) -> Iterator[Occurrence]:
        """Yield occurrences lazily, in the canonical (outer-loop) order."""
        raise NotImplementedError

    def find(self, history: History,
             index: Optional[HistoryIndex] = None) -> List[Occurrence]:
        """All occurrences of the phenomenon in the history.

        ``index`` lets a caller running several detectors over the same
        history (``detect_all``) share one :class:`HistoryIndex`; without it
        each detector builds its own.
        """
        return list(self._scan(history, self._index_for(history, index)))

    def occurs_in(self, history: History,
                  index: Optional[HistoryIndex] = None) -> bool:
        """True when the phenomenon occurs at least once.

        Stops at the first occurrence the lazy :meth:`_scan` (the paper's
        definition) yields.  Callers that want every flag of a history at
        once use :func:`sweep`, which answers all of them in one pass;
        ``tests/property`` holds the two equal.
        """
        for _ in self._scan(history, self._index_for(history, index)):
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.code} {self.name}>"

    @staticmethod
    def _index_for(history: History,
                   index: Optional[HistoryIndex]) -> HistoryIndex:
        return index if index is not None else HistoryIndex(history)


class DirtyWrite(Phenomenon):
    """P0: ``w1[x]...w2[x]...(c1 or a1)``.

    T2 writes a data item that T1 has written and T1 has not yet terminated.
    The paper argues (Remark 3) that *every* isolation level must forbid this,
    both because constraints between items can be violated and because
    before-image recovery becomes impossible.
    """

    code = "P0"
    name = "Dirty Write"
    interpretation = "broad"

    def _scan(self, history: History,
              index: HistoryIndex) -> Iterator[Occurrence]:
        terminals = index.terminals
        for i, first in index.writes:
            terminal = terminals.get(first.txn)
            for j, second in index.item_writes(first.item):
                if j <= i or first.txn == second.txn:
                    continue
                if terminal is None or j < terminal:
                    yield Occurrence(
                        phenomenon=self.code,
                        transactions=(first.txn, second.txn),
                        items=(first.item,),
                        indices=(i, j),
                        description=(
                            f"T{second.txn} overwrites {first.item} while "
                            f"T{first.txn}'s write is uncommitted"
                        ),
                    )


class DirtyRead(Phenomenon):
    """P1: ``w1[x]...r2[x]...(c1 or a1)``.

    T2 reads a data item that T1 has modified before T1 commits or aborts.
    The broad interpretation forbids the pattern regardless of how the
    transactions eventually terminate — this is what rules out the
    inconsistent-analysis history H1.
    """

    code = "P1"
    name = "Dirty Read"
    interpretation = "broad"

    def _scan(self, history: History,
              index: HistoryIndex) -> Iterator[Occurrence]:
        terminals = index.terminals
        for i, write_op in index.writes:
            terminal = terminals.get(write_op.txn)
            for j, read_op in index.item_reads(write_op.item):
                if j <= i or write_op.txn == read_op.txn:
                    continue
                if terminal is None or j < terminal:
                    yield Occurrence(
                        phenomenon=self.code,
                        transactions=(write_op.txn, read_op.txn),
                        items=(write_op.item,),
                        indices=(i, j),
                        description=(
                            f"T{read_op.txn} reads {write_op.item} written by "
                            f"uncommitted T{write_op.txn}"
                        ),
                    )


class FuzzyRead(Phenomenon):
    """P2: ``r1[x]...w2[x]...(c1 or a1)``.

    T2 modifies a data item that T1 has read while T1 is still active.  This
    broad interpretation (rather than the strict A2, which requires T1 to
    reread the item) is needed to rule out history H2.
    """

    code = "P2"
    name = "Fuzzy Read (Non-repeatable Read)"
    interpretation = "broad"

    def _scan(self, history: History,
              index: HistoryIndex) -> Iterator[Occurrence]:
        terminals = index.terminals
        for i, read_op in index.reads:
            terminal = terminals.get(read_op.txn)
            for j, write_op in index.item_writes(read_op.item):
                if j <= i or read_op.txn == write_op.txn:
                    continue
                if terminal is None or j < terminal:
                    yield Occurrence(
                        phenomenon=self.code,
                        transactions=(read_op.txn, write_op.txn),
                        items=(read_op.item,),
                        indices=(i, j),
                        description=(
                            f"T{write_op.txn} writes {read_op.item} after T{read_op.txn} "
                            f"read it and before T{read_op.txn} terminated"
                        ),
                    )


class Phantom(Phenomenon):
    """P3: ``r1[P]...w2[y in P]...(c1 or a1)``.

    T1 reads the set of items satisfying a predicate; T2 then performs a
    write (insert, update, or delete) affecting that predicate's extent while
    T1 is still active.  Note the corrected definition covers *any* write, not
    only the inserts that the ANSI English text mentions.
    """

    code = "P3"
    name = "Phantom"
    interpretation = "broad"

    def _scan(self, history: History,
              index: HistoryIndex) -> Iterator[Occurrence]:
        terminals = index.terminals
        for i, read_op in index.predicate_reads:
            terminal = terminals.get(read_op.txn)
            for j, write_op in index.predicate_writes_by_predicate.get(
                    read_op.predicate, ()):
                if j <= i or read_op.txn == write_op.txn:
                    continue
                if terminal is None or j < terminal:
                    yield Occurrence(
                        phenomenon=self.code,
                        transactions=(read_op.txn, write_op.txn),
                        items=tuple(filter(None, [write_op.item])),
                        indices=(i, j),
                        description=(
                            f"T{write_op.txn} changes the extent of predicate "
                            f"{read_op.predicate} read by active T{read_op.txn}"
                        ),
                    )


class DirtyReadStrict(Phenomenon):
    """A1: ``w1[x]...r2[x]...(a1 and c2 in either order)``.

    The strict (anomaly) interpretation of Dirty Read: T2 actually commits
    having read data that T1 then aborts.  Section 3 shows this is too weak —
    history H1 is non-serializable yet contains no A1.
    """

    code = "A1"
    name = "Dirty Read (strict)"
    interpretation = "strict"

    def _scan(self, history: History,
              index: HistoryIndex) -> Iterator[Occurrence]:
        for i, write_op in index.writes:
            if not history.aborts(write_op.txn):
                continue
            abort_index = history.terminal_index(write_op.txn)
            for j, read_op in index.item_reads(write_op.item):
                if j <= i or read_op.txn == write_op.txn:
                    continue
                if not history.commits(read_op.txn):
                    continue
                # The read must happen while T1's write is still uncommitted.
                if abort_index is not None and j > abort_index:
                    continue
                yield Occurrence(
                    phenomenon=self.code,
                    transactions=(write_op.txn, read_op.txn),
                    items=(write_op.item,),
                    indices=(i, j),
                    description=(
                        f"T{read_op.txn} committed after reading {write_op.item} "
                        f"written by T{write_op.txn}, which aborted"
                    ),
                )


class FuzzyReadStrict(Phenomenon):
    """A2: ``r1[x]...w2[x]...c2...r1[x]...c1``.

    The strict Non-repeatable Read: T1 reads an item twice, with a committed
    update by T2 in between, and T1 commits.
    """

    code = "A2"
    name = "Fuzzy Read (strict)"
    interpretation = "strict"

    def _scan(self, history: History,
              index: HistoryIndex) -> Iterator[Occurrence]:
        for i, first_read in index.reads:
            if not history.commits(first_read.txn):
                continue
            for j, write_op in index.item_writes(first_read.item):
                if j <= i or write_op.txn == first_read.txn:
                    continue
                commit_index = history.terminal_index(write_op.txn)
                if not history.commits(write_op.txn) or commit_index is None or commit_index < j:
                    continue
                for k, second_read in index.item_reads(first_read.item):
                    if k <= commit_index:
                        continue
                    if second_read.txn != first_read.txn:
                        continue
                    yield Occurrence(
                        phenomenon=self.code,
                        transactions=(first_read.txn, write_op.txn),
                        items=(first_read.item,),
                        indices=(i, j, k),
                        description=(
                            f"T{first_read.txn} reread {first_read.item} after a "
                            f"committed update by T{write_op.txn}"
                        ),
                    )


class PhantomStrict(Phenomenon):
    """A3: ``r1[P]...w2[y in P]...c2...r1[P]...c1``.

    The strict Phantom: T1 evaluates the same predicate twice and sees a
    different set because of a committed write by T2 in between.
    """

    code = "A3"
    name = "Phantom (strict)"
    interpretation = "strict"

    def _scan(self, history: History,
              index: HistoryIndex) -> Iterator[Occurrence]:
        predicate_reads = index.predicate_reads
        for i, first_read in predicate_reads:
            if not history.commits(first_read.txn):
                continue
            for j, write_op in index.predicate_writes_by_predicate.get(
                    first_read.predicate, ()):
                if j <= i or write_op.txn == first_read.txn:
                    continue
                commit_index = history.terminal_index(write_op.txn)
                if not history.commits(write_op.txn) or commit_index is None or commit_index < j:
                    continue
                for k, second_read in predicate_reads:
                    if k <= commit_index:
                        continue
                    if second_read.txn != first_read.txn:
                        continue
                    if second_read.predicate != first_read.predicate:
                        continue
                    yield Occurrence(
                        phenomenon=self.code,
                        transactions=(first_read.txn, write_op.txn),
                        items=tuple(filter(None, [write_op.item])),
                        indices=(i, j, k),
                        description=(
                            f"T{first_read.txn} re-evaluated predicate "
                            f"{first_read.predicate} after a committed change by "
                            f"T{write_op.txn}"
                        ),
                    )


class LostUpdate(Phenomenon):
    """P4: ``r1[x]...w2[x]...w1[x]...c1``.

    T1 reads an item, T2 updates it, then T1 (based on its stale read) updates
    it and commits — T2's update is lost.  Section 4.1 uses P4 to place Cursor
    Stability strictly between READ COMMITTED and REPEATABLE READ.
    """

    code = "P4"
    name = "Lost Update"
    interpretation = "broad"

    def _scan(self, history: History,
              index: HistoryIndex) -> Iterator[Occurrence]:
        for i, read_op in index.reads:
            if not history.commits(read_op.txn):
                continue
            item_writes = index.item_writes(read_op.item)
            for j, other_write in item_writes:
                if j <= i or other_write.txn == read_op.txn:
                    continue
                for k, own_write in item_writes:
                    if k <= j or own_write.txn != read_op.txn:
                        continue
                    yield Occurrence(
                        phenomenon=self.code,
                        transactions=(read_op.txn, other_write.txn),
                        items=(read_op.item,),
                        indices=(i, j, k),
                        description=(
                            f"T{read_op.txn} overwrote {read_op.item} based on a read "
                            f"that predates T{other_write.txn}'s update"
                        ),
                    )


class CursorLostUpdate(Phenomenon):
    """P4C: ``rc1[x]...w2[x]...w1[x]...c1``.

    The cursor form of Lost Update.  Cursor Stability holds a lock on the
    current row of a cursor, so a read through a cursor followed by a write of
    the same row cannot be interleaved with another transaction's write.
    """

    code = "P4C"
    name = "Cursor Lost Update"
    interpretation = "broad"

    def _scan(self, history: History,
              index: HistoryIndex) -> Iterator[Occurrence]:
        for i, read_op in index.cursor_reads:
            if not history.commits(read_op.txn):
                continue
            item_writes = index.item_writes(read_op.item)
            for j, other_write in item_writes:
                if j <= i or other_write.txn == read_op.txn:
                    continue
                for k, own_write in item_writes:
                    if k <= j or own_write.txn != read_op.txn:
                        continue
                    yield Occurrence(
                        phenomenon=self.code,
                        transactions=(read_op.txn, other_write.txn),
                        items=(read_op.item,),
                        indices=(i, j, k),
                        description=(
                            f"T{read_op.txn} lost T{other_write.txn}'s update to "
                            f"{read_op.item} read through a cursor"
                        ),
                    )


class ReadSkew(Phenomenon):
    """A5A: ``r1[x]...w2[x]...w2[y]...c2...r1[y]...(c1 or a1)`` with x ≠ y.

    T1 reads x; T2 then updates both x and y and commits; T1 then reads y and
    sees a state in which a constraint between x and y may not hold
    (inconsistent analysis across two items).
    """

    code = "A5A"
    name = "Read Skew"
    interpretation = "strict"

    def _scan(self, history: History,
              index: HistoryIndex) -> Iterator[Occurrence]:
        for i, first_read in index.reads:
            for j, write_x in index.item_writes(first_read.item):
                if j <= i or write_x.txn == first_read.txn:
                    continue
                if not history.commits(write_x.txn):
                    continue
                commit_index = history.terminal_index(write_x.txn)
                if commit_index is None or commit_index < j:
                    continue
                for k, write_y in index.txn_writes(write_x.txn):
                    if write_y.item == write_x.item:
                        continue
                    if not (i < k < commit_index or i < j < commit_index):
                        continue
                    for m, second_read in index.item_reads(write_y.item):
                        if m <= commit_index or second_read.txn != first_read.txn:
                            continue
                        yield Occurrence(
                            phenomenon=self.code,
                            transactions=(first_read.txn, write_x.txn),
                            items=(first_read.item, write_y.item),
                            indices=(i, j, k, m),
                            description=(
                                f"T{first_read.txn} read {first_read.item} before and "
                                f"{write_y.item} after T{write_x.txn}'s committed update "
                                f"of both"
                            ),
                        )


class WriteSkew(Phenomenon):
    """A5B: ``r1[x]...r2[y]...w1[y]...w2[x]...(c1 and c2 occur)`` with x ≠ y.

    Each of two committed transactions reads an item that the other writes
    afterwards.  Each preserves a constraint over {x, y} in isolation, but the
    interleaving can violate it (history H5).  Snapshot Isolation admits A5B;
    REPEATABLE READ does not (Remark 9).
    """

    code = "A5B"
    name = "Write Skew"
    interpretation = "strict"

    def _scan(self, history: History,
              index: HistoryIndex) -> Iterator[Occurrence]:
        committed = history.committed_transactions()
        for i, read_x in index.reads:
            if read_x.txn not in committed:
                continue
            for j, write_x in index.item_writes(read_x.item):
                if j <= i or write_x.txn == read_x.txn:
                    continue
                if write_x.txn not in committed:
                    continue
                t1, t2 = read_x.txn, write_x.txn
                # Now look for the mirror-image dependency on a different item.
                for k, read_y in index.txn_reads(t2):
                    if read_y.item == read_x.item:
                        continue
                    for m, write_y in index.item_writes(read_y.item):
                        if m <= k or write_y.txn != t1:
                            continue
                        yield Occurrence(
                            phenomenon=self.code,
                            transactions=(t1, t2),
                            items=(read_x.item, read_y.item),
                            indices=(i, j, k, m),
                            description=(
                                f"T{t1} and T{t2} each read one of "
                                f"{{{read_x.item}, {read_y.item}}} and wrote the other"
                            ),
                        )


# -- registry ---------------------------------------------------------------------

P0_DIRTY_WRITE = DirtyWrite()
P1_DIRTY_READ = DirtyRead()
P2_FUZZY_READ = FuzzyRead()
P3_PHANTOM = Phantom()
A1_DIRTY_READ_STRICT = DirtyReadStrict()
A2_FUZZY_READ_STRICT = FuzzyReadStrict()
A3_PHANTOM_STRICT = PhantomStrict()
P4_LOST_UPDATE = LostUpdate()
P4C_CURSOR_LOST_UPDATE = CursorLostUpdate()
A5A_READ_SKEW = ReadSkew()
A5B_WRITE_SKEW = WriteSkew()

#: Every detector defined by the paper, keyed by its code.
ALL_PHENOMENA: Dict[str, Phenomenon] = {
    detector.code: detector
    for detector in (
        P0_DIRTY_WRITE,
        P1_DIRTY_READ,
        P2_FUZZY_READ,
        P3_PHANTOM,
        A1_DIRTY_READ_STRICT,
        A2_FUZZY_READ_STRICT,
        A3_PHANTOM_STRICT,
        P4_LOST_UPDATE,
        P4C_CURSOR_LOST_UPDATE,
        A5A_READ_SKEW,
        A5B_WRITE_SKEW,
    )
}

#: The broad phenomena of Remark 5 (plus P4/P4C used for the intermediate levels).
BROAD_PHENOMENA: Tuple[Phenomenon, ...] = (
    P0_DIRTY_WRITE, P1_DIRTY_READ, P2_FUZZY_READ, P3_PHANTOM,
    P4_LOST_UPDATE, P4C_CURSOR_LOST_UPDATE,
)

#: The strict anomalies (ANSI A1–A3 and the constraint-violation anomalies A5A/A5B).
STRICT_ANOMALIES: Tuple[Phenomenon, ...] = (
    A1_DIRTY_READ_STRICT, A2_FUZZY_READ_STRICT, A3_PHANTOM_STRICT,
    A5A_READ_SKEW, A5B_WRITE_SKEW,
)


#: Detector tuple reused by detect_all (list(...) per call adds up).
_ALL_DETECTORS: Tuple[Phenomenon, ...] = tuple(ALL_PHENOMENA.values())


def by_code(code: str) -> Phenomenon:
    """Look up a detector by its paper code (case-insensitive)."""
    try:
        return ALL_PHENOMENA[code.upper()]
    except KeyError:
        raise KeyError(f"unknown phenomenon code: {code!r}") from None


def detect_all(history: History,
               codes: Optional[Iterable[str]] = None,
               index: Optional[HistoryIndex] = None) -> Dict[str, List[Occurrence]]:
    """Run every (or the selected) detectors over a history.

    Returns a mapping from phenomenon code to the list of occurrences (which
    may be empty).  Useful for building the anomaly matrices of Tables 1 and 4.
    One :class:`HistoryIndex` is built (or taken from ``index``) and shared
    across all the detectors.
    """
    selected = (
        [by_code(code) for code in codes] if codes is not None
        else _ALL_DETECTORS
    )
    if index is None:
        index = HistoryIndex(history)
    return {detector.code: detector.find(history, index) for detector in selected}


def detect_flags(history: History,
                 codes: Optional[Iterable[str]] = None) -> Dict[str, bool]:
    """Presence booleans for every (or the selected) phenomenon.

    The cheap sibling of :func:`detect_all`: the flags of :func:`sweep`,
    restricted to ``codes`` when given.
    """
    flags = sweep(history)[1]
    if codes is None:
        return flags
    return {code: flags[code]
            for code in (by_code(name).code for name in codes)}


def sweep(history: History) -> Tuple[bool, Dict[str, bool]]:
    """Conflict serializability and every phenomenon flag, in one pass.

    Every detector above matches a pattern anchored on a pair of conflicting
    operations ``a`` (at ``i``) and ``b`` (at ``j > i``) of two transactions
    on one item or one predicate, and the conflict graph is built from
    exactly those pairs.  So one walk over the per-item and per-predicate
    operation groups visits each such pair once and decides everything the
    pair can witness:

    * ww / wr / rw between committed transactions: a conflict edge;
    * ww, wr, rw while ``a``'s transaction is active: P0, P1, P2;
    * wr before ``a``'s transaction aborts, with ``b``'s committed: A1;
    * rw with ``a`` committed and a later write by ``a``'s transaction: P4,
      and P4C when ``a`` is a cursor read;
    * rw with ``b`` committed after ``j`` and a re-read of the item (A2, both
      committed) or of another item ``b`` wrote (A5A) by ``a``'s transaction
      after that commit;
    * committed rw pairs ``t1 -> t2`` on x and ``t2 -> t1`` on y != x: A5B;
    * the predicate rw pairs: P3 and A3.

    The third operation a pattern needs (a later own write, a re-read) is
    answered from per-(item, transaction) last positions gathered by the
    grouping pass.  Returns ``(serializable, flags)`` with ``flags`` keyed
    by every code in :data:`ALL_PHENOMENA`; ``tests/property`` holds it equal
    to ``find`` and ``build_dependency_graph(history).is_acyclic()``.
    """
    committed = history.committed_set()
    aborted = history.aborted_set()
    terminals: Dict[int, int] = {}
    #: item -> [(position, txn, is_write, is_cursor_read)] in history order.
    item_groups: Dict[str, List[Tuple[int, int, bool, bool]]] = {}
    #: predicate -> [(position, txn, is_write)] in history order.
    predicate_groups: Dict[str, List[Tuple[int, int, bool]]] = {}
    last_read: Dict[Tuple[str, int], int] = {}
    last_write: Dict[Tuple[str, int], int] = {}
    last_predicate_read: Dict[Tuple[str, int], int] = {}
    written: Dict[int, Set[str]] = {}
    commit = OperationKind.COMMIT
    abort = OperationKind.ABORT
    read = OperationKind.READ
    cursor_read = OperationKind.CURSOR_READ
    predicate_read = OperationKind.PREDICATE_READ
    for i, op in enumerate(history.operations):
        kind = op.kind
        txn = op.txn
        if kind is read or kind is cursor_read:
            item = op.item
            group = item_groups.get(item)
            if group is None:
                group = item_groups[item] = []
            group.append((i, txn, False, kind is cursor_read))
            last_read[item, txn] = i
        elif kind is commit or kind is abort:
            if txn not in terminals:
                terminals[txn] = i
        elif kind is predicate_read:
            predicate = op.predicate
            group = predicate_groups.get(predicate)
            if group is None:
                group = predicate_groups[predicate] = []
            group.append((i, txn, False))
            last_predicate_read[predicate, txn] = i
        else:
            item = op.item
            if item is not None:
                group = item_groups.get(item)
                if group is None:
                    group = item_groups[item] = []
                group.append((i, txn, True, False))
                last_write[item, txn] = i
                items = written.get(txn)
                if items is None:
                    items = written[txn] = set()
                items.add(item)
            predicate = op.predicate
            if predicate is not None:
                group = predicate_groups.get(predicate)
                if group is None:
                    group = predicate_groups[predicate] = []
                group.append((i, txn, True))

    p0 = p1 = p2 = p3 = a1 = a2 = a3 = p4 = p4c = a5a = False
    adjacency: Dict[int, Set[int]] = {txn: set() for txn in committed}
    #: (t1, t2) -> items of committed rw pairs t1 -> t2 (A5B's two halves).
    rw_items: Dict[Tuple[int, int], Set[str]] = {}
    for item, group in item_groups.items():
        size = len(group)
        for first in range(size - 1):
            i, ta, a_writes, a_cursor = group[first]
            terminal = terminals.get(ta)
            a_committed = ta in committed
            for j, tb, b_writes, _ in group[first + 1:]:
                if tb == ta or not (a_writes or b_writes):
                    continue
                active = terminal is None or j < terminal
                b_committed = tb in committed
                if a_committed and b_committed:
                    adjacency[ta].add(tb)
                if a_writes:
                    if b_writes:
                        if active:
                            p0 = True
                    elif active:
                        p1 = True
                        if ta in aborted and b_committed:
                            a1 = True
                    continue
                # rw: a reads the item, b later writes it.
                if active:
                    p2 = True
                if a_committed:
                    if last_write.get((item, ta), -1) > j:
                        p4 = True
                        if a_cursor:
                            p4c = True
                    if b_committed:
                        pair = rw_items.get((ta, tb))
                        if pair is None:
                            pair = rw_items[ta, tb] = set()
                        pair.add(item)
                if b_committed:
                    commit_b = terminals[tb]
                    if commit_b > j:
                        if a_committed and last_read[item, ta] > commit_b:
                            a2 = True
                        if not a5a:
                            for other in written[tb]:
                                if (other != item and last_read.get(
                                        (other, ta), -1) > commit_b):
                                    a5a = True
                                    break
    for predicate, group in predicate_groups.items():
        size = len(group)
        for first in range(size - 1):
            i, ta, a_writes = group[first]
            terminal = terminals.get(ta)
            a_committed = ta in committed
            for j, tb, b_writes in group[first + 1:]:
                if tb == ta or not (a_writes or b_writes):
                    continue
                b_committed = tb in committed
                if a_committed and b_committed:
                    adjacency[ta].add(tb)
                if a_writes or not b_writes:
                    continue
                if terminal is None or j < terminal:
                    p3 = True
                if a_committed and b_committed:
                    commit_b = terminals[tb]
                    if (commit_b > j and last_predicate_read[predicate, ta]
                            > commit_b):
                        a3 = True
    a5b = False
    for (t1, t2), forward in rw_items.items():
        backward = rw_items.get((t2, t1))
        if backward is not None and len(forward | backward) >= 2:
            a5b = True
            break
    flags = {"P0": p0, "P1": p1, "P2": p2, "P3": p3, "A1": a1, "A2": a2,
             "A3": a3, "P4": p4, "P4C": p4c, "A5A": a5a, "A5B": a5b}
    return adjacency_is_acyclic(adjacency), flags
