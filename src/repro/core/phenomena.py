"""Phenomenon and anomaly detectors (P0–P4, P4C, A1–A3, A5A, A5B).

The paper's central move is to distinguish *strict* interpretations of the
ANSI phenomena (A1, A2, A3 — actual anomalies that have already produced a
wrong result) from *broad* interpretations (P1, P2, P3 — patterns that might
lead to an anomaly), to add the Dirty Write phenomenon P0, and to introduce
the multiversion-era anomalies P4 (Lost Update), P4C (Cursor Lost Update),
A5A (Read Skew) and A5B (Write Skew).

Each phenomenon is a pattern over a :class:`~repro.core.history.History`,
and every detector reports *occurrences* — the concrete operations that
instantiate the forbidden subsequence — so that tests, the anomaly matrix
(Table 4), and the hierarchy analysis (Figure 2) can all reuse the same
machinery.

Nine of the eleven patterns are anchored on one conflicting pair: an
operation ``a`` at position ``i`` and ``b`` at ``j > i``, of two different
transactions, on one item or one predicate.  They are the rows of one table,
:data:`PATTERNS`, which says what each pair is, what must hold of ``a``'s
and ``b``'s transactions, and the third operation the pattern needs, if any.
Two readers share the rows:

* :meth:`Phenomenon.find` and :meth:`Phenomenon.occurs_in` enumerate a row's
  occurrences lazily, ordered by ``i``, then ``j``, then ``k``;
* :func:`sweep` visits every conflicting pair once and asks each row not yet
  fired whether the pair witnesses it, which gives every flag and the
  conflict-graph serializability verdict in one pass.

A5A and A5B relate two items of one transaction pair, so both readers match
them by hand.

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
from functools import partial
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Set, Tuple)

from .dependency import adjacency_is_acyclic
from .history import History
from .operations import OperationKind

__all__ = [
    "Occurrence", "Pattern", "PATTERNS", "Phenomenon",
    "P0_DIRTY_WRITE", "P1_DIRTY_READ", "P2_FUZZY_READ", "P3_PHANTOM",
    "A1_DIRTY_READ_STRICT", "A2_FUZZY_READ_STRICT", "A3_PHANTOM_STRICT",
    "P4_LOST_UPDATE", "P4C_CURSOR_LOST_UPDATE", "A5A_READ_SKEW",
    "A5B_WRITE_SKEW", "ALL_PHENOMENA", "BROAD_PHENOMENA", "STRICT_ANOMALIES",
    "by_code", "detect_all", "sweep",
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


class Pattern(NamedTuple):
    """One row of :data:`PATTERNS`: a phenomenon anchored on ``a`` (at ``i``)
    and ``b`` (at ``j > i``), two operations of different transactions on one
    item or one predicate."""

    code: str
    name: str
    #: "broad" for the phenomena, "strict" for the anomalies.
    interpretation: str
    #: The pair's operations: "w" an item write, "r" an item read (cursor
    #: reads included), "rc" a cursor read, "r[P]" a predicate read, "w[P]"
    #: a write that changes P's extent.
    a: str
    b: str
    #: What must hold of a's transaction: "active at j", "active at j,
    #: aborts" or "commits".
    a_txn: str
    #: What must hold of b's transaction: "", "commits" or "commits after j".
    b_txn: str
    #: The third operation, by a's transaction on the same item or
    #: predicate: "", "own write after j" or "own re-read after c2" (which
    #: needs b's commit after j).
    third: str
    #: What an occurrence names: "x" the pair's item, "y" the item b writes.
    names: str
    #: The paper's pattern, for readers.
    paper: str
    #: The occurrence description: {a}, {b} the transactions, {x} the item or
    #: predicate of the pair.
    describe: str


_ACTIVE = "active at j"
_ABORTS = "active at j, aborts"
_COMMITS = "commits"
_AFTER_J = "commits after j"
_OWN_WRITE = "own write after j"
_REREAD = "own re-read after c2"

#: The paper's pair-anchored phenomena.
PATTERNS: Tuple[Pattern, ...] = (
    # Remark 3: every isolation level must forbid P0, for constraints
    # between items and for before-image recovery.
    Pattern("P0", "Dirty Write", "broad", "w", "w", _ACTIVE, "", "", "x",
            "w1[x]...w2[x]...(c1 or a1)",
            "T{b} overwrites {x} while T{a}'s write is uncommitted"),
    # The broad reading rules out the inconsistent analysis of H1.
    Pattern("P1", "Dirty Read", "broad", "w", "r", _ACTIVE, "", "", "x",
            "w1[x]...r2[x]...(c1 or a1)",
            "T{b} reads {x} written by uncommitted T{a}"),
    # Too weak: H1 is non-serializable yet has no A1.
    Pattern("A1", "Dirty Read (strict)", "strict", "w", "r", _ABORTS,
            _COMMITS, "", "x",
            "w1[x]...r2[x]...(a1 and c2 in either order)",
            "T{b} committed after reading {x} written by T{a}, which aborted"),
    # The broad reading (no re-read needed) rules out H2.
    Pattern("P2", "Fuzzy Read (Non-repeatable Read)", "broad", "r", "w",
            _ACTIVE, "", "", "x",
            "r1[x]...w2[x]...(c1 or a1)",
            "T{b} writes {x} after T{a} read it and before T{a} terminated"),
    # Section 4.1 uses P4 to place Cursor Stability strictly between READ
    # COMMITTED and REPEATABLE READ.
    Pattern("P4", "Lost Update", "broad", "r", "w", _COMMITS, "", _OWN_WRITE,
            "x", "r1[x]...w2[x]...w1[x]...c1",
            "T{a} overwrote {x} based on a read that predates T{b}'s update"),
    # Cursor Stability locks a cursor's current row, so this cannot happen.
    Pattern("P4C", "Cursor Lost Update", "broad", "rc", "w", _COMMITS, "",
            _OWN_WRITE, "x", "rc1[x]...w2[x]...w1[x]...c1",
            "T{a} lost T{b}'s update to {x} read through a cursor"),
    Pattern("A2", "Fuzzy Read (strict)", "strict", "r", "w", _COMMITS,
            _AFTER_J, _REREAD, "x", "r1[x]...w2[x]...c2...r1[x]...c1",
            "T{a} reread {x} after a committed update by T{b}"),
    # Any write that changes the extent, not only the ANSI text's inserts.
    Pattern("P3", "Phantom", "broad", "r[P]", "w[P]", _ACTIVE, "", "", "y",
            "r1[P]...w2[y in P]...(c1 or a1)",
            "T{b} changes the extent of predicate {x} read by active T{a}"),
    # Too weak: H3 is a phantom that A3 misses.
    Pattern("A3", "Phantom (strict)", "strict", "r[P]", "w[P]", _COMMITS,
            _AFTER_J, _REREAD, "y", "r1[P]...w2[y in P]...c2...r1[P]...c1",
            "T{a} re-evaluated predicate {x} after a committed change by "
            "T{b}"),
)

# -- compiling the rows -------------------------------------------------------
#
# A group entry is ``(position, txn, class)``.  Item groups hold _W, _R and
# _RC entries, predicate groups _PW and _PR entries.
_W, _R, _RC, _PW, _PR = range(5)
_CLASSES = {"w": (_W,), "r": (_R, _RC), "rc": (_RC,), "w[P]": (_PW,),
            "r[P]": (_PR,)}

# What holds of one pair, as bits; a row fires on the pair when it needs no
# bit the pair lacks and its third operation exists.
_A_IS_ACTIVE, _A_ABORTS, _A_COMMITS, _B_COMMITS = 1, 2, 4, 8
_NEEDS = {_ACTIVE: _A_IS_ACTIVE, _ABORTS: _A_IS_ACTIVE | _A_ABORTS,
          _COMMITS: _A_COMMITS}
_B_NEEDS = {"": 0, _COMMITS: _B_COMMITS, _AFTER_J: _B_COMMITS}

#: A row as the readers ask it: (code, bits needed, b commits after j, third).
_Rule = Tuple[str, int, bool, str]
#: The rules of one pair of operation classes, indexed by the pair's bits:
#: entry ``facts`` holds the rules that need no bit outside ``facts``.
_Slot = Tuple[Tuple[_Rule, ...], ...]


def _rule(row: Pattern) -> _Rule:
    if row.third == _REREAD and row.b_txn != _AFTER_J:
        raise ValueError(f"{row.code}: a re-read after c2 needs b's commit "
                         f"after j")
    return (row.code, _NEEDS[row.a_txn] | _B_NEEDS[row.b_txn],
            row.b_txn == _AFTER_J, row.third)


def _pair_rules() -> List[List[Optional[_Slot]]]:
    """``[a class][b class]`` -> the slot of rules that pair can witness;
    None when the two classes do not conflict (no write, or one item and one
    predicate)."""
    table: List[List[Optional[_Slot]]] = []
    for a in range(5):
        table.append([])
        for b in range(5):
            conflict = ((a in (_W, _PW) or b in (_W, _PW))
                        and (a >= _PW) == (b >= _PW))
            rules = [_rule(row) for row in PATTERNS
                     if a in _CLASSES[row.a] and b in _CLASSES[row.b]]
            table[a].append(tuple(
                tuple(rule for rule in rules if not rule[1] & ~facts)
                for facts in range(16)) if conflict else None)
    return table


_PAIR_RULES = _pair_rules()

# -- grouping ------------------------------------------------------------------

_Groups = Dict[str, List[Tuple[int, int, int]]]
#: (item or predicate, txn) -> the transaction's last position there.
_Last = Dict[Tuple[str, int], int]
#: One namespace: its groups, last reads and last writes.
_Scope = Tuple[_Groups, _Last, _Last]


#: What :func:`_group` returns.
_Grouped = Tuple[Tuple[_Scope, _Scope], Dict[int, int], Dict[int, Set[str]]]


def _group(history: History) -> _Grouped:
    """One pass over a history: the item scope and the predicate scope, each
    transaction's first terminal, and the items each transaction writes."""
    terminals: Dict[int, int] = {}
    items: _Groups = {}
    predicates: _Groups = {}
    item_reads: _Last = {}
    item_writes: _Last = {}
    predicate_reads: _Last = {}
    predicate_writes: _Last = {}
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
            group = items.get(item)
            if group is None:
                group = items[item] = []
            group.append((i, txn, _RC if kind is cursor_read else _R))
            item_reads[item, txn] = i
        elif kind is commit or kind is abort:
            if txn not in terminals:
                terminals[txn] = i
        elif kind is predicate_read:
            predicate = op.predicate
            group = predicates.get(predicate)
            if group is None:
                group = predicates[predicate] = []
            group.append((i, txn, _PR))
            predicate_reads[predicate, txn] = i
        else:
            item = op.item
            if item is not None:
                group = items.get(item)
                if group is None:
                    group = items[item] = []
                group.append((i, txn, _W))
                item_writes[item, txn] = i
                own = written.get(txn)
                if own is None:
                    own = written[txn] = set()
                own.add(item)
            predicate = op.predicate
            if predicate is not None:
                group = predicates.get(predicate)
                if group is None:
                    group = predicates[predicate] = []
                group.append((i, txn, _PW))
                predicate_writes[predicate, txn] = i
    return (((items, item_reads, item_writes),
             (predicates, predicate_reads, predicate_writes)),
            terminals, written)


def _starts(groups: _Groups, classes: Tuple[int, ...]
            ) -> List[Tuple[int, str, int]]:
    """``(position, key, offset in its group)`` of every entry of ``classes``,
    in history order."""
    return sorted((entry[0], key, n) for key, group in groups.items()
                  for n, entry in enumerate(group) if entry[2] in classes)


# -- the matchers ----------------------------------------------------------------

def _match(row: Pattern, history: History,
           grouped: _Grouped) -> Iterator[Occurrence]:
    """Every occurrence of one row, lazily: ordered by i, then j, then k."""
    code, need, after_j, third = _rule(row)
    a_classes, b_classes = _CLASSES[row.a], _CLASSES[row.b]
    on_predicate = a_classes[0] >= _PW
    scopes, terminals, _ = grouped
    groups = scopes[on_predicate][0]
    if third == _OWN_WRITE:
        third_classes = (_PW,) if on_predicate else (_W,)
    else:
        third_classes = (_PR,) if on_predicate else (_R, _RC)
    committed = history.committed_set()
    aborted = history.aborted_set()
    ops = history.operations
    for i, key, n in _starts(groups, a_classes):
        group = groups[key]
        ta = group[n][1]
        terminal = terminals.get(ta)
        a_facts = (_A_COMMITS if ta in committed
                   else _A_ABORTS if ta in aborted else 0)
        for j, tb, b_class in group[n + 1:]:
            if tb == ta or b_class not in b_classes:
                continue
            facts = a_facts | (_B_COMMITS if tb in committed else 0)
            if terminal is None or j < terminal:
                facts |= _A_IS_ACTIVE
            if need & ~facts:
                continue
            bound = j
            if after_j:
                commit_b = terminals[tb]
                if commit_b <= j:
                    continue
                if third == _REREAD:
                    bound = commit_b
            names = ((key,) if row.names == "x"
                     else tuple(filter(None, [ops[j].item])))
            description = row.describe.format(a=ta, b=tb, x=key)
            if not third:
                yield Occurrence(code, (ta, tb), names, (i, j), description)
                continue
            for k, tc, c_class in group[n + 1:]:
                if k > bound and tc == ta and c_class in third_classes:
                    yield Occurrence(code, (ta, tb), names, (i, j, k),
                                     description)


def _scan_read_skew(history: History,
                    grouped: _Grouped) -> Iterator[Occurrence]:
    """A5A: ``r1[x]...w2[x]...w2[y]...c2...r1[y]...(c1 or a1)`` with x ≠ y.

    T1 reads x; T2 then updates both x and y and commits; T1 then reads y and
    sees a state in which a constraint between x and y may not hold
    (inconsistent analysis across two items).
    """
    ((groups, _, _), _), terminals, _ = grouped
    committed = history.committed_set()
    writes = _starts(groups, (_W,))
    for i, x, n in _starts(groups, (_R, _RC)):
        group = groups[x]
        t1 = group[n][1]
        for j, t2, b_class in group[n + 1:]:
            if b_class != _W or t2 == t1 or t2 not in committed:
                continue
            c2 = terminals[t2]
            if c2 < j:
                continue
            for k, y, offset in writes:
                if y == x or groups[y][offset][1] != t2:
                    continue
                for m, tc, c_class in groups[y]:
                    if m > c2 and tc == t1 and c_class != _W:
                        yield Occurrence(
                            "A5A", (t1, t2), (x, y), (i, j, k, m),
                            f"T{t1} read {x} before and {y} after T{t2}'s "
                            f"committed update of both")


def _scan_write_skew(history: History,
                     grouped: _Grouped) -> Iterator[Occurrence]:
    """A5B: ``r1[x]...r2[y]...w1[y]...w2[x]...(c1 and c2 occur)`` with x ≠ y.

    Each of two committed transactions reads an item that the other writes
    afterwards.  Each preserves a constraint over {x, y} in isolation, but the
    interleaving can violate it (history H5).  Snapshot Isolation admits A5B;
    REPEATABLE READ does not (Remark 9).
    """
    ((groups, _, _), _), _, _ = grouped
    committed = history.committed_set()
    reads = _starts(groups, (_R, _RC))
    for i, x, n in reads:
        group = groups[x]
        t1 = group[n][1]
        if t1 not in committed:
            continue
        for j, t2, b_class in group[n + 1:]:
            if b_class != _W or t2 == t1 or t2 not in committed:
                continue
            for k, y, offset in reads:
                if y == x or groups[y][offset][1] != t2:
                    continue
                for m, tc, c_class in groups[y][offset + 1:]:
                    if c_class == _W and tc == t1:
                        yield Occurrence(
                            "A5B", (t1, t2), (x, y), (i, j, k, m),
                            f"T{t1} and T{t2} each read one of "
                            f"{{{x}, {y}}} and wrote the other")


# -- registry ---------------------------------------------------------------------

class Phenomenon:
    """A named phenomenon / anomaly detector over a lazy occurrence scan of a
    grouped history."""

    def __init__(self, code: str, name: str, interpretation: str,
                 scan: Callable[[History, _Grouped], Iterator[Occurrence]]):
        #: Short code used in the paper ("P0", "A5B", ...).
        self.code = code
        #: Human-readable name ("Dirty Write", "Write Skew", ...).
        self.name = name
        #: "broad" for phenomena (P*), "strict" for anomalies (A*).
        self.interpretation = interpretation
        self._scan = scan

    def find(self, history: History) -> List[Occurrence]:
        """All occurrences of the phenomenon in the history."""
        return list(self._scan(history, _group(history)))

    def occurs_in(self, history: History) -> bool:
        """True when the phenomenon occurs at least once; stops at the first
        occurrence.  :func:`sweep` answers every flag at once."""
        for _ in self._scan(history, _group(history)):
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.code} {self.name}>"


_ROWS = {row.code: row for row in PATTERNS}


def _detector(code: str) -> Phenomenon:
    row = _ROWS[code]
    return Phenomenon(row.code, row.name, row.interpretation,
                      partial(_match, row))


P0_DIRTY_WRITE = _detector("P0")
P1_DIRTY_READ = _detector("P1")
P2_FUZZY_READ = _detector("P2")
P3_PHANTOM = _detector("P3")
A1_DIRTY_READ_STRICT = _detector("A1")
A2_FUZZY_READ_STRICT = _detector("A2")
A3_PHANTOM_STRICT = _detector("A3")
P4_LOST_UPDATE = _detector("P4")
P4C_CURSOR_LOST_UPDATE = _detector("P4C")
A5A_READ_SKEW = Phenomenon("A5A", "Read Skew", "strict", _scan_read_skew)
A5B_WRITE_SKEW = Phenomenon("A5B", "Write Skew", "strict", _scan_write_skew)

#: Every detector defined by the paper, keyed by its code.
ALL_PHENOMENA: Dict[str, Phenomenon] = {
    detector.code: detector
    for detector in (
        P0_DIRTY_WRITE, P1_DIRTY_READ, P2_FUZZY_READ, P3_PHANTOM,
        A1_DIRTY_READ_STRICT, A2_FUZZY_READ_STRICT, A3_PHANTOM_STRICT,
        P4_LOST_UPDATE, P4C_CURSOR_LOST_UPDATE, A5A_READ_SKEW, A5B_WRITE_SKEW,
    )
}

#: Detector tuple reused by detect_all (list(...) per call adds up).
_ALL_DETECTORS: Tuple[Phenomenon, ...] = tuple(ALL_PHENOMENA.values())

#: The broad phenomena of Remark 5 (plus P4/P4C used for the intermediate levels).
BROAD_PHENOMENA: Tuple[Phenomenon, ...] = tuple(
    detector for detector in _ALL_DETECTORS
    if detector.interpretation == "broad")

#: The strict anomalies (ANSI A1–A3 and the constraint-violation anomalies A5A/A5B).
STRICT_ANOMALIES: Tuple[Phenomenon, ...] = tuple(
    detector for detector in _ALL_DETECTORS
    if detector.interpretation == "strict")


def by_code(code: str) -> Phenomenon:
    """Look up a detector by its paper code (case-insensitive)."""
    try:
        return ALL_PHENOMENA[code.upper()]
    except KeyError:
        raise KeyError(f"unknown phenomenon code: {code!r}") from None


def detect_all(history: History,
               codes: Optional[Iterable[str]] = None
               ) -> Dict[str, List[Occurrence]]:
    """Run every (or the selected) detectors over a history.

    Returns a mapping from phenomenon code to the list of occurrences (which
    may be empty).  Useful for building the anomaly matrices of Tables 1 and 4.
    The history is grouped once for all the detectors.
    """
    selected = (
        [by_code(code) for code in codes] if codes is not None
        else _ALL_DETECTORS
    )
    grouped = _group(history)
    return {detector.code: list(detector._scan(history, grouped))
            for detector in selected}


def sweep(history: History) -> Tuple[bool, Dict[str, bool]]:
    """Conflict serializability and every phenomenon flag, in one pass.

    Every pattern is anchored on a pair of conflicting operations ``a`` (at
    ``i``) and ``b`` (at ``j > i``) of two transactions on one item or one
    predicate, and the conflict graph is built from exactly those pairs.  So
    one walk over the per-item and per-predicate groups visits each such pair
    once and decides everything it can witness:

    * between committed transactions: a conflict edge;
    * each :data:`PATTERNS` row not yet fired, for the pair's two operation
      classes: a's terminal against ``j``, b's terminal against ``j``, and
      a's last own write or re-read of the item or predicate, from the
      last positions the grouping pass gathers;
    * on a committed rw pair ``t1 -> t2`` on x, its item, so that a mirror
      pair ``t2 -> t1`` on y != x gives A5B;
    * on an rw pair whose b commits after ``j``, a re-read by a's
      transaction after that commit of another item b wrote: A5A.

    Returns ``(serializable, flags)`` with ``flags`` keyed by every code in
    :data:`ALL_PHENOMENA`; ``tests/property`` holds it equal to ``find``,
    ``build_dependency_graph(history).is_acyclic()`` and pinned digests.
    """
    scopes, terminals, written = _group(history)
    item_reads = scopes[0][1]
    committed = history.committed_set()
    aborted = history.aborted_set()
    flags = dict.fromkeys(ALL_PHENOMENA, False)
    adjacency: Dict[int, Set[int]] = {txn: set() for txn in committed}
    #: (t1, t2) -> items of committed rw pairs t1 -> t2 (A5B's two halves).
    rw_items: Dict[Tuple[int, int], Set[str]] = {}
    a5a = False
    for groups, reads, writes in scopes:
        for key, group in groups.items():
            for first in range(len(group) - 1):
                i, ta, a_class = group[first]
                terminal = terminals.get(ta)
                a_committed = ta in committed
                a_facts = (_A_COMMITS if a_committed
                           else _A_ABORTS if ta in aborted else 0)
                by_b = _PAIR_RULES[a_class]
                for j, tb, b_class in group[first + 1:]:
                    slot = by_b[b_class]
                    if slot is None or tb == ta:
                        continue
                    facts = a_facts
                    if tb in committed:
                        facts |= _B_COMMITS
                        if a_committed:
                            adjacency[ta].add(tb)
                    if terminal is None or j < terminal:
                        facts |= _A_IS_ACTIVE
                    for code, _, after_j, third in slot[facts]:
                        if flags[code]:
                            continue
                        if after_j:
                            commit_b = terminals[tb]
                            if commit_b <= j:
                                continue
                        if third:
                            if third == _OWN_WRITE:
                                if writes.get((key, ta), -1) <= j:
                                    continue
                            elif reads.get((key, ta), -1) <= commit_b:
                                continue
                        flags[code] = True
                    if b_class != _W or a_class == _W or not facts & _B_COMMITS:
                        continue
                    # A committed b on an rw item pair: the hand-matched
                    # anomalies.
                    if a_committed:
                        pair = rw_items.get((ta, tb))
                        if pair is None:
                            pair = rw_items[ta, tb] = set()
                        pair.add(key)
                    if not a5a:
                        commit_b = terminals[tb]
                        if commit_b > j:
                            for other in written[tb]:
                                if (other != key and item_reads.get(
                                        (other, ta), -1) > commit_b):
                                    a5a = True
                                    break
    flags["A5A"] = a5a
    for (t1, t2), forward in rw_items.items():
        backward = rw_items.get((t2, t1))
        if backward is not None and len(forward | backward) >= 2:
            flags["A5B"] = True
            break
    return adjacency_is_acyclic(adjacency), flags
