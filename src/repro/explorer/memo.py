"""Memoized batched history classification for the schedule-space explorer.

Exploring an interleaving space produces thousands of realized histories, and
many interleavings realize the *same* history (blocking collapses schedule
prefixes), so classification results are cached per distinct history
(:class:`BatchClassifier`).  Commutation-equivalent interleavings are a
different redundancy: each is executed, and whatever their histories share
is paid once here, by the class tables.

Behind that memo sits a class table per history kind.  The paper's
definitions read far less than a whole history — P0–P3, A1–A5B and the
conflict graph compare only operations on one item or predicate and the
commit or abort of a transaction that touched it (Section 2.1), and the
Section 4.2 MV→SV mapping reads only each transaction's operations and where
it starts and commits — so a memo miss builds a class key of just those
orders (see the key functions below) and classifies only when the class is
new.  On the ledger's 30,000-schedule stream (seed 42) the memo misses
17,492 times and the class tables 1,509 times: 728 single-version and 781
multiversion classes.

A class miss pays one classification pass.  A single-version history gets
one :func:`~repro.core.phenomena.sweep` over its conflicting operation pairs,
which yields every phenomenon flag and the conflict-graph serializability
verdict together.  A multiversion history goes through the paper's
definitions in :mod:`repro.core.mv_analysis`: its writes are stamped with
the versions their commits install (``assign_write_versions``), the MV
serialization graph gives the verdict (``mv_is_serializable``), and one
sweep of the single-valued mapping (``mv_to_sv``) gives the flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.history import History
from ..core.mv_analysis import assign_write_versions, mv_is_serializable, mv_to_sv
from ..core.operations import Operation, OperationKind
from ..core.phenomena import sweep

__all__ = [
    "HistoryClassification",
    "BatchClassifier",
    "CLASSIFICATION_MEMO_CAP",
]


@dataclass(frozen=True)
class HistoryClassification:
    """Everything the coverage report needs to know about one realized history."""

    shorthand: str
    serializable: bool
    phenomena: Tuple[str, ...]
    committed: Tuple[int, ...]
    aborted: Tuple[int, ...]


#: What a class table stores: a classification without its shorthand.
_ClassEntry = Tuple[bool, Tuple[str, ...], Tuple[int, ...], Tuple[int, ...]]


def _classify_pass(history: History, initial_items) -> _ClassEntry:
    """Classify one history without any table: one :func:`sweep`, or the MV
    serialization graph and a sweep of the single-valued history it maps to."""
    if history.is_multiversion():
        completed = assign_write_versions(history, initial_items)
        serializable = mv_is_serializable(completed)
        flags = sweep(mv_to_sv(completed))[1]
    else:
        serializable, flags = sweep(history)
    return (serializable,
            tuple(sorted(code for code, fired in flags.items() if fired)),
            tuple(sorted(history.committed_set())),
            tuple(sorted(history.aborted_set())))


# -- class keys ------------------------------------------------------------------
#
# Neither pass reads a whole history.  Both keys list each transaction's
# operations as a block in program order (an operation is its shorthand, as
# in the front memo), blocks sorted by transaction; every other component is
# a sequence of transaction ids over one scope, where the k-th occurrence of
# T is T's k-th operation in that scope (which the block names) and, after
# them, T's commit or abort.  So two histories with one key differ only in
# how operations of unrelated scopes interleave, and what each pass reads is
# fixed by a key component:
#
#   sweep reads (a PATTERNS row's fields)        fixed by
#   committed_set / aborted_set: a_txn           the blocks
#     "commits" / "aborts", b_txn "commits"
#   a's and b's classes (w, r, rc, r[P], w[P])   the blocks (kind, item, predicate)
#     and group membership
#   the pair order i < j                         the item's or predicate's sequence
#   a's terminal against j: a_txn "active at j"  a's terminal in that group's
#                                                  sequence
#   b's terminal against j: b_txn "commits       b's terminal in that group's
#     after j"                                     sequence
#   a's last own write against j, or last        the item's or predicate's
#     re-read against b's terminal: third          sequence (b's terminal is in it)
#   written[t] (A5A, by hand)                    the blocks
#   a's last read of another item b wrote        that item's sequence: b wrote
#     against b's terminal (A5A, by hand)          it, so b's terminal is in it
#
#   assign_write_versions reads                  fixed by
#   kinds, items, versions; whether every data   the blocks
#     access carries a version
#   version stamping: commits in order, each     the event sequence (terminals)
#     written item in program order
#   a read's last own write of its item          the blocks
#   the initial items                            the classifier
#
#   mv_serialization_graph reads                 fixed by
#   committed transactions, read versions        the blocks, the stamps
#   the writer of each (item, version), the      the stamps (one writer per
#     last in history order                        version), or the event
#                                                  sequence (versioned writes)
#
#   mv_to_sv reads                               fixed by
#   each transaction's first operation and its   the event sequence (starts,
#     terminal (where the mapping places each      terminals)
#     block), first-appearance order
#   own versions (which reads are snapshot       the blocks, the stamps
#     reads)
#
# and sweep reads nothing of a multiversion history but the mapped history
# those passes return.  A version has one writer unless some writes carry a
# version and others are stamped at commit; the graph then keeps the later
# write's transaction, an order the key does not fix, so a history with both
# kinds of write gets no key and takes the uncached path (the engines never
# produce one: their writes carry no version).  The argument also needs
# each transaction's operations to end at its first terminal; a history
# where one follows it (the engines never produce one) gets no key either.
# Transaction ids that do not sort (mixed types) do too.


def _sorted_blocks(blocks: Dict[int, List[str]]) -> tuple:
    return tuple(sorted([(txn, tuple(block)) for txn, block in blocks.items()]))


def _sv_class_key(ops: Sequence[Operation],
                  names: Sequence[str]) -> Optional[tuple]:
    """Single-version class key: the blocks, then per item and per predicate
    the transactions of sweep's group in order, each transaction's terminal
    placed in every group it joined."""
    read = OperationKind.READ
    cursor_read = OperationKind.CURSOR_READ
    predicate_read = OperationKind.PREDICATE_READ
    commit = OperationKind.COMMIT
    abort = OperationKind.ABORT
    blocks: Dict[int, List[str]] = {}
    #: txn -> the groups its operations joined; None once it terminated.
    joined_by_txn: Dict[int, Optional[Dict[object, List[int]]]] = {}
    item_groups: Dict[str, List[int]] = {}
    predicate_groups: Dict[str, List[int]] = {}
    for op, name in zip(ops, names):
        txn = op.txn
        joined = joined_by_txn.get(txn)
        if joined is None:
            if txn in joined_by_txn:
                return None
            joined = joined_by_txn[txn] = {}
            blocks[txn] = [name]
        else:
            blocks[txn].append(name)
        kind = op.kind
        if kind is commit or kind is abort:
            for group in joined.values():
                group.append(txn)
            joined_by_txn[txn] = None
            continue
        if kind is not predicate_read:
            item = op.item
            if item is not None:
                group = item_groups.get(item)
                if group is None:
                    group = item_groups[item] = []
                group.append(txn)
                joined[item] = group
            if kind is read or kind is cursor_read:
                continue
        predicate = op.predicate
        if predicate is not None:
            group = predicate_groups.get(predicate)
            if group is None:
                group = predicate_groups[predicate] = []
            group.append(txn)
            joined[(predicate,)] = group
    try:
        return (_sorted_blocks(blocks),
                tuple(sorted([(item, tuple(group))
                              for item, group in item_groups.items()])),
                tuple(sorted([(predicate, tuple(group))
                              for predicate, group in predicate_groups.items()])))
    except TypeError:
        return None


def _mv_class_key(ops: Sequence[Operation],
                  names: Sequence[str]) -> Optional[tuple]:
    """Multiversion class key: the blocks, then the transactions of every
    start, terminal and explicitly versioned write in history order."""
    write = OperationKind.WRITE
    cursor_write = OperationKind.CURSOR_WRITE
    predicate_write = OperationKind.PREDICATE_WRITE
    commit = OperationKind.COMMIT
    abort = OperationKind.ABORT
    blocks: Dict[int, List[str]] = {}
    #: txn -> its block while it runs; None once it terminated.
    running: Dict[int, Optional[List[str]]] = {}
    events: List[int] = []
    #: Whether some write is stamped at commit, and whether some carries a
    #: version: a history with both gets no key.
    stamped = versioned = False
    for op, name in zip(ops, names):
        txn = op.txn
        block = running.get(txn)
        if block is None:
            if txn in running:
                return None
            block = running[txn] = blocks[txn] = [name]
            events.append(txn)
        else:
            block.append(name)
        kind = op.kind
        if kind is commit or kind is abort:
            events.append(txn)
            running[txn] = None
        elif (op.item is not None
              and (kind is write or kind is cursor_write
                   or kind is predicate_write)):
            if op.version is None:
                stamped = True
            else:
                versioned = True
                events.append(txn)
    if stamped and versioned:
        return None
    try:
        return _sorted_blocks(blocks), tuple(events)
    except TypeError:
        return None


#: Entries each of the classifier's tables — the shorthand memo and the two
#: class tables — admits.  A full table stops admitting (later distinct
#: histories or classes are computed and returned, never stored, and nothing
#: is evicted), so a stream of any length holds at most this many per table.
#: Measured on the ledger's 20-operation histories: 559 B per memo entry
#: (178-character shorthand key, the classification and its tuples, the dict
#: slot), so a full memo is 73 MB per process; the ledger's 30,000-schedule
#: run admits 17,492, 13% of it.  A class entry is 1.35 kB single-version and
#: 1.06 kB multiversion (the key's tuples; its operation strings are the
#: operations' own), and that run admits 728 and 781 of them, 1.8 MB together.
CLASSIFICATION_MEMO_CAP = 1 << 17


class BatchClassifier:
    """Classify realized histories through one whole-history memo.

    The memo is a single table keyed by the history's shorthand — the string
    every record already carries, which renders the operation sequence with
    its values and versions — so an entry is the same whichever level or
    chunk realized the history.  One instance serves one workload: multiversion version completion reads
    ``initial_items``, so entries must not cross initial databases.
    """

    def __init__(self, initial_items: Optional[Sequence[str]] = None):
        self._memo: Dict[str, HistoryClassification] = {}
        #: Items present in the initial database, for MV version completion
        #: (see assign_write_versions).  None assumes every item pre-exists.
        self.initial_items = None if initial_items is None else frozenset(initial_items)
        #: Class tables behind the memo, one per history kind, keyed by
        #: _sv_class_key / _mv_class_key: a memo miss classifies only when
        #: its class is new.
        self._sv_classes: Dict[tuple, _ClassEntry] = {}
        self._mv_classes: Dict[tuple, _ClassEntry] = {}
        self.hits = 0
        self.misses = 0
        self.class_hits = 0
        self.class_misses = 0

    def __len__(self) -> int:
        return len(self._memo)

    def classify(self, history: History) -> HistoryClassification:
        """Serializability verdict plus the phenomena present in the history.

        Multiversion histories (realized by the Snapshot Isolation and Read
        Consistency engines, whose reads carry version subscripts) follow the
        paper's Section 4.2 touchstone: serializability is judged on the MV
        serialization graph, and the phenomenon detectors run on the
        dataflow-preserving single-valued mapping (``mv_to_sv``), not on the
        raw versioned operations — otherwise every snapshot read of an old
        version would look like a dirty read.
        """
        ops = history.operations
        names = [op.to_shorthand() for op in ops]
        shorthand = " ".join(names)
        cached = self._memo.get(shorthand)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        if history.is_multiversion():
            key = _mv_class_key(ops, names)
            classes = self._mv_classes
        else:
            key = _sv_class_key(ops, names)
            classes = self._sv_classes
        entry = None if key is None else classes.get(key)
        if entry is None:
            self.class_misses += 1
            entry = _classify_pass(history, self.initial_items)
            if key is not None and len(classes) < CLASSIFICATION_MEMO_CAP:
                classes[key] = entry
        else:
            self.class_hits += 1
        classification = HistoryClassification(shorthand, *entry)
        if len(self._memo) < CLASSIFICATION_MEMO_CAP:
            self._memo[shorthand] = classification
        return classification

    @property
    def stats(self) -> Dict[str, int]:
        """Cache-effectiveness counters for reports and benchmarks."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "class_hits": self.class_hits,
            "class_misses": self.class_misses,
        }
