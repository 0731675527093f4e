"""Memoized batched history classification for the schedule-space explorer.

Exploring an interleaving space produces thousands of realized histories, and
many interleavings realize the *same* history (blocking collapses schedule
prefixes), so classification results are cached per distinct history
(:class:`BatchClassifier`).  Commutation-equivalent interleavings are a
different redundancy, and the explorer has one answer to it: the sleep-set
plan of :mod:`repro.explorer.reduction`, which executes one representative
per equivalence class.

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
verdict together.  A multiversion history takes one fused walk that yields
its MV serializability verdict and the single-valued mapping, whose flags
come from the same sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.dependency import adjacency_is_acyclic
from ..core.history import History
from ..core.mv_analysis import _strip_version
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


def _mv_classify_core(history: History,
                      initial_items) -> Tuple[bool, History]:
    """Fused MV classification core: one walk instead of three pipelines.

    Equivalent to ``completed = assign_write_versions(history, initial_items)``
    followed by ``(mv_is_serializable(completed), mv_to_sv(completed))`` —
    the same version completion, the same MVSG edge rules, the same SV
    mapping (the returned history is value-equal to ``mv_to_sv``'s) — without
    materializing the intermediate completed history or re-scanning the
    operation list once per stage.  ``tests/explorer/test_memo.py`` gates the
    fused result against the unfused public pipeline.
    """
    ops = history.operations
    read = OperationKind.READ
    cursor_read = OperationKind.CURSOR_READ
    predicate_read = OperationKind.PREDICATE_READ
    write = OperationKind.WRITE
    cursor_write = OperationKind.CURSOR_WRITE
    predicate_write = OperationKind.PREDICATE_WRITE
    commit = OperationKind.COMMIT
    abort = OperationKind.ABORT
    preexisting = initial_items

    # Pass 1: group by transaction; replay the commit order to stamp the
    # versions that committed writes install (assign_write_versions pass 1);
    # record first terminal positions.
    ops_by_txn: Dict[int, List[Tuple[int, Operation]]] = {}
    first_index: Dict[int, int] = {}
    terminals: Dict[int, int] = {}
    pending: Dict[int, Dict[str, List[int]]] = {}
    versions: Dict[int, int] = {}
    next_version: Dict[str, int] = {}
    #: (item, effective version) -> writing txn, plus per-item version lists
    #: and per-txn written (item, version) sets — pass 3/4 inputs, collected
    #: while stamping so the write scan happens exactly once.  Assumes each
    #: (item, version) has one installing transaction — true of realized MV
    #: histories (engine-installed chains) and well-formed paper histories.
    writers: Dict[Tuple[str, int], int] = {}
    versions_by_item: Dict[str, List[int]] = {}
    own_versions_by_txn: Dict[int, set] = {}

    def register_write(item: str, effective: int, txn: int) -> None:
        key = (item, effective)
        if key not in writers:
            versions_by_item.setdefault(item, []).append(effective)
        writers[key] = txn
        owned = own_versions_by_txn.get(txn)
        if owned is None:
            owned = own_versions_by_txn[txn] = set()
        owned.add(key)

    for index, op in enumerate(ops):
        txn = op.txn
        group = ops_by_txn.get(txn)
        if group is None:
            group = ops_by_txn[txn] = []
            first_index[txn] = index
        group.append((index, op))
        kind = op.kind
        if (op.item is not None
                and (kind is write or kind is cursor_write
                     or kind is predicate_write)):
            if op.version is None:
                pending.setdefault(txn, {}).setdefault(op.item, []).append(index)
            else:
                register_write(op.item, op.version, txn)
        elif kind is commit:
            if txn not in terminals:
                terminals[txn] = index
            for item, write_indices in pending.pop(txn, {}).items():
                if item not in next_version:
                    has_initial = preexisting is None or item in preexisting
                    next_version[item] = 1 if has_initial else 0
                else:
                    next_version[item] += 1
                stamped = next_version[item]
                for write_index in write_indices:
                    versions[write_index] = stamped
                register_write(item, stamped, txn)
        elif kind is abort:
            if txn not in terminals:
                terminals[txn] = index

    # Pass 2: complete unversioned reads (assign_write_versions pass 2).
    last_own_write: Dict[Tuple[int, str], int] = {}
    for index, op in enumerate(ops):
        if op.item is None:
            continue
        kind = op.kind
        if ((kind is read or kind is cursor_read or kind is predicate_read)
                and op.version is None and index not in versions):
            key = (op.txn, op.item)
            own_index = last_own_write.get(key)
            if own_index is not None:
                own_version = versions.get(own_index, ops[own_index].version)
                if own_version is not None:
                    versions[index] = own_version
            elif preexisting is not None and op.item not in preexisting:
                versions[index] = -1
        elif kind is write or kind is cursor_write or kind is predicate_write:
            last_own_write[(op.txn, op.item)] = index

    # Pass 3: MVSG adjacency over effective versions (wr / rw / ww rules).
    committed = history.committed_set()
    adjacency: Dict[int, Set[int]] = {txn: set() for txn in committed}
    for index, op in enumerate(ops):
        kind = op.kind
        if not (kind is read or kind is cursor_read):
            continue
        txn = op.txn
        if txn not in committed:
            continue
        effective = versions.get(index, op.version)
        if effective is None:
            continue
        writer = writers.get((op.item, effective))
        if writer is not None and writer != txn and writer in committed:
            adjacency[writer].add(txn)  # wr
        for version in versions_by_item.get(op.item, ()):
            if version > effective:
                other = writers[(op.item, version)]
                if other != txn and other in committed:
                    adjacency[txn].add(other)  # rw
    for item, item_versions in versions_by_item.items():
        ordered = sorted(
            (version, writers[(item, version)]) for version in item_versions)
        for (_, earlier_writer), (_, later_writer) in zip(ordered, ordered[1:]):
            if (earlier_writer != later_writer and earlier_writer in committed
                    and later_writer in committed):
                adjacency[earlier_writer].add(later_writer)  # ww
    serializable = adjacency_is_acyclic(adjacency)

    # Pass 4: the Section 4.2 MV -> SV mapping (mv_to_sv), on the same
    # effective versions: foreign-version reads at the start point, writes /
    # own-version reads / terminals at the commit (or abort) point.
    events: List[Tuple[int, int, List[Operation]]] = []
    total = len(ops)
    empty_set: set = set()
    for order, txn in enumerate(ops_by_txn):
        group = ops_by_txn[txn]
        own_versions = own_versions_by_txn.get(txn, empty_set)
        snapshot_reads: List[Operation] = []
        commit_block: List[Operation] = []
        for index, op in group:
            stripped = _strip_version(op)
            kind = op.kind
            if ((kind is read or kind is cursor_read or kind is predicate_read)
                    and (op.item, versions.get(index, op.version))
                    not in own_versions):
                snapshot_reads.append(stripped)
            else:
                commit_block.append(stripped)
        commit_time = terminals.get(txn)
        if commit_time is None:
            commit_time = total + order
        events.append((first_index[txn], order, snapshot_reads))
        events.append((commit_time, order, commit_block))
    events.sort(key=lambda event: (event[0], event[1]))
    operations: List[Operation] = []
    for _, _, block in events:
        operations.extend(block)
    name = f"{history.name}.SV" if history.name else None
    return serializable, History(operations, name=name, validate=False)


#: What a class table stores: a classification without its shorthand.
_ClassEntry = Tuple[bool, Tuple[str, ...], Tuple[int, ...], Tuple[int, ...]]


def _classify_pass(history: History, initial_items) -> _ClassEntry:
    """Classify one history without any table: one :func:`sweep`, or the fused
    MV core and a sweep of the single-valued history it maps to."""
    if history.is_multiversion():
        serializable, mapped = _mv_classify_core(history, initial_items)
        flags = sweep(mapped)[1]
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
#   sweep reads                                  fixed by
#   committed_set / aborted_set                  the blocks
#   group membership, is_write, is_cursor_read   the blocks (kind, item, predicate)
#   group positions: the pair order i < j        the item's or predicate's sequence
#   terminals[t] against a position in a group   t's terminal in that group's
#     that t joined                                sequence
#   last_read / last_write (item, t) against j   the item's sequence
#   written[t]                                   the blocks
#   last_read (other, ta) against terminals[tb]  other's sequence: tb wrote
#     (A5A)                                        other, so its terminal is in it
#   last_predicate_read (P, t) against           the predicate's sequence
#     terminals[tb] (A3)
#
#   _mv_classify_core reads                      fixed by
#   ops_by_txn, kinds, items, versions           the blocks
#   version stamping: commits in order,          the event sequence (terminals)
#     item by item in program order
#   explicit versions registered between         the event sequence (versioned
#     commits (which writer a version keeps)       writes)
#   last_own_write (txn, item)                   the blocks
#   committed_set, the initial items             the blocks, the classifier
#   first_index / order, terminals, total+order  the event sequence (starts,
#     (where the mapping places each block)        terminals)
#
# and sweep reads nothing of a multiversion history but the mapped history
# those passes return.  The argument needs each transaction's operations to
# end at its first terminal; a history where one follows it (the engines
# never produce one) gets no key and takes the uncached path.  Transaction
# ids that do not sort (mixed types) do too.


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
        elif (op.version is not None and op.item is not None
              and (kind is write or kind is cursor_write
                   or kind is predicate_write)):
            events.append(txn)
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
    its values and versions — so an entry is the same whichever level, chunk
    or process realized the history, and entries computed elsewhere
    (:meth:`preload`) sit in the same table as the ones computed here.
    One instance serves one workload: multiversion version completion reads
    ``initial_items``, so entries must not cross initial databases.
    """

    def __init__(self, initial_items: Optional[Sequence[str]] = None):
        self._memo: Dict[str, HistoryClassification] = {}
        #: Keys that :meth:`preload` supplied; a hit on one is a shared hit.
        self._preloaded: Set[str] = set()
        #: Classifications computed here since the last :meth:`drain_fresh`.
        self._fresh: Dict[str, HistoryClassification] = {}
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
        self.shared_hits = 0
        self.class_hits = 0
        self.class_misses = 0

    def preload(self, entries: Mapping[str, HistoryClassification]) -> int:
        """Admit classifications computed elsewhere (a campaign store's tier).

        Sound because classification is a pure function of the history — a
        preloaded entry can only save work, never change a result.  Returns
        how many entries the cap let in; preloaded entries are never fresh.
        """
        memo = self._memo
        admitted = 0
        for shorthand, classification in entries.items():
            if len(memo) >= CLASSIFICATION_MEMO_CAP:
                break
            if shorthand not in memo:
                memo[shorthand] = classification
                self._preloaded.add(shorthand)
                admitted += 1
        return admitted

    def drain_fresh(self) -> Dict[str, HistoryClassification]:
        """The classifications computed here since the last drain.

        Whoever runs chunks through a long-lived classifier drains it after
        every chunk (to save with the chunk, or to drop), so the fresh set
        never outgrows one chunk.
        """
        fresh = self._fresh
        self._fresh = {}
        return fresh

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
            if shorthand in self._preloaded:
                self.shared_hits += 1
            else:
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
        self._fresh[shorthand] = classification
        return classification

    @property
    def stats(self) -> Dict[str, int]:
        """Cache-effectiveness counters for reports and benchmarks."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "shared_hits": self.shared_hits,
            "class_hits": self.class_hits,
            "class_misses": self.class_misses,
        }
