"""The incremental online classifier behind the isolation certifier service.

The offline pipeline (:class:`repro.explorer.memo.BatchClassifier`) re-walks a
complete history: one :func:`~repro.core.phenomena.sweep` over its same-item and
same-predicate operation pairs yields every detector flag and the conflict-graph
verdict.  A live stream cannot afford even one walk per operation, so this
module maintains the detector state and the committed-transaction conflict
graph *incrementally*, one operation at a time
(the update-time maintenance idea of Berkholz et al., "FO+MOD queries under
updates") — and proves the paper's detectors admit it:

* Every phenomenon's firing condition is **monotone** under history extension:
  once the forbidden subsequence exists in a prefix, it exists in every
  extension (terminal positions are immutable once set, and each detector's
  position constraints only reference operations at or before the op that
  completes the pattern).  So each code fires exactly once, at the first
  operation that completes it, and the per-stream verdict is the set of fired
  codes — identical to the flags :func:`~repro.core.phenomena.sweep` gives
  over the drained history.
* Serializability is **monotone decreasing**: conflict edges are only added,
  so the flag is sticky-False.  A cycle becomes fully committed exactly when
  its last member commits, and that member lies on the cycle — one DFS from
  each committing transaction over committed-only edges is a complete check.

**Windowed eviction.**  Long streams must not retain every terminated
transaction.  A terminated transaction's per-item records, pair state, and
graph node are discarded once its whole *conflict component* (the connected
component of recorded conflict pairs, tracked by a union-find) has terminated
before every currently-active transaction started.  Position ordering then
guarantees no future operation can close a cycle or complete a detector
pattern through an evicted transaction: any path back into the component
would need an edge from a transaction with an operation *preceding* the
component's last terminal, and every such transaction is in the component.
Once the stream is non-serializable the graph is dropped entirely and
eviction falls back to the cheaper per-transaction watermark rule (safe for
the remaining detectors, whose patterns all require overlap).  Only the
committed/aborted id sets — part of the verdict contract — grow with the
stream.

**Multiversion streams** (version-subscripted operations, as realized by the
Snapshot Isolation engines) follow the paper's Section 4.2 touchstone: the
verdict is judged on the MV serialization graph and the ``mv_to_sv`` mapping,
neither of which is prefix-monotone (a later commit re-stamps where snapshot
reads land in the mapped history).  Such streams are therefore buffered and
re-classified at each terminal operation through the paper's definitions,
as the offline classifier does (``assign_write_versions``, the MV
serialization graph, then one sweep of the ``mv_to_sv`` mapping, which also
yields any new certificate's witness) — byte equality is structural — and
cannot be combined with eviction (pass ``evict=False``).  The single-version
path is the fully incremental one.

Certificates are :class:`repro.persist.records.CertificateRecord` rows:
``(stream, seq, code, txns, items, op_index, witness)``, where ``witness`` is
the shorthand fragment of the involved transactions' operations still inside
the bounded witness window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.history import History, HistoryError, parse_history
from ..core.mv_analysis import assign_write_versions, mv_is_serializable, mv_to_sv
from ..core.operations import Operation, OperationKind
from ..core.phenomena import ALL_PHENOMENA, detect_all, sweep
from ..persist.records import CertificateRecord

__all__ = [
    "AnomalyCertificate",
    "OnlineClassifier",
    "StreamError",
    "StreamVerdict",
    "PHENOMENON_CODES",
]

#: The certificate type is the persist-layer record — emitted instances can be
#: committed to a SqliteStore without translation.
AnomalyCertificate = CertificateRecord

#: Detector codes in registry order (the verdict sorts them lexically, like
#: the offline classifier does).
PHENOMENON_CODES: Tuple[str, ...] = tuple(ALL_PHENOMENA)


class StreamError(ValueError):
    """A malformed stream: an operation after its transaction terminated, a
    versioned operation on a single-version stream, or an unsupported mode
    combination."""


@dataclass(frozen=True)
class StreamVerdict:
    """The classifier's current verdict over everything fed so far.

    ``serializable``/``phenomena``/``committed``/``aborted`` carry exactly the
    fields of :class:`repro.explorer.memo.HistoryClassification` (shorthand
    excluded — the classifier does not retain the full history), so draining a
    stream and comparing against the offline classifier is a field-for-field
    equality check.
    """

    serializable: bool
    phenomena: Tuple[str, ...]
    committed: Tuple[int, ...]
    aborted: Tuple[int, ...]
    ops: int

    def classification_fields(self) -> Tuple:
        """The comparison currency against an offline ``HistoryClassification``."""
        return (self.serializable, self.phenomena, self.committed, self.aborted)


class _TxnState:
    """Per-transaction live state (dropped at eviction)."""

    __slots__ = ("start", "terminal", "first_reads", "first_cursor_reads",
                 "first_pred_reads", "last_writes", "last_pred_writes")

    def __init__(self, start: int):
        self.start = start
        self.terminal: Optional[int] = None
        #: item -> position of this transaction's first read (any read kind).
        self.first_reads: Dict[str, int] = {}
        #: item -> position of the first *cursor* read (P4C's gate).
        self.first_cursor_reads: Dict[str, int] = {}
        #: predicate -> position of the first predicate read.
        self.first_pred_reads: Dict[str, int] = {}
        #: item -> position of the last write (A2/A5A mark creation).
        self.last_writes: Dict[str, int] = {}
        #: predicate -> (position, item) of the last predicate write (A3).
        self.last_pred_writes: Dict[str, Tuple[int, Optional[str]]] = {}


class OnlineClassifier:
    """Classify one live transaction stream, one operation at a time.

    ``feed`` accepts a single :class:`~repro.core.operations.Operation` and
    returns the certificates that operation fired (usually none);
    ``feed_shorthand`` parses and feeds a paper-shorthand fragment.
    ``verdict()`` is byte-equal (field-for-field) to classifying the drained
    history offline, at any prefix.

    Streams must be **well-formed**: no operations after a transaction's
    terminal (the same rule :class:`~repro.core.history.History` validates).
    Feeding a violating operation raises :class:`StreamError`.
    """

    def __init__(self, stream: str = "stream", *,
                 multiversion: bool = False,
                 evict: Optional[bool] = None,
                 evict_interval: int = 256,
                 witness_window: int = 32,
                 initial_items: Optional[Sequence[str]] = None):
        if evict is None:
            evict = not multiversion
        if multiversion and evict:
            raise StreamError(
                "windowed eviction is not supported for multiversion streams "
                "(the mv_to_sv mapping is not prefix-monotone); pass "
                "evict=False")
        if evict_interval < 1:
            raise ValueError("evict_interval must be >= 1")
        self.stream = stream
        self.multiversion = multiversion
        self.evict = evict
        self.evict_interval = evict_interval
        self._initial_items = initial_items
        self._ops = 0
        self._witness: deque = deque(maxlen=max(1, witness_window))
        self._certificates: List[CertificateRecord] = []
        self._fired: Dict[str, bool] = {code: False for code in PHENOMENON_CODES}
        self._serializable = True
        self._committed: Set[int] = set()
        self._aborted: Set[int] = set()
        # -- single-version incremental state --------------------------------
        self._txns: Dict[int, _TxnState] = {}
        self._active: Dict[int, int] = {}            # txn -> start position
        self._readers: Dict[str, Dict[int, int]] = {}    # item -> txn -> first pos
        self._writers: Dict[str, Dict[int, int]] = {}    # item -> txn -> first pos
        self._pred_readers: Dict[str, Dict[int, int]] = {}
        self._pred_writers: Dict[str, Dict[int, int]] = {}
        #: item -> (position, txn) of the latest write, plus the latest write
        #: by any *other* transaction — a two-deep top list answering "is
        #: there a foreign write after position p" in O(1) (P4/P4C).
        self._last_write: Dict[str, Tuple[int, int]] = {}
        self._last_write_other: Dict[str, Tuple[int, int]] = {}
        # A1 dirty pairs: (writer, reader) recorded while the writer is
        # active, with the pair's first occurrence in ``find`` order: the
        # (write, read) positions and the item.
        self._dirty_by_writer: Dict[int, Dict[int, Tuple[int, int, str]]] = {}
        self._dirty_by_reader: Dict[int, Set[int]] = {}
        #: reader -> (write, read, aborted writer, item), the earliest pair.
        self._a1_ready: Dict[int, Tuple[int, int, int, str]] = {}
        # A2/A3/A5A marks placed at a writer's commit on still-active readers.
        self._fuzzy_marks: Dict[int, Dict[str, int]] = {}    # txn -> item -> writer
        #: txn -> pred -> (writer, item the writer wrote in pred).
        self._phantom_marks: Dict[int, Dict[str, Tuple[int, Optional[str]]]] = {}
        self._a2_armed: Dict[int, Tuple[int, str]] = {}      # txn -> (writer, item)
        self._a3_armed: Dict[int, Tuple[int, Optional[str]]] = {}  # txn -> (writer, item)
        #: txn -> y -> (txn's first read of x, writer, x): the writer updated
        #: x and y, txn read x; the earliest read of an x wins, as in ``find``.
        self._a5a_marks: Dict[int, Dict[str, Tuple[int, int, str]]] = {}
        # P4/P4C pending: pattern complete, waiting for T1's commit.
        self._p4_pending: Dict[int, Tuple[int, str]] = {}    # txn -> (other, item)
        self._p4c_pending: Dict[int, Tuple[int, str]] = {}
        # A5B: (a, b) -> items a read before b wrote; partner adjacency.
        self._rw_items: Dict[Tuple[int, int], Set[str]] = {}
        self._rw_partners: Dict[int, Set[int]] = {}
        # Committed-transaction conflict graph: recorded (pending) pairs and
        # the committed-only adjacency the cycle check walks.
        self._pairs_out: Dict[int, Set[int]] = {}
        self._pairs_in: Dict[int, Set[int]] = {}
        self._adj: Dict[int, Set[int]] = {}
        # Union-find over conflict components (the eviction closure).
        self._parent: Dict[int, int] = {}
        self._members: Dict[int, List[int]] = {}
        self._agg: Dict[int, List[int]] = {}   # root -> [active_count, max_terminal]
        # -- multiversion buffered state --------------------------------------
        self._mv_ops: List[Operation] = []

    # -- public surface -------------------------------------------------------

    @property
    def ops(self) -> int:
        """Operations fed so far."""
        return self._ops

    @property
    def certificates(self) -> Tuple[CertificateRecord, ...]:
        """Every certificate emitted so far, in firing order."""
        return tuple(self._certificates)

    def feed_shorthand(self, text: str) -> List[CertificateRecord]:
        """Parse a shorthand fragment (``"r1[x] w2[x] c1"``) and feed each op."""
        try:
            fragment = parse_history(text, name=self.stream,
                                     multiversion=self.multiversion)
        except HistoryError as error:
            # A fragment that is malformed on its own (unparseable token, or
            # an op after its transaction's terminal within the fragment) is
            # a stream violation, same as the cross-fragment case feed()
            # detects.
            raise StreamError(str(error)) from error
        fresh: List[CertificateRecord] = []
        for op in fragment:
            fresh.extend(self.feed(op))
        return fresh

    def feed(self, op: Operation) -> List[CertificateRecord]:
        """Ingest one operation; return the certificates it fired."""
        txn = op.txn
        if txn in self._committed or txn in self._aborted:
            raise StreamError(
                f"transaction T{txn} performs {op.to_shorthand()} after "
                f"terminating")
        mark = len(self._certificates)
        pos = self._ops
        self._ops += 1
        self._witness.append((txn, op.to_shorthand()))
        if self.multiversion:
            self._feed_mv(op, pos)
        else:
            self._feed_sv(op, pos)
        return self._certificates[mark:]

    def verdict(self) -> StreamVerdict:
        """The verdict over everything fed so far (offline-byte-equal)."""
        if self.multiversion:
            serializable, flags, _ = self._mv_classify()
            phenomena = tuple(sorted(c for c, f in flags.items() if f))
        else:
            serializable = self._serializable
            phenomena = tuple(sorted(c for c, f in self._fired.items() if f))
        return StreamVerdict(
            serializable=serializable,
            phenomena=phenomena,
            committed=tuple(sorted(self._committed)),
            aborted=tuple(sorted(self._aborted)),
            ops=self._ops,
        )

    # -- certificate plumbing -------------------------------------------------

    def _witness_for(self, txns: Tuple[int, ...]) -> str:
        involved = set(txns)
        return " ".join(sh for t, sh in self._witness if t in involved)

    def _fire(self, code: str, txns: Tuple[int, ...], items: Tuple[str, ...],
              pos: int) -> None:
        if self._fired.get(code):
            return
        self._fired[code] = True
        self._certificates.append(CertificateRecord(
            stream=self.stream,
            seq=len(self._certificates),
            code=code,
            txns=txns,
            items=items,
            op_index=pos,
            witness=self._witness_for(txns),
        ))
        self._drop_state_for(code)

    def _drop_state_for(self, code: str) -> None:
        """A fired flag is sticky — its bookkeeping can be discarded."""
        if code == "A1":
            self._dirty_by_writer.clear()
            self._dirty_by_reader.clear()
            self._a1_ready.clear()
        elif code == "A2":
            self._fuzzy_marks.clear()
            self._a2_armed.clear()
        elif code == "A3":
            self._phantom_marks.clear()
            self._a3_armed.clear()
        elif code == "P4":
            self._p4_pending.clear()
        elif code == "P4C":
            self._p4c_pending.clear()
        elif code == "A5A":
            self._a5a_marks.clear()
        elif code == "A5B":
            self._rw_items.clear()
            self._rw_partners.clear()

    def _fire_cycle(self, cycle: Tuple[int, ...], pos: int) -> None:
        self._serializable = False
        self._certificates.append(CertificateRecord(
            stream=self.stream,
            seq=len(self._certificates),
            code="CYCLE",
            txns=cycle,
            items=(),
            op_index=pos,
            witness=self._witness_for(cycle),
        ))
        # The graph has done its job; eviction falls back to the watermark rule.
        self._pairs_out.clear()
        self._pairs_in.clear()
        self._adj.clear()
        self._parent.clear()
        self._members.clear()
        self._agg.clear()

    # -- union-find over conflict components ----------------------------------

    def _uf_add(self, txn: int) -> None:
        if self._serializable and txn not in self._parent:
            self._parent[txn] = txn
            self._members[txn] = [txn]
            self._agg[txn] = [1, -1]

    def _uf_find(self, txn: int) -> int:
        parent = self._parent
        root = txn
        while parent[root] != root:
            root = parent[root]
        while parent[txn] != root:
            parent[txn], txn = root, parent[txn]
        return root

    def _uf_union(self, a: int, b: int) -> None:
        ra, rb = self._uf_find(a), self._uf_find(b)
        if ra == rb:
            return
        if len(self._members[ra]) < len(self._members[rb]):
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._members[ra].extend(self._members.pop(rb))
        child = self._agg.pop(rb)
        agg = self._agg[ra]
        agg[0] += child[0]
        agg[1] = max(agg[1], child[1])

    def _uf_terminated(self, txn: int, pos: int) -> None:
        if self._serializable and txn in self._parent:
            agg = self._agg[self._uf_find(txn)]
            agg[0] -= 1
            agg[1] = max(agg[1], pos)

    # -- single-version incremental path ---------------------------------------

    def _state_for(self, txn: int, pos: int) -> _TxnState:
        state = self._txns.get(txn)
        if state is None:
            state = self._txns[txn] = _TxnState(pos)
            self._active[txn] = pos
            self._uf_add(txn)
        return state

    def _record_pair(self, earlier: int, later: int) -> None:
        """One conflict-order pair (an op of ``earlier`` precedes a
        conflicting op of ``later``) — the graph edge candidate.  Callers
        test ``self._serializable`` once per operation, not once per pair:
        the flag is sticky and only a commit can clear it."""
        if earlier == later:
            return
        out = self._pairs_out.setdefault(earlier, set())
        if later not in out:
            out.add(later)
            self._pairs_in.setdefault(later, set()).add(earlier)
            self._uf_union(earlier, later)

    def _feed_sv(self, op: Operation, pos: int) -> None:
        kind = op.kind
        if kind is OperationKind.COMMIT:
            self._on_commit(op.txn, pos)
            return
        if kind is OperationKind.ABORT:
            self._on_abort(op.txn, pos)
            return
        if op.version is not None:
            raise StreamError(
                f"versioned operation {op.to_shorthand()} on a single-version "
                f"stream; open the stream with multiversion=True")
        state = self._state_for(op.txn, pos)
        if kind is OperationKind.READ or kind is OperationKind.CURSOR_READ:
            self._on_read(op, state, pos,
                          cursor=kind is OperationKind.CURSOR_READ)
        elif kind is OperationKind.PREDICATE_READ:
            self._on_pred_read(op, state, pos)
        elif kind.is_write:
            self._on_write(op, state, pos)
        if self.evict and self._ops % self.evict_interval == 0:
            self._evict_pass()

    def _on_read(self, op: Operation, state: _TxnState, pos: int,
                 cursor: bool) -> None:
        txn, item = op.txn, op.item
        item_writers = self._writers.get(item)
        active = self._active
        if item_writers:
            # P1: a read of an item some *active* foreign transaction wrote.
            if not self._fired["P1"]:
                for w in item_writers:
                    if w != txn and w in active:
                        self._fire("P1", (w, txn), (item,), pos)
                        break
            # A1 pair: resolved when the writer aborts / the reader commits.
            if not self._fired["A1"]:
                for w, first_write in item_writers.items():
                    if w != txn and w in active:
                        pairs = self._dirty_by_writer.setdefault(w, {})
                        occurrence = (first_write, pos, item)
                        if txn not in pairs or occurrence < pairs[txn]:
                            pairs[txn] = occurrence
                        self._dirty_by_reader.setdefault(txn, set()).add(w)
            if self._serializable:
                for w in item_writers:
                    self._record_pair(w, txn)      # wr edges
        if not self._fired["A5A"]:
            marks = self._a5a_marks.get(txn)
            if marks and item in marks:
                _, writer, first = marks[item]
                self._fire("A5A", (txn, writer), (first, item), pos)
        if not self._fired["A2"] and txn not in self._a2_armed:
            info = self._fuzzy_marks.get(txn)
            if info and item in info:
                self._a2_armed[txn] = (info[item], item)
        item_readers = self._readers.setdefault(item, {})
        if txn not in item_readers:
            item_readers[txn] = pos
        if item not in state.first_reads:
            state.first_reads[item] = pos
        if cursor and item not in state.first_cursor_reads:
            state.first_cursor_reads[item] = pos

    def _on_pred_read(self, op: Operation, state: _TxnState, pos: int) -> None:
        txn, pred = op.txn, op.predicate
        if not self._fired["A3"] and txn not in self._a3_armed:
            info = self._phantom_marks.get(txn)
            if info and pred in info:
                self._a3_armed[txn] = info[pred]
        pred_writers = self._pred_writers.get(pred)
        if pred_writers and self._serializable:
            for w in pred_writers:
                self._record_pair(w, txn)
        pred_readers = self._pred_readers.setdefault(pred, {})
        if txn not in pred_readers:
            pred_readers[txn] = pos
        if pred not in state.first_pred_reads:
            state.first_pred_reads[pred] = pos

    def _latest_foreign_write(self, item: str, txn: int) -> int:
        """Position of the latest write of ``item`` by another transaction
        (-1 if none) — the P4/P4C "interfering write" probe."""
        last = self._last_write.get(item)
        if last is None:
            return -1
        if last[1] != txn:
            return last[0]
        other = self._last_write_other.get(item)
        return other[0] if other is not None else -1

    def _on_write(self, op: Operation, state: _TxnState, pos: int) -> None:
        txn, item = op.txn, op.item
        active = self._active
        if item is not None:
            item_writers = self._writers.setdefault(item, {})
            item_readers = self._readers.get(item, {})
            if not self._fired["P0"]:
                for w in item_writers:
                    if w != txn and w in active:
                        self._fire("P0", (w, txn), (item,), pos)
                        break
            if not self._fired["P2"]:
                for r in item_readers:
                    if r != txn and r in active:
                        self._fire("P2", (r, txn), (item,), pos)
                        break
            # P4/P4C probe *before* registering this write: the interfering
            # write must be foreign and later than this txn's first read.
            if not self._fired["P4"] and txn not in self._p4_pending:
                first = state.first_reads.get(item)
                if first is not None:
                    foreign = self._latest_foreign_write(item, txn)
                    if foreign > first:
                        other = self._last_write[item]
                        owner = (other[1] if other[1] != txn
                                 else self._last_write_other[item][1])
                        self._p4_pending[txn] = (owner, item)
            if not self._fired["P4C"] and txn not in self._p4c_pending:
                first = state.first_cursor_reads.get(item)
                if first is not None:
                    foreign = self._latest_foreign_write(item, txn)
                    if foreign > first:
                        other = self._last_write[item]
                        owner = (other[1] if other[1] != txn
                                 else self._last_write_other[item][1])
                        self._p4c_pending[txn] = (owner, item)
            if not self._fired["A5B"]:
                for a in item_readers:
                    if a != txn:
                        key = (a, txn)
                        self._rw_items.setdefault(key, set()).add(item)
                        self._rw_partners.setdefault(a, set()).add(txn)
                        self._rw_partners.setdefault(txn, set()).add(a)
            if self._serializable:
                for a in item_readers:
                    self._record_pair(a, txn)      # rw edges
                for w in item_writers:
                    self._record_pair(w, txn)      # ww edges
            if txn not in item_writers:
                item_writers[txn] = pos
            state.last_writes[item] = pos
            last = self._last_write.get(item)
            if last is not None and last[1] != txn:
                self._last_write_other[item] = last
            self._last_write[item] = (pos, txn)
        pred = op.predicate
        if pred is not None:
            pred_writers = self._pred_writers.setdefault(pred, {})
            pred_readers = self._pred_readers.get(pred, {})
            if not self._fired["P3"]:
                for r in pred_readers:
                    if r != txn and r in active:
                        self._fire("P3", (r, txn),
                                   tuple(filter(None, [item])), pos)
                        break
            if self._serializable:
                for r in pred_readers:
                    self._record_pair(r, txn)
                for w in pred_writers:
                    self._record_pair(w, txn)
            if txn not in pred_writers:
                pred_writers[txn] = pos
            state.last_pred_writes[pred] = (pos, item)

    # -- terminal handling -----------------------------------------------------

    def _on_commit(self, txn: int, pos: int) -> None:
        state = self._state_for(txn, pos)
        state.terminal = pos
        self._active.pop(txn, None)
        self._committed.add(txn)
        self._uf_terminated(txn, pos)
        fired = self._fired
        # Patterns completed earlier that were waiting for this commit.
        if not fired["P4"] and txn in self._p4_pending:
            other, item = self._p4_pending.pop(txn)
            self._fire("P4", (txn, other), (item,), pos)
        if not fired["P4C"] and txn in self._p4c_pending:
            other, item = self._p4c_pending.pop(txn)
            self._fire("P4C", (txn, other), (item,), pos)
        if not fired["A2"] and txn in self._a2_armed:
            writer, item = self._a2_armed.pop(txn)
            self._fire("A2", (txn, writer), (item,), pos)
        if not fired["A3"] and txn in self._a3_armed:
            writer, item = self._a3_armed.pop(txn)
            self._fire("A3", (txn, writer), tuple(filter(None, [item])), pos)
        if not fired["A1"] and txn in self._a1_ready:
            _, _, writer, item = self._a1_ready.pop(txn)
            self._fire("A1", (writer, txn), (item,), pos)
        # A1 pairs where this txn was the dirty *writer* can never fire now.
        if not fired["A1"]:
            for r in self._dirty_by_writer.pop(txn, ()):
                readers = self._dirty_by_reader.get(r)
                if readers is not None:
                    readers.discard(txn)
        # Marks targeting this txn die with it (it cannot read again).
        self._fuzzy_marks.pop(txn, None)
        self._phantom_marks.pop(txn, None)
        self._a5a_marks.pop(txn, None)
        # Mark creation: this commit is the "committed interfering update" of
        # A2/A3/A5A for every still-active reader that read before our write.
        if not fired["A2"]:
            for item, last_pos in state.last_writes.items():
                for a, first_pos in self._readers.get(item, {}).items():
                    if a != txn and a in self._active and first_pos < last_pos:
                        self._fuzzy_marks.setdefault(a, {})[item] = txn
        if not fired["A3"]:
            for pred, (last_pos, item) in state.last_pred_writes.items():
                for a, first_pos in self._pred_readers.get(pred, {}).items():
                    if a != txn and a in self._active and first_pos < last_pos:
                        self._phantom_marks.setdefault(a, {})[pred] = (
                            txn, item)
        if not fired["A5A"] and len(state.last_writes) >= 2:
            written = state.last_writes
            for item, last_pos in written.items():
                for a, first_pos in self._readers.get(item, {}).items():
                    if a != txn and a in self._active and first_pos < last_pos:
                        marks = self._a5a_marks.setdefault(a, {})
                        for other_item in written:
                            if other_item != item and (
                                    other_item not in marks
                                    or first_pos < marks[other_item][0]):
                                marks[other_item] = (first_pos, txn, item)
        # A5B: both sides committed with mutual rw dependencies on >= 2 items.
        if not fired["A5B"]:
            for p in list(self._rw_partners.get(txn, ())):
                if p in self._committed:
                    forward = self._rw_items.get((txn, p))
                    backward = self._rw_items.get((p, txn))
                    if (forward and backward
                            and len(forward | backward) >= 2):
                        self._fire("A5B", (txn, p),
                                   tuple(sorted(forward | backward)), pos)
                        break
                if p not in self._active:
                    self._drop_rw_pair(txn, p)
        # Conflict-graph edge activation + the one-source cycle check.
        if self._serializable:
            out = self._adj.setdefault(txn, set())
            for b in self._pairs_out.get(txn, ()):
                if b in self._committed and b != txn:
                    out.add(b)
            for a in self._pairs_in.get(txn, ()):
                if a in self._committed and a != txn:
                    self._adj.setdefault(a, set()).add(txn)
            cycle = self._find_cycle(txn)
            if cycle is not None:
                self._fire_cycle(cycle, pos)
        if self.evict and self._ops % self.evict_interval == 0:
            self._evict_pass()

    def _on_abort(self, txn: int, pos: int) -> None:
        state = self._state_for(txn, pos)
        state.terminal = pos
        self._active.pop(txn, None)
        self._aborted.add(txn)
        self._uf_terminated(txn, pos)
        # Aborted transactions leave the graph and every reader/writer index:
        # no detector pattern or committed-graph edge can involve them going
        # forward (only the position-based last-write probe, kept separately).
        for item in state.first_reads:
            group = self._readers.get(item)
            if group is not None:
                group.pop(txn, None)
                if not group:
                    del self._readers[item]
        for item in state.last_writes:
            group = self._writers.get(item)
            if group is not None:
                group.pop(txn, None)
                if not group:
                    del self._writers[item]
        for pred in state.first_pred_reads:
            group = self._pred_readers.get(pred)
            if group is not None:
                group.pop(txn, None)
                if not group:
                    del self._pred_readers[pred]
        for pred in state.last_pred_writes:
            group = self._pred_writers.get(pred)
            if group is not None:
                group.pop(txn, None)
                if not group:
                    del self._pred_writers[pred]
        # A1: an aborted dirty writer fires against already-committed readers
        # and arms still-active ones.
        if not self._fired["A1"]:
            earliest = None
            for r, (first_write, read, item) in self._dirty_by_writer.pop(
                    txn, {}).items():
                readers = self._dirty_by_reader.get(r)
                if readers is not None:
                    readers.discard(txn)
                occurrence = (first_write, read, txn, item)
                if r in self._committed:
                    if earliest is None or occurrence < earliest[0]:
                        earliest = (occurrence, r)
                elif r in self._active and (
                        r not in self._a1_ready
                        or occurrence < self._a1_ready[r]):
                    self._a1_ready[r] = occurrence
            if earliest is not None:
                (_, _, _, item), r = earliest
                self._fire("A1", (txn, r), (item,), pos)
            for w in self._dirty_by_reader.pop(txn, ()):
                readers_of = self._dirty_by_writer.get(w)
                if readers_of is not None:
                    readers_of.pop(txn, None)
        self._a1_ready.pop(txn, None)
        self._fuzzy_marks.pop(txn, None)
        self._phantom_marks.pop(txn, None)
        self._a5a_marks.pop(txn, None)
        self._a2_armed.pop(txn, None)
        self._a3_armed.pop(txn, None)
        self._p4_pending.pop(txn, None)
        self._p4c_pending.pop(txn, None)
        for p in list(self._rw_partners.get(txn, ())):
            self._drop_rw_pair(txn, p)
        if self.evict and self._ops % self.evict_interval == 0:
            self._evict_pass()

    def _drop_rw_pair(self, a: int, b: int) -> None:
        self._rw_items.pop((a, b), None)
        self._rw_items.pop((b, a), None)
        partners = self._rw_partners.get(a)
        if partners is not None:
            partners.discard(b)
            if not partners:
                del self._rw_partners[a]
        partners = self._rw_partners.get(b)
        if partners is not None:
            partners.discard(a)
            if not partners:
                del self._rw_partners[b]

    def _find_cycle(self, source: int) -> Optional[Tuple[int, ...]]:
        """A committed cycle through ``source``, if one exists.

        A cycle becomes fully committed exactly when its last member commits,
        and that member is on the cycle — so checking only the committing
        transaction is complete.
        """
        adj = self._adj
        if source not in adj:
            return None
        stack: List[Tuple[int, List[int]]] = [(source, list(adj[source]))]
        on_path = [source]
        seen = {source}
        while stack:
            node, pending = stack[-1]
            if not pending:
                stack.pop()
                on_path.pop()
                continue
            nxt = pending.pop()
            if nxt == source:
                return tuple(on_path)
            if nxt in seen:
                continue
            seen.add(nxt)
            neighbours = adj.get(nxt)
            if neighbours:
                stack.append((nxt, list(neighbours)))
                on_path.append(nxt)
        return None

    # -- eviction --------------------------------------------------------------

    def _evict_pass(self) -> None:
        bound = min(self._active.values()) if self._active else self._ops
        if self._serializable:
            # Component rule: a conflict component may go only when every
            # member terminated before every active transaction started —
            # then no future edge can reach into it (position ordering).
            for root in list(self._agg):
                active_count, max_terminal = self._agg[root]
                if active_count == 0 and max_terminal < bound:
                    for member in self._members[root]:
                        self._purge_txn(member)
                    del self._agg[root]
                    del self._members[root]
        else:
            # Watermark rule: with the graph gone, every remaining detector
            # pattern requires transaction overlap, so any transaction that
            # terminated before every active one started is inert.
            for txn, state in list(self._txns.items()):
                if state.terminal is not None and state.terminal < bound:
                    self._purge_txn(txn)
        for item in list(self._last_write):
            if self._last_write[item][0] < bound:
                del self._last_write[item]
                self._last_write_other.pop(item, None)
            else:
                other = self._last_write_other.get(item)
                if other is not None and other[0] < bound:
                    del self._last_write_other[item]

    def _purge_txn(self, txn: int) -> None:
        state = self._txns.pop(txn, None)
        if state is None:
            return
        for item in state.first_reads:
            group = self._readers.get(item)
            if group is not None:
                group.pop(txn, None)
                if not group:
                    del self._readers[item]
        for item in state.last_writes:
            group = self._writers.get(item)
            if group is not None:
                group.pop(txn, None)
                if not group:
                    del self._writers[item]
        for pred in state.first_pred_reads:
            group = self._pred_readers.get(pred)
            if group is not None:
                group.pop(txn, None)
                if not group:
                    del self._pred_readers[pred]
        for pred in state.last_pred_writes:
            group = self._pred_writers.get(pred)
            if group is not None:
                group.pop(txn, None)
                if not group:
                    del self._pred_writers[pred]
        self._pairs_out.pop(txn, None)
        self._pairs_in.pop(txn, None)
        self._adj.pop(txn, None)
        self._parent.pop(txn, None)
        for p in list(self._rw_partners.get(txn, ())):
            self._drop_rw_pair(txn, p)
        for r in self._dirty_by_writer.pop(txn, ()):
            readers = self._dirty_by_reader.get(r)
            if readers is not None:
                readers.discard(txn)
        for w in self._dirty_by_reader.pop(txn, ()):
            readers_of = self._dirty_by_writer.get(w)
            if readers_of is not None:
                readers_of.pop(txn, None)
        self._a1_ready.pop(txn, None)
        self._fuzzy_marks.pop(txn, None)
        self._phantom_marks.pop(txn, None)
        self._a5a_marks.pop(txn, None)
        self._a2_armed.pop(txn, None)
        self._a3_armed.pop(txn, None)
        self._p4_pending.pop(txn, None)
        self._p4c_pending.pop(txn, None)

    # -- multiversion buffered path --------------------------------------------

    def _mv_classify(self) -> Tuple[bool, Dict[str, bool], History]:
        """``(serializable, flags, target)`` over the buffered stream.

        ``target`` is the history the flags were swept on: the ``mv_to_sv``
        mapping, or the buffer itself while no versioned operation has
        arrived (the offline classifier's single-version dispatch).
        """
        history = History(tuple(self._mv_ops), name=self.stream,
                          validate=False)
        if not history.is_multiversion():
            serializable, flags = sweep(history)
            return serializable, flags, history
        completed = assign_write_versions(history, self._initial_items)
        mapped = mv_to_sv(completed)
        return mv_is_serializable(completed), sweep(mapped)[1], mapped

    def _feed_mv(self, op: Operation, pos: int) -> None:
        self._mv_ops.append(op)
        if op.kind is OperationKind.COMMIT:
            self._committed.add(op.txn)
        elif op.kind is OperationKind.ABORT:
            self._aborted.add(op.txn)
        else:
            return
        # Re-classify at terminal boundaries only; emit first-seen certificates.
        serializable, flags, target = self._mv_classify()
        if not serializable and self._serializable:
            self._serializable = False
            self._certificates.append(CertificateRecord(
                stream=self.stream, seq=len(self._certificates),
                code="CYCLE", txns=(op.txn,), items=(), op_index=pos,
                witness=self._witness_for((op.txn,))))
        fresh = [code for code, found in flags.items()
                 if found and not self._fired[code]]
        if fresh:
            found = detect_all(target, codes=fresh)
            for code in sorted(fresh):
                occurrences = found.get(code) or []
                first = occurrences[0] if occurrences else None
                self._fired[code] = True
                self._certificates.append(CertificateRecord(
                    stream=self.stream, seq=len(self._certificates),
                    code=code,
                    txns=first.transactions if first else (op.txn,),
                    items=first.items if first else (),
                    op_index=pos,
                    witness=self._witness_for(
                        first.transactions if first else (op.txn,))))
