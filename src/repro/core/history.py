"""Histories: linear orderings of transaction actions, plus the shorthand parser.

A *history* models the interleaved execution of a set of transactions as a
linear ordering of their actions (Section 2.1).  The paper writes histories in
a compact shorthand, e.g. the inconsistent-analysis history H1::

    r1[x=50] w1[x=10] r2[x=10] r2[y=50] c2 r1[y=50] w1[y=90] c1

This module provides:

* :class:`History` — an immutable sequence of :class:`~repro.core.operations.Operation`
  objects with the query helpers used by the phenomenon detectors and the
  dependency-graph builder.
* :func:`parse_history` — a parser for the paper's shorthand, including
  predicate operations (``r1[P]``, ``w2[y in P]``, ``w2[insert y to P]``),
  cursor operations (``rc1[x]``, ``wc1[x]``), and multiversion items
  (``x0``, ``x1`` as in history H1.SI).
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .operations import Operation, OperationKind, WriteAction

__all__ = ["History", "HistoryError", "parse_history"]


class HistoryError(ValueError):
    """Raised for malformed histories or unparseable shorthand."""


_TOKEN_RE = re.compile(
    r"""
    [\s.]*                      # separators: whitespace, the paper's ``...`` filler
    (?P<token>
      (?P<kind>rc|wc|r|w|c|a)    # operation kind
      (?P<txn>\d+)               # transaction number
      (?:\[(?P<body>[^\]]*)\])?  # optional bracketed body
    )
    """,
    re.VERBOSE,
)
_SEPARATORS_RE = re.compile(r"[\s.]*")

#: Token text -> the Operation it parses to, one table per parsing mode
#: (``x1`` is an item in a single-version history and version 1 of ``x`` in a
#: multiversion one).  Streams repeat a small vocabulary of tokens, so a repeat
#: costs its tokenization and a dict hit, and the shared instance memoizes its
#: hash and canonical shorthand for every later occurrence.  A full table stops
#: admitting and long tokens are never admitted: input that never repeats
#: pays the miss path it always paid and cannot grow the process.
_TOKEN_TABLES: Tuple[Dict[str, Operation], Dict[str, Operation]] = ({}, {})
_TOKEN_TABLE_CAP = 1 << 14
_TOKEN_TABLE_MAX_LEN = 64

_VERSIONED_ITEM_RE = re.compile(r"^(?P<item>[A-Za-z_]+)(?P<version>\d+)$")


class History:
    """An ordered sequence of operations by a set of transactions.

    The class is deliberately value-like: instances are immutable once built,
    hashable when their operations are, and support slicing, concatenation,
    and the containment / ordering queries that the anomaly detectors need.
    """

    def __init__(self, operations: Iterable[Operation], name: Optional[str] = None,
                 validate: bool = True):
        """``validate=False`` skips the well-formedness scan — for callers
        whose operations are well-formed by construction (the schedule
        runner's realized histories, the MV analysis rewrites)."""
        self._ops: Tuple[Operation, ...] = tuple(operations)
        self.name = name
        # Lazily computed caches — sound because instances are immutable.
        self._committed_cache: Optional[FrozenSet[int]] = None
        self._aborted_cache: Optional[FrozenSet[int]] = None
        self._terminal_cache: Optional[Dict[int, int]] = None
        self._hash: Optional[int] = None
        self._mv_cache: Optional[bool] = None
        if validate:
            self._validate()

    # -- construction / validation ------------------------------------------------

    def _validate(self) -> None:
        finished: Set[int] = set()
        for op in self._ops:
            if op.txn in finished:
                raise HistoryError(
                    f"transaction T{op.txn} performs {op.to_shorthand()} after terminating"
                )
            if op.is_terminal:
                finished.add(op.txn)

    @classmethod
    def parse(cls, text: str, name: Optional[str] = None,
              multiversion: bool = False) -> "History":
        """Parse the paper's shorthand notation.  See :func:`parse_history`."""
        return parse_history(text, name=name, multiversion=multiversion)

    # -- sequence protocol ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return History(self._ops[index], name=self.name)
        return self._ops[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, History):
            return NotImplemented
        return self._ops == other._ops

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._ops)
        return self._hash

    def __add__(self, other: "History") -> "History":
        if not isinstance(other, History):
            return NotImplemented
        return History(self._ops + other._ops)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<History{label}: {self.to_shorthand()}>"

    # -- basic accessors --------------------------------------------------------------

    @property
    def operations(self) -> Tuple[Operation, ...]:
        """The operations of the history, in order."""
        return self._ops

    def to_shorthand(self) -> str:
        """Render the history back into the paper's shorthand."""
        return " ".join(op.to_shorthand() for op in self._ops)

    def transactions(self) -> List[int]:
        """All transaction identifiers, in order of first appearance."""
        seen: List[int] = []
        for op in self._ops:
            if op.txn not in seen:
                seen.append(op.txn)
        return seen

    def committed_transactions(self) -> Set[int]:
        """Transactions that commit in this history (a fresh, mutable set)."""
        return set(self.committed_set())

    def committed_set(self) -> FrozenSet[int]:
        """Transactions that commit, as the cached frozenset (do not mutate).

        The copy-free sibling of :meth:`committed_transactions` for hot paths
        (the explorer's classifier and detectors) that only test membership.
        """
        cached = self._committed_cache
        if cached is None:
            commit = OperationKind.COMMIT
            cached = self._committed_cache = frozenset(
                op.txn for op in self._ops if op.kind is commit
            )
        return cached

    def aborted_transactions(self) -> Set[int]:
        """Transactions that abort in this history (a fresh, mutable set)."""
        return set(self.aborted_set())

    def aborted_set(self) -> FrozenSet[int]:
        """Transactions that abort, as the cached frozenset (do not mutate)."""
        cached = self._aborted_cache
        if cached is None:
            abort = OperationKind.ABORT
            cached = self._aborted_cache = frozenset(
                op.txn for op in self._ops if op.kind is abort
            )
        return cached

    def active_transactions(self) -> Set[int]:
        """Transactions with no commit or abort in the history."""
        return set(self.transactions()) - self.committed_transactions() - self.aborted_transactions()

    def is_complete(self) -> bool:
        """True when every transaction ends with a commit or an abort."""
        return not self.active_transactions()

    def operations_of(self, txn: int) -> List[Operation]:
        """All operations of one transaction, in history order."""
        return [op for op in self._ops if op.txn == txn]

    def items(self) -> Set[str]:
        """All data items named anywhere in the history."""
        return {op.item for op in self._ops if op.item is not None}

    def predicates(self) -> Set[str]:
        """All predicates named anywhere in the history."""
        return {op.predicate for op in self._ops if op.predicate is not None}

    def is_multiversion(self) -> bool:
        """True when any operation carries a version subscript."""
        if self._mv_cache is None:
            self._mv_cache = any(op.version is not None for op in self._ops)
        return self._mv_cache

    # -- positional queries -------------------------------------------------------------

    def terminal_index(self, txn: int) -> Optional[int]:
        """Index of a transaction's commit/abort, or None if still active."""
        if self._terminal_cache is None:
            cache: Dict[int, int] = {}
            commit = OperationKind.COMMIT
            abort = OperationKind.ABORT
            for i, op in enumerate(self._ops):
                kind = op.kind
                if (kind is commit or kind is abort) and op.txn not in cache:
                    cache[op.txn] = i
            self._terminal_cache = cache
        return self._terminal_cache.get(txn)

    def commits(self, txn: int) -> bool:
        """True when the transaction commits."""
        return txn in self.committed_set()

    def aborts(self, txn: int) -> bool:
        """True when the transaction aborts."""
        return txn in self.aborted_set()

    def first_index(self, txn: int, kind: OperationKind, item: Optional[str] = None) -> Optional[int]:
        """Index of the first operation of a given kind (and item) by a txn."""
        for i, op in enumerate(self._ops):
            if op.txn == txn and op.kind is kind and (item is None or op.item == item):
                return i
        return None

    def reads_of(self, item: str) -> List[Tuple[int, Operation]]:
        """(index, op) pairs for every read of the item (plain or cursor)."""
        return [
            (i, op)
            for i, op in enumerate(self._ops)
            if op.kind in (OperationKind.READ, OperationKind.CURSOR_READ) and op.item == item
        ]

    def writes_of(self, item: str) -> List[Tuple[int, Operation]]:
        """(index, op) pairs for every write of the item (plain, cursor, or predicate)."""
        return [
            (i, op)
            for i, op in enumerate(self._ops)
            if op.is_write and op.item == item
        ]

    # -- derived histories ------------------------------------------------------------------

    def committed_projection(self) -> "History":
        """The history restricted to operations of committed transactions.

        The dependency graph of a history is defined over the actions of its
        committed transactions (Section 2.1), so serializability checks work
        on this projection.
        """
        committed = self.committed_transactions()
        return History([op for op in self._ops if op.txn in committed], name=self.name)

    def prefix(self, length: int) -> "History":
        """The first ``length`` operations as a new history."""
        return History(self._ops[:length], name=self.name)

    def is_serial(self) -> bool:
        """True when transactions execute one at a time, never interleaved."""
        current: Optional[int] = None
        finished: Set[int] = set()
        for op in self._ops:
            if op.txn in finished:
                return False
            if current is None:
                current = op.txn
            elif op.txn != current:
                # The previous transaction must have terminated already.
                return False
            if op.is_terminal:
                finished.add(op.txn)
                current = None
        return True

    def serial_order(self) -> Optional[List[int]]:
        """The transaction order if the history is serial, else None."""
        if not self.is_serial():
            return None
        order: List[int] = []
        for op in self._ops:
            if op.txn not in order:
                order.append(op.txn)
        return order

    def conflicting_pairs(self) -> List[Tuple[int, int, Operation, Operation]]:
        """All ordered pairs of conflicting operations.

        Returns tuples ``(i, j, op_i, op_j)`` with ``i < j`` and
        ``op_i.conflicts_with(op_j)``.
        """
        pairs: List[Tuple[int, int, Operation, Operation]] = []
        for i, earlier in enumerate(self._ops):
            if not earlier.kind.is_data_access:
                continue
            for j in range(i + 1, len(self._ops)):
                later = self._ops[j]
                if not later.kind.is_data_access:
                    continue
                if earlier.conflicts_with(later):
                    pairs.append((i, j, earlier, later))
        return pairs

    # -- value tracking -----------------------------------------------------------------------

    def final_written_values(self) -> Dict[str, object]:
        """Last committed written value per item, for histories that record values."""
        values: Dict[str, object] = {}
        committed = self.committed_transactions()
        for op in self._ops:
            if op.is_write and op.txn in committed and op.item is not None and op.value is not None:
                values[op.item] = op.value
        return values


def _parse_body(kind: str, txn: int, body: Optional[str],
                multiversion: bool) -> Operation:
    """Turn one shorthand token into an Operation."""
    if kind == "c":
        return Operation(OperationKind.COMMIT, txn)
    if kind == "a":
        return Operation(OperationKind.ABORT, txn)
    if body is None or body.strip() == "":
        raise HistoryError(f"operation '{kind}{txn}' requires a bracketed data item")
    body = body.strip()

    # Split off a recorded value: "x=50", "x1=10", "x=-40".
    value: object = None
    target = body
    if "=" in body and " in " not in body and not body.startswith("insert") \
            and not body.startswith("delete"):
        target, _, raw_value = body.partition("=")
        target = target.strip()
        value = _coerce_value(raw_value.strip())

    if kind in ("rc", "wc"):
        item, version = _split_version(target, multiversion)
        op_kind = OperationKind.CURSOR_READ if kind == "rc" else OperationKind.CURSOR_WRITE
        return Operation(op_kind, txn, item=item, value=value, version=version)

    # Predicate forms: "P", "insert y to P", "delete y from P", "y in P".
    insert_match = re.match(r"^insert\s+(\w+)\s+(?:to|into)\s+(\w+)$", target)
    delete_match = re.match(r"^delete\s+(\w+)\s+from\s+(\w+)$", target)
    update_match = re.match(r"^(\w+)\s+in\s+(\w+)$", target)

    if kind == "w":
        if insert_match:
            return Operation(OperationKind.PREDICATE_WRITE, txn,
                             item=insert_match.group(1), predicate=insert_match.group(2),
                             write_action=WriteAction.INSERT, value=value)
        if delete_match:
            return Operation(OperationKind.PREDICATE_WRITE, txn,
                             item=delete_match.group(1), predicate=delete_match.group(2),
                             write_action=WriteAction.DELETE, value=value)
        if update_match:
            return Operation(OperationKind.PREDICATE_WRITE, txn,
                             item=update_match.group(1), predicate=update_match.group(2),
                             write_action=WriteAction.UPDATE, value=value)
        item, version = _split_version(target, multiversion)
        return Operation(OperationKind.WRITE, txn, item=item, value=value, version=version)

    # kind == "r"
    if _looks_like_predicate(target):
        return Operation(OperationKind.PREDICATE_READ, txn, predicate=target)
    item, version = _split_version(target, multiversion)
    return Operation(OperationKind.READ, txn, item=item, value=value, version=version)


def _looks_like_predicate(name: str) -> bool:
    """Heuristic from the paper's notation: predicates are capitalized (``P``)."""
    return bool(re.match(r"^[A-Z]\w*$", name))


def _split_version(target: str, multiversion: bool) -> Tuple[str, Optional[int]]:
    """Split ``x0`` into ``("x", 0)`` when parsing a multiversion history."""
    if not multiversion:
        return target, None
    match = _VERSIONED_ITEM_RE.match(target)
    if match:
        return match.group("item"), int(match.group("version"))
    return target, None


def _coerce_value(raw: str) -> object:
    """Interpret recorded values as ints/floats when possible, else strings."""
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def parse_history(text: str, name: Optional[str] = None,
                  multiversion: bool = False) -> History:
    """Parse the paper's shorthand into a :class:`History`.

    Parameters
    ----------
    text:
        Shorthand such as ``"r1[x=50] w1[x=10] r2[x=10] c2 c1"``.  Whitespace
        and the paper's filler ellipses (``...``) between tokens are ignored;
        a dot inside brackets belongs to the item or value (``w1[x=1.5]``).
    name:
        An optional label (e.g. ``"H1"``), carried on the resulting history.
    multiversion:
        When True, trailing digits on item names are interpreted as version
        subscripts (``x0`` is version 0 of item ``x``), matching the paper's
        MV histories such as H1.SI.

    Raises
    ------
    HistoryError
        If any token cannot be parsed or the history is malformed (for
        example, a transaction acting after it committed).
    """
    table = _TOKEN_TABLES[bool(multiversion)]
    operations: List[Operation] = []
    position = 0
    while (match := _TOKEN_RE.match(text, position)) is not None:
        token = match.group("token")
        operation = table.get(token)
        if operation is None:
            operation = _parse_body(match.group("kind"), int(match.group("txn")),
                                    match.group("body"), multiversion)
            if (len(table) < _TOKEN_TABLE_CAP
                    and len(token) <= _TOKEN_TABLE_MAX_LEN):
                table[token] = operation
        operations.append(operation)
        position = match.end()
    position = _SEPARATORS_RE.match(text, position).end()
    if position < len(text):
        raise HistoryError(
            f"cannot parse history at: {text[position:position + 20]!r}"
        )
    return History(operations, name=name)
