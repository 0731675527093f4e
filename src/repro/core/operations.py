"""Operations: the atomic actions that make up a transaction history.

The paper (Section 2.2) writes histories in a shorthand notation such as
``w1[x]`` (transaction 1 writes item ``x``), ``r2[x]`` (transaction 2 reads
``x``), ``r1[P]`` (transaction 1 reads the set of items satisfying predicate
``P``), ``c1`` / ``a1`` (commit / abort of transaction 1).  Section 4.1 extends
the notation with ``rc1[x]`` (read through a cursor) and ``wc1[x]`` (write the
current record of a cursor), and Section 4.2 uses versioned items such as
``x0`` / ``x1`` for multiversion (MV) histories.

This module defines the :class:`Operation` value object and the
:class:`OperationKind` enumeration used by every other part of the library.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class OperationKind(enum.Enum):
    """The kind of an action appearing in a history."""

    #: Identity hashing: kinds key the hottest caches in the repo (operation
    #: interning, history indexes), and Enum's default __hash__ re-hashes the
    #: member name on every lookup.  Members are singletons, so identity
    #: hashing is consistent with equality.
    __hash__ = object.__hash__

    READ = "r"
    WRITE = "w"
    CURSOR_READ = "rc"
    CURSOR_WRITE = "wc"
    PREDICATE_READ = "rP"
    PREDICATE_WRITE = "wP"
    COMMIT = "c"
    ABORT = "a"

    @property
    def is_read(self) -> bool:
        """True for item reads, cursor reads, and predicate reads."""
        return (self is OperationKind.READ
                or self is OperationKind.CURSOR_READ
                or self is OperationKind.PREDICATE_READ)

    @property
    def is_write(self) -> bool:
        """True for item writes, cursor writes, and predicate writes."""
        return (self is OperationKind.WRITE
                or self is OperationKind.CURSOR_WRITE
                or self is OperationKind.PREDICATE_WRITE)

    @property
    def is_terminal(self) -> bool:
        """True for commits and aborts."""
        return self is OperationKind.COMMIT or self is OperationKind.ABORT

    @property
    def is_data_access(self) -> bool:
        """True for any read or write, False for commit/abort."""
        return not (self is OperationKind.COMMIT or self is OperationKind.ABORT)

    @property
    def uses_predicate(self) -> bool:
        """True for predicate reads and predicate writes."""
        return (self is OperationKind.PREDICATE_READ
                or self is OperationKind.PREDICATE_WRITE)

    @property
    def uses_cursor(self) -> bool:
        """True for cursor reads and cursor writes."""
        return (self is OperationKind.CURSOR_READ
                or self is OperationKind.CURSOR_WRITE)


class WriteAction(enum.Enum):
    """The concrete mutation performed by a (predicate) write.

    The paper's corrected P3 explicitly covers *any* write affecting a tuple
    satisfying a predicate: an insert, an update, or a delete.
    """

    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Operation:
    """A single action in a history.

    Attributes
    ----------
    kind:
        What the action does (read, write, commit, ...).
    txn:
        The identifier of the transaction performing the action.  The paper
        uses small integers (``T1``, ``T2``), and so do we, but any hashable
        value works.
    item:
        The data item the action touches (``None`` for commits, aborts, and
        pure predicate reads).
    value:
        The value read or written, when the history records it
        (``r1[x=50]`` records a read of 50).  ``None`` when unknown.
    version:
        For multiversion histories: the version subscript of the item
        (``x0`` is version 0 of ``x``).  ``None`` in single-version histories.
    predicate:
        The name of the predicate for predicate reads/writes (``P`` in
        ``r1[P]`` or ``w2[y in P]``).
    write_action:
        For predicate writes, whether the write is an insert, update, or
        delete into the predicate's extent.
    """

    kind: OperationKind
    txn: int
    item: Optional[str] = None
    value: object = None
    version: Optional[int] = None
    predicate: Optional[str] = None
    write_action: Optional[WriteAction] = field(default=None)

    def __post_init__(self) -> None:
        if self.kind.is_terminal and self.item is not None:
            raise ValueError("commit/abort operations must not name a data item")
        if self.kind.uses_predicate and self.predicate is None:
            raise ValueError("predicate operations must name a predicate")
        if self.kind in (OperationKind.READ, OperationKind.WRITE,
                         OperationKind.CURSOR_READ, OperationKind.CURSOR_WRITE):
            if self.item is None:
                raise ValueError(f"{self.kind.name} operations must name a data item")

    def __hash__(self) -> int:
        # Operations are hashed constantly (history caches, classification
        # memos, interning); the dataclass-generated hash walks every field on
        # every call, so memoize it on the instance.  Consistent with the
        # generated __eq__, which compares the same field tuple.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.kind, self.txn, self.item, self.value,
                           self.version, self.predicate, self.write_action))
            object.__setattr__(self, "_hash", cached)
        return cached

    # -- classification helpers -------------------------------------------------

    @property
    def is_read(self) -> bool:
        return self.kind.is_read

    @property
    def is_write(self) -> bool:
        return self.kind.is_write

    @property
    def is_terminal(self) -> bool:
        return self.kind.is_terminal

    def conflicts_with(self, other: "Operation") -> bool:
        """Conflict test per Section 2.1.

        Two actions conflict when they are performed by distinct transactions
        on the same data item and at least one of them is a write.  Predicate
        operations conflict with operations on items the history marks as
        belonging to the predicate (the ``item`` field of a predicate write),
        and with other operations on the same predicate.
        """
        if self.txn == other.txn:
            return False
        if not (self.kind.is_data_access and other.kind.is_data_access):
            return False
        if not (self.is_write or other.is_write):
            return False
        # Plain item overlap.
        if self.item is not None and self.item == other.item:
            return True
        # Predicate overlap: a predicate op conflicts with any op on the same
        # predicate, and with any item op whose item is recorded as being in
        # the predicate (the paper's ``w2[y in P]`` notation).
        if self.predicate is not None and self.predicate == other.predicate:
            return True
        if self.predicate is not None and other.item is not None and other.predicate == self.predicate:
            return True
        return False

    # -- rendering ---------------------------------------------------------------

    def to_shorthand(self) -> str:
        """Render the operation in the paper's shorthand notation.

        Memoized per instance: realized operations are interned and rendered
        once per distinct operation instead of once per history occurrence.
        """
        cached = self.__dict__.get("_shorthand")
        if cached is None:
            cached = self._render_shorthand()
            object.__setattr__(self, "_shorthand", cached)
        return cached

    def _render_shorthand(self) -> str:
        if self.kind is OperationKind.COMMIT:
            return f"c{self.txn}"
        if self.kind is OperationKind.ABORT:
            return f"a{self.txn}"
        prefix = {
            OperationKind.READ: "r",
            OperationKind.WRITE: "w",
            OperationKind.CURSOR_READ: "rc",
            OperationKind.CURSOR_WRITE: "wc",
            OperationKind.PREDICATE_READ: "r",
            OperationKind.PREDICATE_WRITE: "w",
        }[self.kind]
        body = self._shorthand_body()
        return f"{prefix}{self.txn}[{body}]"

    def _shorthand_body(self) -> str:
        if self.kind is OperationKind.PREDICATE_READ:
            return self.predicate or "P"
        if self.kind is OperationKind.PREDICATE_WRITE:
            if self.write_action is WriteAction.INSERT:
                return f"insert {self.item} to {self.predicate}"
            if self.write_action is WriteAction.DELETE:
                return f"delete {self.item} from {self.predicate}"
            return f"{self.item} in {self.predicate}"
        name = self.item or ""
        if self.version is not None:
            name = f"{name}{self.version}"
        if self.value is not None:
            return f"{name}={self.value}"
        return name

    def __str__(self) -> str:  # pragma: no cover - delegates
        return self.to_shorthand()


# -- convenience constructors ----------------------------------------------------


def read(txn: int, item: str, value: object = None, version: Optional[int] = None) -> Operation:
    """Build ``r<txn>[item]`` (optionally versioned / valued)."""
    return Operation(OperationKind.READ, txn, item=item, value=value, version=version)


def write(txn: int, item: str, value: object = None, version: Optional[int] = None) -> Operation:
    """Build ``w<txn>[item]`` (optionally versioned / valued)."""
    return Operation(OperationKind.WRITE, txn, item=item, value=value, version=version)


def cursor_read(txn: int, item: str, value: object = None) -> Operation:
    """Build ``rc<txn>[item]`` — a read through a cursor (Section 4.1)."""
    return Operation(OperationKind.CURSOR_READ, txn, item=item, value=value)


def cursor_write(txn: int, item: str, value: object = None) -> Operation:
    """Build ``wc<txn>[item]`` — a write of the current record of a cursor."""
    return Operation(OperationKind.CURSOR_WRITE, txn, item=item, value=value)


def predicate_read(txn: int, predicate: str) -> Operation:
    """Build ``r<txn>[P]`` — a read of all items satisfying predicate ``P``."""
    return Operation(OperationKind.PREDICATE_READ, txn, predicate=predicate)


def predicate_write(
    txn: int,
    item: str,
    predicate: str,
    action: WriteAction = WriteAction.UPDATE,
) -> Operation:
    """Build ``w<txn>[item in P]`` — a write affecting the extent of ``P``."""
    return Operation(
        OperationKind.PREDICATE_WRITE,
        txn,
        item=item,
        predicate=predicate,
        write_action=action,
    )


def commit(txn: int) -> Operation:
    """Build ``c<txn>``."""
    return Operation(OperationKind.COMMIT, txn)


def abort(txn: int) -> Operation:
    """Build ``a<txn>``."""
    return Operation(OperationKind.ABORT, txn)
