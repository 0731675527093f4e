"""Deadlock detection over the waits-for graph, with victim selection.

Lock-based isolation levels above READ UNCOMMITTED can deadlock: the classic
case in this reproduction is the lost-update scenario under Locking
REPEATABLE READ, where both transactions hold Share locks on ``x`` and each
waits for the other to release it before upgrading to Exclusive.  The paper
does not prescribe a deadlock policy (it is orthogonal to the isolation
definitions), so we use the standard approach: maintain a waits-for graph,
detect cycles, and abort a victim (by default the youngest transaction in the
cycle) so that the remaining transactions can proceed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

__all__ = ["WaitsForGraph", "Deadlock"]


@dataclass(frozen=True)
class Deadlock:
    """A detected deadlock: the cycle of transactions and the chosen victim."""

    cycle: Tuple[int, ...]
    victim: int


class WaitsForGraph:
    """Directed graph: an edge ``waiter -> holder`` means waiter is blocked on holder."""

    def __init__(self) -> None:
        self._edges: Dict[int, Set[int]] = {}

    # -- maintenance -------------------------------------------------------------

    def set_waits(self, waiter: int, holders: Iterable[int]) -> None:
        """Record that ``waiter`` is currently blocked on ``holders``.

        Replaces any previous wait edges of the same waiter (a transaction
        waits for exactly one lock request at a time).
        """
        current = self._edges.get(waiter)
        if current is not None and current == holders and waiter not in current:
            # Replayed blocked attempts re-report identical blockers; the
            # edge set is already exactly this (the stored set never contains
            # the waiter, so equality implies the filtered set matches too).
            return
        targets = {holder for holder in holders if holder != waiter}
        if targets:
            self._edges[waiter] = targets
        else:
            self._edges.pop(waiter, None)

    def clear_waits(self, waiter: int) -> None:
        """Remove the waiter's outgoing edges (its request was granted or it died)."""
        self._edges.pop(waiter, None)

    def remove_transaction(self, txn: int) -> None:
        """Remove a transaction entirely (it committed or aborted)."""
        self._edges.pop(txn, None)
        for waiter in list(self._edges):
            self._edges[waiter].discard(txn)
            if not self._edges[waiter]:
                del self._edges[waiter]

    def waiting(self) -> Set[int]:
        """The transactions currently blocked on someone."""
        return set(self._edges)

    def is_waiting(self, txn: int) -> bool:
        """True when this transaction is currently blocked on someone."""
        return txn in self._edges

    def any_waiting(self, txns: Iterable[int]) -> bool:
        """True when any of the given transactions is itself waiting."""
        edges = self._edges
        if not edges:
            return False
        for txn in txns:
            if txn in edges:
                return True
        return False

    # -- checkpoints -----------------------------------------------------------------

    def checkpoint(self) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """A value token of the edge set (for :meth:`restore`)."""
        return tuple((waiter, tuple(holders))
                     for waiter, holders in self._edges.items())

    def restore(self, token: Tuple[Tuple[int, Tuple[int, ...]], ...]) -> None:
        """Reset the edge set to a :meth:`checkpoint` token (reusable)."""
        self._edges = {waiter: set(holders) for waiter, holders in token}

    def state_key(self) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """The edge set as one canonical value (detection reads it sorted)."""
        return tuple(sorted((waiter, tuple(sorted(holders)))
                            for waiter, holders in self._edges.items()))

    def waits_on(self, waiter: int) -> Set[int]:
        """The transactions a waiter is blocked on."""
        return set(self._edges.get(waiter, set()))

    # -- detection ------------------------------------------------------------------

    def find_cycle(self) -> Optional[List[int]]:
        """Some cycle in the waits-for graph, or None."""
        edges = self._edges
        # Every edge on a cycle targets a node that itself waits; when no
        # edge does, the DFS cannot find anything — skip it.
        for holders in edges.values():
            if not holders.isdisjoint(edges.keys()):
                break
        else:
            return None
        visiting: Set[int] = set()
        visited: Set[int] = set()
        stack: List[int] = []

        def visit(node: int) -> Optional[List[int]]:
            visiting.add(node)
            stack.append(node)
            for neighbour in sorted(self._edges.get(node, set())):
                if neighbour in visiting:
                    start = stack.index(neighbour)
                    return stack[start:]
                if neighbour not in visited:
                    found = visit(neighbour)
                    if found is not None:
                        return found
            visiting.discard(node)
            visited.add(node)
            stack.pop()
            return None

        for node in sorted(self._edges):
            if node not in visited:
                found = visit(node)
                if found is not None:
                    return found
        return None

    def detect(self, victim_chooser: Optional[Callable[[List[int]], int]] = None
               ) -> Optional[Deadlock]:
        """Detect a deadlock and choose a victim.

        The default victim policy aborts the youngest transaction in the cycle
        (the one with the largest identifier), which matches the common
        "least work lost" heuristic in our scenarios where identifiers are
        assigned in start order.
        """
        cycle = self.find_cycle()
        if cycle is None:
            return None
        chooser = victim_chooser or max
        return Deadlock(cycle=tuple(cycle), victim=chooser(cycle))
