"""Dependency graphs, conflict serializability, and history equivalence.

Section 2.1 of the paper: a history gives rise to a *dependency graph* whose
nodes are the committed transactions and whose edges record the temporal data
flow between conflicting actions.  Two histories are equivalent if they have
the same committed transactions and the same dependency graph, and a history
is *serializable* if it is equivalent to some serial history — equivalently,
if its dependency graph is acyclic (the Serializability Theorem).

This module builds those graphs, tests for cycles, produces witness serial
orders, and classifies edges (write-read, read-write, write-write) so the
anomaly analysis can report *why* a history is non-serializable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .history import History
from .operations import Operation

__all__ = [
    "DependencyEdge",
    "DependencyGraph",
    "adjacency_is_acyclic",
    "build_dependency_graph",
    "is_serializable",
    "equivalent_serial_orders",
    "histories_equivalent",
]


@dataclass(frozen=True)
class DependencyEdge:
    """A directed edge in the dependency graph.

    ``source`` precedes ``target``: an action of ``source`` conflicts with and
    comes before an action of ``target`` in the history.
    """

    source: int
    target: int
    kind: str  # "wr", "rw", or "ww"
    item: Optional[str]
    source_op: Operation
    target_op: Operation

    def describe(self) -> str:
        """A short human-readable description of the edge."""
        where = self.item if self.item is not None else self.source_op.predicate
        return (
            f"T{self.source} --{self.kind}[{where}]--> T{self.target}"
        )


def _edge_kind(earlier: Operation, later: Operation) -> str:
    """Classify a conflict edge: write→read, read→write, or write→write."""
    if earlier.is_write and later.is_write:
        return "ww"
    if earlier.is_write and later.is_read:
        return "wr"
    return "rw"


class DependencyGraph:
    """The dependency (conflict) graph of a history's committed transactions."""

    def __init__(self, nodes: Iterable[int], edges: Iterable[DependencyEdge]):
        self.nodes: List[int] = list(nodes)
        self.edges: List[DependencyEdge] = list(edges)
        self._adjacency: Dict[int, Set[int]] = {node: set() for node in self.nodes}
        for edge in self.edges:
            self._adjacency.setdefault(edge.source, set()).add(edge.target)
            self._adjacency.setdefault(edge.target, set())

    # -- structure ----------------------------------------------------------------

    def successors(self, node: int) -> Set[int]:
        """Transactions reachable by a single edge from ``node``."""
        return set(self._adjacency.get(node, set()))

    def edge_set(self) -> FrozenSet[Tuple[int, int]]:
        """The set of (source, target) pairs, ignoring labels and multiplicity."""
        return frozenset((edge.source, edge.target) for edge in self.edges)

    def edges_between(self, source: int, target: int) -> List[DependencyEdge]:
        """All labelled edges from ``source`` to ``target``."""
        return [e for e in self.edges if e.source == source and e.target == target]

    # -- cycles and serial orders ----------------------------------------------------

    def find_cycle(self) -> Optional[List[int]]:
        """A list of transactions forming a cycle, or None when acyclic."""
        WHITE, GREY, BLACK = 0, 1, 2
        colour: Dict[int, int] = {node: WHITE for node in self.nodes}
        parent: Dict[int, Optional[int]] = {}

        for start in self.nodes:
            if colour[start] != WHITE:
                continue
            stack: List[Tuple[int, Iterable[int]]] = [(start, iter(sorted(self.successors(start))))]
            colour[start] = GREY
            parent[start] = None
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    if colour.get(child, WHITE) == WHITE:
                        colour[child] = GREY
                        parent[child] = node
                        stack.append((child, iter(sorted(self.successors(child)))))
                        advanced = True
                        break
                    if colour.get(child) == GREY:
                        # Found a back edge: unwind the cycle node..child.
                        cycle = [child, node]
                        walker = parent[node]
                        while walker is not None and walker != child:
                            cycle.append(walker)
                            walker = parent[walker]
                        cycle.reverse()
                        return cycle
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return None

    def is_acyclic(self) -> bool:
        """True when the graph has no cycle (the history is serializable)."""
        return self.find_cycle() is None

    def topological_order(self) -> Optional[List[int]]:
        """One serial order consistent with the graph, or None if cyclic."""
        in_degree: Dict[int, int] = {node: 0 for node in self.nodes}
        for source, target in self.edge_set():
            in_degree[target] = in_degree.get(target, 0) + 1
        ready = sorted(node for node, degree in in_degree.items() if degree == 0)
        order: List[int] = []
        edges = self.edge_set()
        remaining = {node: degree for node, degree in in_degree.items()}
        while ready:
            node = ready.pop(0)
            order.append(node)
            for source, target in edges:
                if source == node:
                    remaining[target] -= 1
                    if remaining[target] == 0:
                        ready.append(target)
            ready.sort()
        if len(order) != len(self.nodes):
            return None
        return order

    def all_topological_orders(self, limit: int = 64) -> List[List[int]]:
        """Every serial order consistent with the graph (bounded by ``limit``)."""
        edges = self.edge_set()
        results: List[List[int]] = []

        def backtrack(remaining: List[int], acc: List[int]) -> None:
            if len(results) >= limit:
                return
            if not remaining:
                results.append(list(acc))
                return
            for node in list(remaining):
                blocked = any(
                    (other, node) in edges for other in remaining if other != node
                )
                if blocked:
                    continue
                next_remaining = [n for n in remaining if n != node]
                backtrack(next_remaining, acc + [node])

        backtrack(sorted(self.nodes), [])
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        edges = ", ".join(edge.describe() for edge in self.edges)
        return f"<DependencyGraph nodes={self.nodes} edges=[{edges}]>"


def build_dependency_graph(history: History,
                           committed_only: bool = True) -> DependencyGraph:
    """Build the dependency graph of a history.

    Parameters
    ----------
    history:
        Any history (single-version or multiversion — the conflict relation
        uses item names, so versions of the same item conflict as the paper's
        single-valued interpretation requires).
    committed_only:
        When True (the default, matching Section 2.1) only the actions of
        committed transactions become nodes and edges.
    """
    base = history.committed_projection() if committed_only else history
    nodes = base.transactions()
    edges: List[DependencyEdge] = []
    seen: Set[Tuple[int, int, str, Optional[str]]] = set()
    for i, j, earlier, later in base.conflicting_pairs():
        kind = _edge_kind(earlier, later)
        item = earlier.item if earlier.item is not None else later.item
        key = (earlier.txn, later.txn, kind, item)
        if key in seen:
            continue
        seen.add(key)
        edges.append(
            DependencyEdge(
                source=earlier.txn,
                target=later.txn,
                kind=kind,
                item=item,
                source_op=earlier,
                target_op=later,
            )
        )
    return DependencyGraph(nodes, edges)


def adjacency_is_acyclic(adjacency: Dict[int, Set[int]]) -> bool:
    """Iterative three-color DFS over a handful of transaction nodes.

    ``adjacency`` must hold a (possibly empty) successor set for every node
    an edge reaches.  The classifiers' verdict, without labelled edges.
    """
    state: Dict[int, int] = {}
    for root in adjacency:
        if root in state:
            continue
        stack = [(root, iter(adjacency[root]))]
        state[root] = 1
        while stack:
            node, successors = stack[-1]
            advanced = False
            for successor in successors:
                mark = state.get(successor)
                if mark == 1:
                    return False
                if mark is None:
                    state[successor] = 1
                    stack.append((successor, iter(adjacency[successor])))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                stack.pop()
    return True


def is_serializable(history: History) -> bool:
    """True when the history's committed projection is conflict-serializable."""
    return build_dependency_graph(history).is_acyclic()


def equivalent_serial_orders(history: History, limit: int = 64) -> List[List[int]]:
    """All serial transaction orders equivalent to the history (up to ``limit``)."""
    return build_dependency_graph(history).all_topological_orders(limit=limit)


def histories_equivalent(first: History, second: History) -> bool:
    """Equivalence per Section 2.1.

    Two histories are equivalent when they have the same committed
    transactions and the same dependency graph (same labelled edge sets).
    """
    first_graph = build_dependency_graph(first)
    second_graph = build_dependency_graph(second)
    if set(first_graph.nodes) != set(second_graph.nodes):
        return False

    def labelled_edges(graph: DependencyGraph) -> Set[Tuple[int, int, str, Optional[str]]]:
        return {(e.source, e.target, e.kind, e.item) for e in graph.edges}

    return labelled_edges(first_graph) == labelled_edges(second_graph)
