"""Sleep-set/DPOR-style partial-order reduction of interleaving spaces.

Most interleavings of a program set are *equivalent*: they differ only in the
order of adjacent steps that commute — steps of different transactions whose
data footprints are disjoint, so neither locks, blocks, aborts, nor observes
the other at any isolation level.  Executing one representative per
equivalence class and reusing its classification for the rest is the
schedule-explorer analogue of the sleep-set / dynamic partial-order reduction
used by systematic model checkers: it cuts executed-schedule counts by orders
of magnitude on workloads with disjoint structure without changing any
reported coverage.

The equivalence is Mazurkiewicz trace equivalence over *slot events*.  The
k-th occurrence of transaction ``t`` in an interleaving is the event
``(t, k)``; two events of different transactions are *independent* when their
effective footprints do not conflict (write-involved overlap, Section 2.1).
Two interleavings are equivalent iff one is reachable from the other by
swapping adjacent independent events, and every equivalence class has a
unique canonical member — the lexicographically least linearization of the
class's dependence order — which :meth:`CommutationOracle.canonical_key`
computes directly.

Soundness relies on a *conservative* mapping from slot occurrences to program
steps.  The schedule runner consumes an interleaving slot even when the step
it attempts blocks, so occurrence ``k`` does not always attempt step ``k``.
A step can only block, deadlock, or be engine-aborted when it conflicts with
another program ("interacting"), therefore every occurrence before a
transaction's first interacting step attempts exactly its own step, and from
that point on the oracle charges the occurrence with the union of all
possibly-attempted step footprints.  Opaque footprints (predicate selects,
cursor operations, computed inserts — see
:meth:`repro.engine.programs.Step.footprint`) conflict with everything, so
programs the analysis cannot see through simply never commute.

Beyond data footprints, **terminal events are visibility boundaries**: a
commit publishes writes (and closes the windows the phenomenon detectors
anchor on — a dirty read is only dirty before the writer's terminal, a
snapshot is only stale when taken before the publisher's commit), so within a
*conflict component* — transactions connected by any footprint conflict — an
event that may realize a terminal is ordered against every other event.
Transactions in different components share no items, locks, versions,
waits-for edges, or detector patterns, so their events commute freely, which
is where partial-order reduction wins by orders of magnitude.

The component-wide terminal rule is only *needed* for multiversion engines,
where a commit is a snapshot boundary: swapping T1's commit past an
unrelated-footprint event of T2 can still move the commit across T2's
snapshot point and change which versions T2's *later* reads observe.
Single-version locking engines have no snapshot points — a terminal's entire
effect (publishing writes, releasing locks, rolling values back, closing
detector windows) is confined to the items its transaction touched after its
first interacting step, which the occurrence-level *effective footprint*
already accumulates.  ``terminal_scope="footprint"`` therefore drops the
component-wide rule and lets terminals commute with footprint-disjoint
events, which is sound for locking levels and reduces transitively-connected
components much further; the default ``"component"`` scope stays safe for
every engine.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.isolation import IsolationLevelName
from ..engine.programs import Abort, Commit, StepFootprint, TransactionProgram
from ..testbed import is_single_version
from .schedules import Interleaving

__all__ = [
    "TERMINAL_SCOPES",
    "CommutationOracle",
    "ExecutionPlan",
    "StreamingReducer",
    "build_execution_plan",
    "terminal_scope_for",
]

#: Accepted terminal-ordering scopes: ``"component"`` orders a possible
#: terminal against every event of its conflict component (required for
#: multiversion engines, whose commits are snapshot boundaries);
#: ``"footprint"`` orders it only against footprint-conflicting events
#: (sound for single-version locking engines).
TERMINAL_SCOPES = ("component", "footprint")

#: Marker footprint for "could touch anything".
_OPAQUE = StepFootprint(opaque=True)


def terminal_scope_for(level: IsolationLevelName) -> str:
    """The commutation oracle's terminal scope for one isolation level.

    Single-version locking engines take the relaxed ``"footprint"`` rule;
    multiversion engines need the component-wide ``"component"`` rule because
    their commits are snapshot boundaries (see the module docstring).  The
    single definition serves the explorer's streamed plans and the Table 4
    bridge's cached ones — both must canonicalize with the same equivalence
    relation.
    """
    return "footprint" if is_single_version(level) else "component"


def _union_footprint(footprints: Sequence[StepFootprint]) -> StepFootprint:
    """The combined footprint of a range of steps (opaque if any member is)."""
    if any(fp.opaque for fp in footprints):
        return _OPAQUE
    reads = frozenset().union(*(fp.reads for fp in footprints)) if footprints else frozenset()
    writes = frozenset().union(*(fp.writes for fp in footprints)) if footprints else frozenset()
    return StepFootprint(reads=reads, writes=writes)


class CommutationOracle:
    """Decides which slot events of a program set commute, and canonicalizes.

    Built once per program set; all queries are memoized.  ``canonical_key``
    maps an interleaving to the unique canonical member of its equivalence
    class, so two interleavings are equivalent iff their keys are equal.

    ``terminal_scope`` selects the terminal-ordering rule (see
    :data:`TERMINAL_SCOPES`): keep the default ``"component"`` unless every
    engine the plan will serve is a single-version locking engine.
    """

    def __init__(self, programs: Sequence[TransactionProgram],
                 terminal_scope: str = "component"):
        if terminal_scope not in TERMINAL_SCOPES:
            raise ValueError(f"unknown terminal scope {terminal_scope!r}; "
                             f"choose from {TERMINAL_SCOPES}")
        self.terminal_scope = terminal_scope
        self._footprints: Dict[int, Tuple[StepFootprint, ...]] = {
            program.txn: program.footprints() for program in programs
        }
        self._first_interacting: Dict[int, Optional[int]] = {
            txn: self._find_first_interacting(txn) for txn in self._footprints
        }
        #: Earliest occurrence at which a transaction may realize its terminal
        #: (the index of its first Commit/Abort step — a terminal can never be
        #: attempted before the program counter reaches it).
        self._terminal_floor: Dict[int, int] = {
            program.txn: next(
                (index for index, step in enumerate(program.steps)
                 if isinstance(step, (Commit, Abort))),
                len(program.steps) - 1,
            )
            for program in programs
        }
        self._component = self._conflict_components(programs)
        self._effective_cache: Dict[Tuple[int, int], StepFootprint] = {}
        self._commute_cache: Dict[Tuple[int, int, int, int], bool] = {}
        #: Event table of the canonical-key fast path: every (txn, occurrence)
        #: with occurrence < len(program) gets a dense id assigned in
        #: (txn, occurrence) order, and ``_conflict_masks[id]`` is the bitmask
        #: of event ids that do NOT commute with it (built from the memoized
        #: :meth:`commutes`, so the two paths cannot disagree).  Lazy: built on
        #: the first canonical_key call.
        self._event_ids: Optional[Dict[Tuple[int, int], int]] = None
        self._event_txns: List[int] = []
        self._conflict_masks: List[int] = []

    def _build_event_table(self) -> Dict[Tuple[int, int], int]:
        ids: Dict[Tuple[int, int], int] = {}
        txns: List[int] = []
        for txn in sorted(self._footprints):
            for occurrence in range(len(self._footprints[txn])):
                ids[(txn, occurrence)] = len(txns)
                txns.append(txn)
        events = list(ids)
        masks = [0] * len(events)
        for i, (txn_a, occ_a) in enumerate(events):
            for j in range(i + 1, len(events)):
                txn_b, occ_b = events[j]
                # commutes() is False for same-transaction pairs (program
                # order), so those bits are set too — exactly the dependence
                # rule of the slow path.
                if not self.commutes(txn_a, occ_a, txn_b, occ_b):
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        self._event_ids = ids
        self._event_txns = txns
        self._conflict_masks = masks
        return ids

    # -- static analysis -----------------------------------------------------------

    def _conflict_components(self, programs: Sequence[TransactionProgram]) -> Dict[int, int]:
        """Union-find over transactions connected by any step-footprint conflict."""
        parent = {program.txn: program.txn for program in programs}

        def find(txn: int) -> int:
            while parent[txn] != txn:
                parent[txn] = parent[parent[txn]]
                txn = parent[txn]
            return txn

        txns = list(self._footprints)
        for position, txn_a in enumerate(txns):
            for txn_b in txns[position + 1:]:
                if any(fp_a.conflicts_with(fp_b)
                       for fp_a in self._footprints[txn_a]
                       for fp_b in self._footprints[txn_b]):
                    parent[find(txn_a)] = find(txn_b)
        return {txn: find(txn) for txn in txns}

    def _find_first_interacting(self, txn: int) -> Optional[int]:
        """Index of the first step of ``txn`` that conflicts with any other program."""
        others = [
            footprint
            for other, footprints in self._footprints.items()
            if other != txn
            for footprint in footprints
        ]
        for index, footprint in enumerate(self._footprints[txn]):
            if footprint.opaque:
                return index
            if any(footprint.conflicts_with(other) for other in others):
                return index
        return None

    def effective_footprint(self, txn: int, occurrence: int) -> StepFootprint:
        """What the ``occurrence``-th slot of ``txn`` may touch, conservatively.

        Before the first interacting step, slot k attempts exactly step k (no
        earlier step can block, so the program counter tracks the slot count).
        From the first interacting step onward, a slot may be retrying any
        step between that point and its own index, so it is charged with the
        union of those footprints.
        """
        key = (txn, occurrence)
        cached = self._effective_cache.get(key)
        if cached is not None:
            return cached
        footprints = self._footprints[txn]
        first = self._first_interacting[txn]
        if first is None or occurrence < first:
            result = (
                footprints[occurrence]
                if occurrence < len(footprints)
                else StepFootprint()
            )
        else:
            high = min(occurrence, len(footprints) - 1)
            result = _union_footprint(footprints[first:high + 1])
        self._effective_cache[key] = result
        return result

    def commutes(self, txn_a: int, occ_a: int, txn_b: int, occ_b: int) -> bool:
        """True when adjacent slots (txn_a, occ_a) and (txn_b, occ_b) can swap."""
        if txn_a == txn_b:
            return False
        if txn_a > txn_b:
            txn_a, occ_a, txn_b, occ_b = txn_b, occ_b, txn_a, occ_a
        key = (txn_a, occ_a, txn_b, occ_b)
        cached = self._commute_cache.get(key)
        if cached is None:
            if (self.terminal_scope == "component"
                    and self._component[txn_a] == self._component[txn_b]
                    and (occ_a >= self._terminal_floor[txn_a]
                         or occ_b >= self._terminal_floor[txn_b])):
                # A possible terminal is a visibility boundary for every
                # transaction it conflicts with, directly or transitively:
                # commits publish writes, close detector windows, and settle
                # which snapshots are stale — never swap one inside its
                # conflict component.  Under "footprint" scope (locking
                # engines only) a terminal occurrence's effective footprint
                # already carries every item whose publication, lock release,
                # or rollback it can realize, so the base check suffices.
                cached = False
            else:
                cached = not self.effective_footprint(txn_a, occ_a).conflicts_with(
                    self.effective_footprint(txn_b, occ_b)
                )
            self._commute_cache[key] = cached
        return cached

    # -- canonicalization ----------------------------------------------------------

    def canonical_key(self, interleaving: Interleaving) -> Interleaving:
        """The canonical member of ``interleaving``'s equivalence class.

        The dependence order of the interleaving's events (program order plus
        every non-commuting cross-transaction pair, oriented by position) is a
        trace invariant; its lexicographically least topological linearization
        is computed greedily with a heap.  The hot path replaces the per-pair
        commutation queries with one precomputed bitmask row per event (built
        from the same memoized :meth:`commutes`); interleavings that repeat a
        transaction beyond its program length fall back to the query path.
        """
        ids = self._event_ids
        if ids is None:
            ids = self._build_event_table()
        events: List[int] = []
        counts: Dict[int, int] = {}
        for txn in interleaving:
            occurrence = counts.get(txn, 0)
            counts[txn] = occurrence + 1
            event_id = ids.get((txn, occurrence))
            if event_id is None:
                return self._canonical_key_slow(interleaving)
            events.append(event_id)
        size = len(events)
        pending = [0] * size
        successors: List[List[int]] = [[] for _ in range(size)]
        masks = self._conflict_masks
        for later in range(size):
            row = masks[events[later]]
            if row:
                for earlier in range(later):
                    if (row >> events[earlier]) & 1:
                        pending[later] += 1
                        successors[earlier].append(later)
        # Event ids are assigned in (txn, occurrence) order, so a heap over
        # ids linearizes with exactly the slow path's tie-breaking.
        heap = [(events[i], i) for i in range(size) if pending[i] == 0]
        heapq.heapify(heap)
        txns = self._event_txns
        canonical: List[int] = []
        while heap:
            event_id, index = heapq.heappop(heap)
            canonical.append(txns[event_id])
            for successor in successors[index]:
                pending[successor] -= 1
                if pending[successor] == 0:
                    heapq.heappush(heap, (events[successor], successor))
        return tuple(canonical)

    def _canonical_key_slow(self, interleaving: Interleaving) -> Interleaving:
        """Per-pair commutation-query canonicalization (the reference path)."""
        events: List[Tuple[int, int]] = []
        seen: Dict[int, int] = {}
        for txn in interleaving:
            occurrence = seen.get(txn, 0)
            seen[txn] = occurrence + 1
            events.append((txn, occurrence))

        size = len(events)
        pending = [0] * size
        successors: List[List[int]] = [[] for _ in range(size)]
        for later in range(size):
            txn_l, occ_l = events[later]
            for earlier in range(later):
                txn_e, occ_e = events[earlier]
                if not self.commutes(txn_e, occ_e, txn_l, occ_l):
                    pending[later] += 1
                    successors[earlier].append(later)

        heap = [(events[i], i) for i in range(size) if pending[i] == 0]
        heapq.heapify(heap)
        canonical: List[int] = []
        while heap:
            (txn, _), index = heapq.heappop(heap)
            canonical.append(txn)
            for successor in successors[index]:
                pending[successor] -= 1
                if pending[successor] == 0:
                    heapq.heappush(heap, (events[successor], successor))
        return tuple(canonical)


@dataclass(frozen=True)
class ExecutionPlan:
    """Which schedules to execute, and how to cover the rest.

    ``executed`` holds one representative interleaving per equivalence class,
    in first-encountered order; ``assignment[i]`` is the index into
    ``executed`` covering the i-th schedule of the space's stream.  The plan
    is level-independent: commutation is judged on static footprints that
    hold under every engine.
    """

    executed: Tuple[Interleaving, ...]
    assignment: Tuple[int, ...]
    terminal_scope: str = "component"

    @property
    def selected(self) -> int:
        """How many schedules the plan covers."""
        return len(self.assignment)

    @property
    def ratio(self) -> float:
        """Reduction ratio: schedules covered per schedule executed."""
        return self.selected / len(self.executed) if self.executed else 1.0


class StreamingReducer:
    """Incremental sleep-set reduction: canonicalize a stream chunk by chunk.

    The chunk-wise equivalent of :func:`build_execution_plan`: feed schedule
    chunks in stream order to :meth:`reduce` and it hands back the chunk's
    *fresh* representatives (equivalence classes first encountered in this
    chunk, in first-encountered order — exactly the schedules that need
    executing) plus one slot per input schedule into the growing
    :attr:`executed` list.  Because representatives are assigned in
    first-encounter order, a chunk's fresh representatives are always a
    contiguous suffix of ``executed`` — the property the explorer's streaming
    assembly relies on.

    Nothing is materialized up front: memory is the canonical-key map plus
    ``executed`` (both proportional to the number of distinct equivalence
    classes, i.e. to real execution work), which is how reduction composes
    with 10M+-schedule sampled streams.
    """

    def __init__(self, programs: Sequence[TransactionProgram],
                 terminal_scope: str = "component"):
        self.oracle = CommutationOracle(programs, terminal_scope=terminal_scope)
        self.terminal_scope = terminal_scope
        self._slots: Dict[Interleaving, int] = {}
        #: One representative per equivalence class, in first-encountered order.
        self.executed: List[Interleaving] = []
        #: Schedules fed through :meth:`reduce` so far.
        self.covered = 0

    def reduce(self, schedules: Iterable[Interleaving]
               ) -> Tuple[Tuple[Interleaving, ...], List[int]]:
        """Canonicalize one chunk; returns (fresh representatives, slots)."""
        canonical_key = self.oracle.canonical_key
        slots_of = self._slots
        executed = self.executed
        fresh: List[Interleaving] = []
        slots: List[int] = []
        for interleaving in schedules:
            key = canonical_key(interleaving)
            slot = slots_of.get(key)
            if slot is None:
                slot = len(executed)
                slots_of[key] = slot
                executed.append(interleaving)
                fresh.append(interleaving)
            slots.append(slot)
        self.covered += len(slots)
        return tuple(fresh), slots


def build_execution_plan(schedules: Iterable[Interleaving],
                         programs: Sequence[TransactionProgram],
                         terminal_scope: str = "component") -> ExecutionPlan:
    """Partition a schedule stream into representatives and reuse assignments."""
    reducer = StreamingReducer(programs, terminal_scope=terminal_scope)
    _, assignment = reducer.reduce(schedules)
    return ExecutionPlan(executed=tuple(reducer.executed),
                         assignment=tuple(assignment),
                         terminal_scope=terminal_scope)
