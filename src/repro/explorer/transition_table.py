"""The transition table: every state of a testbed once, every later visit a hit.

Under a fixed program set an engine plus its schedule runner is a
deterministic state machine, and exhaustive or sampled schedule streams
drive it through the same states over and over — by the same prefix (which
the trie's checkpoints already share) and by *different* prefixes (which
they cannot).  :class:`TableWalk` memoizes the machine instead:

* **States are interned** by a canonical, hashable key — ``tuple(state
  list)`` for the batch kernel's flat emulators
  (:mod:`repro.explorer.batch_kernel`), ``ScheduleRunner.state_key()`` over
  the real engines for the trie executor
  (:mod:`repro.explorer.trie_executor`).
* **Two maps** hold what each state does: ``(state id, transaction) ->
  (next state id, emitted operations, attempt and blocked deltas,
  deadlocks, abort reasons)`` and ``pre-drain state id -> drain record``
  (the same fields plus the stall flag and what the outcome reads off the
  final state); :func:`slot_record` is the one shape.  A hit is two list
  indexings and an extend; the machine runs only on a miss
  (:meth:`TableWalk._step`, :meth:`TableWalk._drain_step`, which subclasses
  supply).
* **Outputs are deltas.**  Operations, deadlocks, blocked events, attempts
  and abort reasons never steer a step, so they stay out of the key and ride
  on the records; two prefixes that differ only in what they already
  emitted meet in one state.  The attempt budget is the one place an output
  steers: rows whose budget could run out inside a call take the checked
  slot loop, and a stored drain is reused only where ``attempts + its
  delta`` stays under ``max_attempts`` (otherwise it runs on the machine,
  unstored).
* **One DFS walk.**  Batches are walked in sorted order; each row restores
  the deepest logical checkpoint — ``(state id, output lengths)`` — it
  shares with its predecessor and walks only its divergent suffix, placing
  one checkpoint at the branch point the next row will restore to.

**Purity.**  A stored transition replays what a program's value callable
returned the first time.  That is sound exactly where ``_TESTBED_CACHE`` and
the sleep-set plan are: value callables must be pure functions of the
context they are handed.  Values that compare equal (``1``, ``1.0``,
``True``) are one value to the table, as they already are to the per-step
operation interning caches.  A state whose key holds an unhashable value
cannot be interned: it lives on the machine only, its transitions are
computed and not stored, and the row rejoins the table at the next state
that can be.

**The cap.**  One testbed admits :data:`TRANSITION_STATE_CAP` states; past it
transitions are computed and not stored (the policy of
``CLASSIFICATION_MEMO_CAP``), so a space that never repeats pays the machine
it always paid and cannot grow the process.
"""

from __future__ import annotations

from operator import length_hint
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.operations import Operation
from ..engine.outcomes import ExecutionOutcome
from ..locking.deadlock import Deadlock

__all__ = ["TRANSITION_STATE_CAP", "TableWalk"]

#: States one testbed's transition table admits before it stops growing.
#: Measured on the ledger's 30,000-schedule run (4 transactions over 2 hot
#: items, 32 slots per state): the four locking levels intern 9,609 states
#: (4,414 the largest table) with 24,607 stored transitions and 1,455 drains
#: in 6.7 MB of allocations, 5.9 MB of peak RSS — 0.7 KB per state, its key,
#: dict entry and 2.6 transition records included.  A full table is 23 MB at
#: that ratio; wider program sets have longer keys.
TRANSITION_STATE_CAP = 1 << 15


def common_prefix(first: Sequence[int], second: Sequence[int]) -> int:
    """Length of the longest common prefix of two schedules."""
    limit = min(len(first), len(second))
    shared = 0
    while shared < limit and first[shared] == second[shared]:
        shared += 1
    return shared


def slot_record(successor: int, ops: Tuple[Operation, ...], attempts: int,
                blocked: int, deadlocks: Tuple[Deadlock, ...] = (),
                aborts: Tuple[Tuple[int, str], ...] = ()) -> Tuple[Any, ...]:
    """The one slot-record shape: ``(next state id, operations, attempts,
    blocked events, rare)``, where the rarely non-empty deadlocks and abort
    reasons share one field, ``()`` when both are empty, so a hit tests one
    field for them.  A drain record appends the stall flag and the machine's
    view of the final state."""
    return (successor, ops, attempts, blocked,
            (deadlocks, aborts) if deadlocks or aborts else ())


def sorted_order_and_lcps(schedules: Sequence[Sequence[int]],
                          sort: bool) -> Tuple[List[int], List[int]]:
    """DFS order of a batch plus each row's common prefix with its predecessor."""
    order = (sorted(range(len(schedules)), key=schedules.__getitem__) if sort
             else list(range(len(schedules))))
    lcps = [0] if order else []
    for before, after in zip(order, order[1:]):
        lcps.append(common_prefix(schedules[before], schedules[after]))
    return order, lcps


class TableWalk:
    """Interned states, their transitions, and the DFS walk that reads them.

    A subclass is one machine — a flat emulator or the real engine behind a
    schedule runner — and supplies:

    * ``_step(sid, ti, position)``: run transaction ``ti``'s next attempt
      from state ``sid`` (slot ``position`` of the current row) on the
      machine and return its record, the successor interned;
    * ``_drain_step(sid)``: the same for phase 2;
    * ``_enter_row(schedule, depth, shared, prepare)``: note that a row
      starts, restored to ``depth``, sharing ``shared`` slots with the last;
    * ``_foreign(schedule)``: the outcome of a schedule that names a
      transaction outside the program set;
    * ``_hold()`` / ``_resume(token)``: capture / reload a state that has no
      id (off the table) for a logical checkpoint;
    * ``build_outcome()``: the outcome of the row just drained.

    ``_sid`` is the current state's id, or -1 while it cannot be interned.
    ``stats`` needs ``schedules``, ``slots_total``, ``transitions_reused``,
    ``transitions_computed`` and ``states``.
    """

    #: The tables are append-only memos of pure functions of (state,
    #: transaction), valid whatever a restore rewinds; the rest is
    #: configuration.
    _checkpoint_stable = ("stats", "_tindex", "_known", "_width", "_max_attempts",
                          "_ids", "_states", "_trans", "_drains", "_stack",
                          "_previous", "_final")

    def __init__(self, txns: Sequence[int], max_attempts: int, stats: Any):
        self.stats = stats
        self._tindex: Dict[int, int] = {txn: ti for ti, txn in enumerate(txns)}
        self._known = frozenset(self._tindex)
        self._width = len(self._tindex)
        self._max_attempts = max_attempts
        self._ids: Dict[Any, int] = {}
        #: Interned keys by id (a flat emulator reloads its state from one).
        self._states: List[Any] = []
        #: Slot records at ``state id * width + transaction index``, None
        #: until computed.
        self._trans: List[Optional[Tuple[Any, ...]]] = []
        self._drains: Dict[int, Tuple[Any, ...]] = {}
        self._sid = -1
        self.ops: List[Operation] = []
        self.deadlocks: List[Deadlock] = []
        self.aborts: List[Tuple[int, str]] = []
        self.blocked_events = 0
        self.attempts = 0
        self.stalled = False
        #: The drain record's machine-specific view of the final state.
        self._final: Any = None
        self._stack: List[Tuple[int, Tuple]] = []
        self._previous: Optional[Sequence[int]] = None

    def _open(self, key: Any) -> None:
        """Start at the state ``key`` names: the root of every row."""
        self._sid = self._intern(key)
        self._stack.append((0, self.checkpoint()))

    # -- the table ----------------------------------------------------------------

    def _intern(self, key: Any) -> int:
        """The id of state ``key``, admitting it if the cap allows; -1 if not."""
        try:
            sid = self._ids.get(key)
        except TypeError:  # an unhashable value: this state stays off the table
            return -1
        if sid is None:
            sid = len(self._states)
            if sid >= TRANSITION_STATE_CAP:
                return -1
            self._ids[key] = sid
            self._states.append(key)
            self._trans.extend([None] * self._width)
            self.stats.states = sid + 1
        return sid

    def _compute(self, sid: int, ti: int, position: int) -> Tuple[Any, ...]:
        """A slot miss: run it on the machine, store it when both ends have ids."""
        record = self._step(sid, ti, position)
        if sid >= 0 and record[0] >= 0:
            self._trans[sid * self._width + ti] = record
        self.stats.transitions_computed += 1
        return record

    def _compute_drain(self, sid: int) -> Tuple[Any, ...]:
        record = self._drain_step(sid)
        # A drain that ran into the budget depends on where it started.
        if (sid >= 0 and record[0] >= 0
                and self.attempts + record[2] < self._max_attempts):
            self._drains[sid] = record
        self.stats.transitions_computed += 1
        return record

    def _take(self, record: Tuple[Any, ...]) -> None:
        self._sid = record[0]
        self.ops += record[1]
        self.attempts += record[2]
        self.blocked_events += record[3]
        if record[4]:
            found, aborted = record[4]
            self.deadlocks += found
            self.aborts += aborted

    # -- the machine (subclass hooks) -----------------------------------------------

    def _step(self, sid: int, ti: int, position: int) -> Tuple[Any, ...]:
        raise NotImplementedError

    def _drain_step(self, sid: int) -> Tuple[Any, ...]:
        raise NotImplementedError

    def _enter_row(self, schedule: Sequence[int], depth: int, shared: int,
                   prepare: Optional[int]) -> None:
        pass

    def _foreign(self, schedule: Sequence[int]) -> ExecutionOutcome:
        raise NotImplementedError

    def _hold(self) -> Any:
        raise NotImplementedError

    def _resume(self, held: Any) -> None:
        raise NotImplementedError

    def build_outcome(self) -> ExecutionOutcome:
        raise NotImplementedError

    # -- the slot / drain protocol ------------------------------------------------

    def apply_slots(self, slots: Sequence[int]) -> None:
        """Apply a run of slots from the current state (no row bookkeeping)."""
        self._walk(slots, 0, len(slots))

    def _walk(self, row: Sequence[int], start: int, stop: int) -> None:
        sid = self._sid
        attempts = self.attempts
        if sid < 0 or attempts + (stop - start) >= self._max_attempts:
            self._walk_checked(row, start, stop)
            return
        # Each slot makes at most one attempt, so the budget cannot run out
        # in here and the loop needs no check.
        trans = self._trans
        tindex = self._tindex
        width = self._width
        ops = self.ops
        blocked = self.blocked_events
        computed = self.stats.transitions_computed
        rest = stop
        off = None
        walk = iter(row[start:stop])
        for txn in walk:
            ti = tindex[txn]
            record = trans[sid * width + ti]
            if record is None:
                # The slot's position in the row, from what is left of the
                # walk: cheaper than counting every slot for the rare miss.
                position = stop - 1 - length_hint(walk)
                record = self._compute(sid, ti, position)
                if record[0] < 0:  # off the table: finish on the checked loop
                    off = record
                    rest = position + 1
                    break
            sid, emitted, made, waited, rare = record
            ops += emitted
            attempts += made
            blocked += waited
            if rare:
                found, aborted = rare
                self.deadlocks += found
                self.aborts += aborted
        self._sid = sid
        self.attempts = attempts
        self.blocked_events = blocked
        # One lookup per slot walked here; the misses among them were counted
        # by _compute.
        self.stats.transitions_reused += (
            rest - start + computed - self.stats.transitions_computed)
        if off is not None:
            self._take(off)
            self._walk_checked(row, rest, stop)

    def _walk_checked(self, row: Sequence[int], start: int, stop: int) -> None:
        """The slot loop with the budget check, on or off the table."""
        trans = self._trans
        tindex = self._tindex
        limit = self._max_attempts
        for position in range(start, stop):
            if self.attempts >= limit:
                break
            ti = tindex[row[position]]
            sid = self._sid
            record = trans[sid * self._width + ti] if sid >= 0 else None
            if record is None:
                record = self._compute(sid, ti, position)
            else:
                self.stats.transitions_reused += 1
            self._take(record)

    def drain(self) -> None:
        """Phase 2 from the current state, from the table where it can."""
        record = self._drains.get(self._sid)
        if (record is None
                or self.attempts + record[2] >= self._max_attempts):
            record = self._compute_drain(self._sid)
        else:
            self.stats.transitions_reused += 1
        self._take(record)
        self.stalled = record[5]
        self._final = record[6]

    # -- logical checkpoints (backwards along one path) ------------------------------

    def checkpoint(self) -> Tuple:
        sid = self._sid
        return (sid if sid >= 0 else self._hold(), len(self.ops),
                len(self.deadlocks), len(self.aborts), self.blocked_events,
                self.attempts)

    def restore(self, token: Tuple) -> None:
        (state, ops_len, deadlocks_len, aborts_len, self.blocked_events,
         self.attempts) = token
        if state.__class__ is int:
            self._sid = state
        else:
            self._sid = -1
            self._resume(state)
        del self.ops[ops_len:]
        del self.deadlocks[deadlocks_len:]
        del self.aborts[aborts_len:]
        # Checkpoints are taken before the drain, the only place a row stalls.
        self.stalled = False

    # -- the DFS walk ---------------------------------------------------------------

    def run_one(self, schedule: Sequence[int], shared: Optional[int] = None,
                prepare: Optional[int] = None) -> ExecutionOutcome:
        """Execute one schedule from the deepest checkpoint it shares.

        ``shared`` is the known common-prefix length with the previously
        executed schedule (computed once per batch by :meth:`run_batch`);
        ``prepare`` the branch point of the schedule that will run next,
        where the single lookahead checkpoint goes.  A schedule naming a
        transaction outside the program set goes to ``_foreign``.
        """
        if not self._known.issuperset(schedule):
            return self._foreign(schedule)
        if shared is None:
            shared = (common_prefix(self._previous, schedule)
                      if self._previous is not None else 0)
        stack = self._stack
        while stack[-1][0] > shared:
            stack.pop()
        depth, token = stack[-1]
        self.restore(token)
        self._enter_row(schedule, depth, shared, prepare)
        total = len(schedule)
        if prepare is not None and depth < prepare < total:
            self._walk(schedule, depth, prepare)
            stack.append((prepare, self.checkpoint()))
            self._walk(schedule, prepare, total)
        else:
            self._walk(schedule, depth, total)
        self.drain()
        self.stats.schedules += 1
        self.stats.slots_total += total
        self._previous = schedule
        return self.build_outcome()

    def run_batch(self, schedules: Sequence[Sequence[int]],
                  sort: bool = True) -> Iterator[Tuple[int, ExecutionOutcome]]:
        """Execute a batch, yielding ``(original_index, outcome)`` pairs.

        With ``sort=True`` the batch is walked in lexicographic order — the
        DFS order of its shared-prefix trie; outcomes are tagged with their
        original position so callers can reassemble input order.
        """
        order, lcps = sorted_order_and_lcps(schedules, sort)
        count = len(order)
        for position, index in enumerate(order):
            # The first row of a batch may still share a prefix with the last
            # row of the previous batch (the walk persists across chunks).
            shared = lcps[position] if position else None
            prepare = lcps[position + 1] if position + 1 < count else None
            yield index, self.run_one(schedules[index], shared, prepare)
