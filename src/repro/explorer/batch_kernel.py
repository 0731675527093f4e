"""The batch kernel: every engine state once, every later visit a table hit.

The trie executor replays schedules through full engine objects — lock lists,
undo logs, OpResult values, deep checkpoint tokens.  For the program shapes
the explorer actually enumerates (``ReadItem`` / ``WriteItem`` / ``Commit`` /
``Abort`` steps, flattened into per-transaction int tables by
:class:`_FlatPrograms`), every engine rule the runner can observe is a small
arithmetic fact over per-item holder bitmasks, and Table 2 makes each locking
level a *deterministic* rule over lock scope and duration.  Under a fixed
program set a flat emulator is therefore a finite-state machine, and this
module runs it as one:

* **The emulators** (:class:`_LockingFlat`, :class:`_ReadConsistencyFlat`)
  keep the whole engine + runner state in one flat list and know how to take
  a single step (``_attempt``) or a phase-2 drain from it.
* **The transition table** in front of them interns every state the testbed
  reaches (``tuple(state list)`` *is* the key) and maps
  ``(state id, transaction) -> (next state id, emitted operations, attempt and
  blocked deltas, deadlocks)`` and ``pre-drain state id -> drain result``.  The
  emulator runs only on a miss; a slot that hits is two list indexings and an
  extend, a checkpoint is ``(state id, len(ops), len(deadlocks), blocked,
  attempts)``, and the outcome's statuses, contexts and database items are
  read off the final state.  Schedules that reach one state by *different*
  prefixes share it — on the ledger's 30,000-schedule sample 94% of all
  attempts are answers the table already holds.
* :class:`_SnapshotKernel` needs no table: under Snapshot Isolation every
  transaction's stream is static and a row is one fold over commit order.
* Batches are walked in sorted (DFS) order so consecutive rows restore the
  deepest checkpoint they share, exactly like the trie executor.
* Rows the tables cannot express (any other step type, custom engine
  options) never reach the kernel — :func:`build_batch_kernel` refuses to
  build and the caller keeps the stepwise path; a per-row escape hatch
  (``fallback``) ejects any row that names a transaction outside the tables.

**What a state key contains.**  Item values, Share/Exclusive holder bitmasks
(chain lengths and tips under Read Consistency), each transaction's lifecycle
code, step counter and waits-for holder mask, one bitmask of the transactions
whose parked blocked-result memo is still valid, the first-before-image (or
write-buffer) slot of every (transaction, item), and every context binding.
What it leaves out, and why: the lock manager's per-item version counters are
monotone — two visits to the same engine situation never agree on them — and
the runner reads them for one thing only, "has this item's lock state moved
since the transaction parked", which the validity bitmask answers directly
(any grant or release on an item clears the bit of every transaction parked
on it).  ``ops``, ``deadlocks``, ``blocked_events`` and ``attempts`` are
*outputs*: they never steer a step, so they are carried as per-transition
deltas and two prefixes that differ only in what they already emitted still
meet in one state.  The attempt budget is the one place an output steers:
rows whose budget could run out inside a call take the checked slot loop, and
a stored drain is reused only where ``attempts + its delta`` stays under
``max_attempts`` (otherwise the drain runs on the emulator, unstored).

**Purity.**  A stored transition replays what a program's value callable
returned the first time.  That is sound exactly where ``_TESTBED_CACHE`` and
the sleep-set plan are: value callables must be pure functions of the context
they are handed.  Values that compare equal
(``1``, ``1.0``, ``True``) are one value to the table, as they already are to
the per-step operation interning caches.  A state holding an unhashable value
cannot be interned: it lives in the emulator's list only, its transitions are
computed and not stored, and the row rejoins the table at the next state that
can be.

**The cap.**  One testbed admits :data:`TRANSITION_STATE_CAP` states; past it
transitions are computed and not stored (the policy of
``CLASSIFICATION_MEMO_CAP``), so a space that never repeats pays the emulator
it always paid and cannot grow the process.

Determinism contract: kernel outcomes are value-identical to the stepwise
runner's — history, statuses, contexts, abort reasons, blocked counts,
deadlocks, stall flag, and the shared database's items at yield time —
for every supported engine level, on a cold table, a warm one and a capped
one.  ``tests/explorer/test_batch_kernel.py`` gates this against randomized
schedule sweeps, including stalled and deadlock-aborted prefixes, and
``tests/property/test_batch_kernel_properties.py`` against random program
sets.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.history import History
from ..core.isolation import IsolationLevelName
from ..core.operations import Operation, OperationKind
from ..engine.interface import TransactionState
from ..engine.outcomes import ExecutionOutcome
from ..engine.programs import (
    Abort,
    Commit,
    ReadItem,
    TransactionProgram,
    WriteItem,
)
from ..locking.deadlock import Deadlock, WaitsForGraph
from ..locking.modes import LockDuration, LockMode
from ..locking.policy import POLICIES, policy_for
from ..storage.database import Database

__all__ = ["BatchStats", "TRANSITION_STATE_CAP", "build_batch_kernel"]

#: The kernel's step vocabulary: the four exact step types its tables express.
#: Any other step type (rows, predicates, cursors, or a subclass overriding
#: ``perform``) keeps the whole program set on the stepwise path.
_OP_READ, _OP_WRITE, _OP_COMMIT, _OP_ABORT = 0, 1, 2, 3
_OPCODES = {ReadItem: _OP_READ, WriteItem: _OP_WRITE, Commit: _OP_COMMIT,
            Abort: _OP_ABORT}
#: The history operation each op code realizes.
_KINDS = (OperationKind.READ, OperationKind.WRITE, OperationKind.COMMIT,
          OperationKind.ABORT)

#: Sentinel for "item absent from the database" — mirrors the undo log's
#: missing-item marker so before-image rollback can delete created items.
_ABSENT = object()

#: Sentinel for an empty state slot: no before-image taken, nothing buffered,
#: context name not bound yet.
_UNSET = object()

#: States one testbed's transition table admits before it stops growing.
#: Measured on the ledger's 30,000-schedule run (4 transactions over 2 hot
#: items, 32 slots per state): the four locking levels intern 9,609 states
#: (4,414 the largest table) with 24,607 stored transitions and 1,455 drains
#: in 6.7 MB of allocations, 5.9 MB of peak RSS — 0.7 KB per state, its key,
#: dict entry and 2.6 transition records included.  A full table is 23 MB at
#: that ratio; wider program sets have longer keys.
TRANSITION_STATE_CAP = 1 << 15


class BatchStats:
    """Cumulative work counters of one batch kernel (benchmarks / reports)."""

    __slots__ = ("schedules", "rows_fast", "rows_ejected", "slots_total",
                 "slots_executed", "checkpoints_created", "restores",
                 "transitions_reused", "transitions_computed", "states")

    def __init__(self) -> None:
        self.schedules = 0
        #: Rows fully executed on the flat kernel vs. ejected to the
        #: stepwise fallback.
        self.rows_fast = 0
        self.rows_ejected = 0
        self.slots_total = 0
        self.slots_executed = 0
        self.checkpoints_created = 0
        self.restores = 0
        #: Table lookups (one per slot, one per drain) answered from the
        #: transition table vs. run on the emulator, and the states interned.
        self.transitions_reused = 0
        self.transitions_computed = 0
        self.states = 0

    @property
    def occupancy(self) -> float:
        """Fraction of rows that stayed on the flat fast path."""
        if not self.schedules:
            return 1.0
        return self.rows_fast / self.schedules

    def as_dict(self) -> Dict[str, Any]:
        counters = {name: getattr(self, name) for name in self.__slots__}
        counters["occupancy"] = self.occupancy
        return counters


def _common_prefix(first: Sequence[int], second: Sequence[int]) -> int:
    limit = min(len(first), len(second))
    shared = 0
    while shared < limit and first[shared] == second[shared]:
        shared += 1
    return shared


def _sorted_order_and_lcps(schedules: Sequence[Sequence[int]],
                           sort: bool) -> Tuple[List[int], List[int]]:
    """DFS order of a batch plus each row's common prefix with its predecessor."""
    order = (sorted(range(len(schedules)), key=schedules.__getitem__) if sort
             else list(range(len(schedules))))
    lcps = [0] if order else []
    for before, after in zip(order, order[1:]):
        lcps.append(_common_prefix(schedules[before], schedules[after]))
    return order, lcps


def _intern_step_op(cache: Dict[Any, Operation], kind: OperationKind,
                    txn: int, item: str, value: Any,
                    version: Optional[int]) -> Operation:
    """Per-step operation interning: one small cache per read/write step."""
    key = (value, version)
    try:
        operation = cache.get(key)
    except TypeError:  # unhashable recorded value
        return Operation(kind, txn, item=item, value=value, version=version)
    if operation is None:
        operation = Operation(kind, txn, item=item, value=value, version=version)
        if len(cache) < 4096:
            cache[key] = operation
    return operation


class _FlatPrograms:
    """The per-transaction step tables every kernel dispatches on.

    Built straight from the step objects: item names are interned in first
    encounter order (programs in order, steps in order), and every read or
    write step gets its own operation-interning cache.
    """

    __slots__ = ("txns", "tindex", "opcodes", "items", "into", "values",
                 "calls", "totals", "commit_ops", "abort_ops", "op_caches",
                 "item_names", "max_attempts", "order")

    def __init__(self, programs: Sequence[TransactionProgram]):
        self.txns: List[int] = [program.txn for program in programs]
        self.order = list(range(len(self.txns)))
        self.tindex: Dict[int, int] = {txn: ti for ti, txn in enumerate(self.txns)}
        self.opcodes: List[Tuple[int, ...]] = []
        self.items: List[Tuple[int, ...]] = []
        self.into: List[Tuple[Optional[str], ...]] = []
        self.values: List[Tuple[Any, ...]] = []
        self.calls: List[Tuple[bool, ...]] = []
        self.totals: List[int] = []
        self.commit_ops: List[Operation] = []
        self.abort_ops: List[Operation] = []
        self.op_caches: List[Tuple[Dict[Any, Operation], ...]] = []
        ids: Dict[str, int] = {}
        for program in programs:
            opcodes: List[int] = []
            items: List[int] = []
            into: List[Optional[str]] = []
            values: List[Any] = []
            for step in program.steps:
                opcode = _OPCODES[type(step)]
                opcodes.append(opcode)
                items.append(ids.setdefault(step.item, len(ids))
                             if opcode in (_OP_READ, _OP_WRITE) else -1)
                into.append(step.into or step.item if opcode == _OP_READ else None)
                values.append(step.value if opcode == _OP_WRITE else None)
            self.opcodes.append(tuple(opcodes))
            self.items.append(tuple(items))
            self.into.append(tuple(into))
            self.values.append(tuple(values))
            self.calls.append(tuple(callable(value) for value in values))
            self.op_caches.append(tuple({} for _ in opcodes))
            self.totals.append(len(opcodes))
            self.commit_ops.append(Operation(OperationKind.COMMIT, program.txn))
            self.abort_ops.append(Operation(OperationKind.ABORT, program.txn))
        self.item_names: Tuple[str, ...] = tuple(ids)
        self.max_attempts = sum(self.totals) * 20 + 100


#: Lifecycle codes of the flat emulators (index into _STATES); an abort keeps
#: its cause, so the outcome's abort reasons are read off the final state.
_ACTIVE, _COMMITTED, _ABORTED, _VICTIM = 0, 1, 2, 3
_STATES = (TransactionState.ACTIVE, TransactionState.COMMITTED,
           TransactionState.ABORTED, TransactionState.ABORTED)
_ABORT_REASONS = {_ABORTED: "program abort", _VICTIM: "deadlock victim"}


class _FlatEmulator:
    """One engine + runner state as a flat list, behind its transition table.

    The state is one list (``T`` transactions, ``K`` items)::

        [0, K)      a-cells: item values (``_ABSENT`` for a missing item)
        [K, 2K)     b-cells: Share holder bitmask per item
        [2K, 3K)    Exclusive holder bitmask per item
        est, cnt    T each: lifecycle code, step counter
        wt          T: bitmask of the transactions this one waits for
        pv          one int: transactions whose parked blocked result still holds
        per         T*K: first before-image of (transaction, item), or _UNSET
        ctx         one slot per context name a transaction binds, or _UNSET

    (:class:`_ReadConsistencyFlat` reads the a-, b- and per-cells differently.)
    Waits-for masks, parked replays, deadlock resolution and the attempt
    budget mirror the runner line for line; the level's engine rules are the
    hooks a subclass supplies (``_read``, ``_write``, ``_commit``,
    ``_rollback``, ``_release_all``, ``_item_value``).  Where the lock manager bumps an item's
    version counter, ``_bump`` clears the ``pv`` bit of every transaction
    parked on that item — the only thing the counter is ever read for.

    ``tuple(state)`` is the state's key in the transition table (see the
    module docstring).  ``_sid`` is the current state's id, or -1 while the
    state cannot be interned (table full, unhashable value) and lives in
    ``_S`` only; ``_live`` names the state ``_S`` currently holds, so a run of
    misses along one path loads nothing.
    """

    #: Immutable configuration, plus the tables: append-only memos of pure
    #: functions of (state, transaction), valid whatever a restore rewinds.
    _checkpoint_stable = ("flat", "stats", "_txn_count", "_item_count",
                          "_est", "_cnt", "_wt", "_pv", "_per", "_steps",
                          "_ctx_names", "_ids", "_states", "_trans", "_drains")

    def __init__(self, flat: _FlatPrograms, a_cells: List[Any],
                 b_cells: List[Any]):
        self.flat = flat
        self.stats = BatchStats()
        txn_count = self._txn_count = len(flat.txns)
        item_count = self._item_count = len(flat.item_names)
        self._est = 3 * item_count
        self._cnt = self._est + txn_count
        self._wt = self._cnt + txn_count
        self._pv = self._wt + txn_count
        self._per = self._pv + 1
        slot = self._per + txn_count * item_count
        #: Per transaction: its steps as (opcode, item, value, call, context
        #: slot, kind, op cache), and its (context name, slot) pairs in
        #: binding order.
        self._steps: List[Tuple[Tuple[Any, ...], ...]] = []
        self._ctx_names: List[Tuple[Tuple[str, int], ...]] = []
        for ti in flat.order:
            names: Dict[str, int] = {}
            steps = []
            for j, opcode in enumerate(flat.opcodes[ti]):
                at = -1
                if opcode == _OP_READ:
                    at = names.setdefault(flat.into[ti][j], slot + len(names))
                steps.append((opcode, flat.items[ti][j], flat.values[ti][j],
                              flat.calls[ti][j], at, _KINDS[opcode],
                              flat.op_caches[ti][j]))
            self._steps.append(tuple(steps))
            self._ctx_names.append(tuple(names.items()))
            slot += len(names)
        self._S: List[Any] = (
            a_cells + b_cells + [0] * item_count
            + [_ACTIVE] * txn_count + [0] * (2 * txn_count + 1)
            + [_UNSET] * (slot - self._per))
        self._ids: Dict[Tuple[Any, ...], int] = {}
        self._states: List[Tuple[Any, ...]] = []
        #: (next state id, emitted ops, attempts made, blocked events,
        #: deadlocks) at ``state id * T + transaction index``, None until
        #: computed; a drain record carries the stall flag as a sixth field.
        self._trans: List[Optional[Tuple[Any, ...]]] = []
        self._drains: Dict[int, Tuple[Any, ...]] = {}
        self._sid = self._live = self._intern()
        self.ops: List[Operation] = []
        self.deadlocks: List[Deadlock] = []
        self.blocked_events = 0
        self.attempts = 0
        self.stalled = False

    # -- the transition table --------------------------------------------------------

    def _intern(self) -> int:
        """The id of the state ``_S`` holds, admitting it if the cap allows."""
        key = tuple(self._S)
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
            self._trans.extend([None] * self._txn_count)
            self.stats.states = sid + 1
        return sid

    def _load(self, sid: int) -> List[Any]:
        """``_S`` holding state ``sid`` (already does when ``sid`` is -1)."""
        if sid >= 0 and self._live != sid:
            self._S[:] = self._states[sid]
        # Until the step below names its successor, _S matches no state id.
        self._live = -1
        return self._S

    def _compute(self, sid: int, ti: int) -> Tuple[Any, ...]:
        """Run one attempt on the emulator; store it when both ends have ids."""
        self._load(sid)
        out: List[Operation] = []
        found: List[Deadlock] = []
        code = self._attempt(ti, out, found)
        self._live = successor = self._intern()
        record = (successor, tuple(out), 1 if code else 0,
                  1 if code == 2 else 0, tuple(found))
        if sid >= 0 and successor >= 0:
            self._trans[sid * self._txn_count + ti] = record
        self.stats.transitions_computed += 1
        return record

    def _compute_drain(self, sid: int) -> Tuple[Any, ...]:
        """Phase 2 from state ``sid`` on the emulator, mirroring the runner."""
        S = self._load(sid)
        est, cnt, wt, pv = self._est, self._cnt, self._wt, self._pv
        totals = self.flat.totals
        order = self.flat.order
        limit = self.flat.max_attempts
        attempts = start = self.attempts
        out: List[Operation] = []
        found: List[Deadlock] = []
        blocked = 0
        stalled = False
        while attempts < limit:
            active = [ti for ti in order
                      if not S[est + ti] and S[cnt + ti] < totals[ti]]
            if not active:
                break
            progressed = False
            for ti in active:
                if attempts >= limit:
                    break
                if S[pv] >> ti & 1:
                    continue
                code = self._attempt(ti, out, found)
                if code:
                    attempts += 1
                    if code == 2:
                        blocked += 1
                    if not S[wt + ti]:
                        progressed = True
            if not progressed and not self._resolve_deadlock(out, found):
                stalled = True
                break
        self._live = final = self._intern()
        record = (final, tuple(out), attempts - start, blocked, tuple(found),
                  stalled)
        # A drain that ran into the budget depends on where it started.
        if sid >= 0 and final >= 0 and attempts < limit:
            self._drains[sid] = record
        self.stats.transitions_computed += 1
        return record

    def _take(self, record: Tuple[Any, ...]) -> None:
        self._sid = record[0]
        self.ops += record[1]
        self.attempts += record[2]
        self.blocked_events += record[3]
        self.deadlocks += record[4]

    # -- one step of the emulator ----------------------------------------------------

    def _attempt(self, ti: int, out: List[Operation],
                 found: List[Deadlock]) -> int:
        """One runner attempt on ``_S``: 0 nothing to do, 1 ran, 2 blocked."""
        S = self._S
        if S[self._est + ti]:
            return 0
        j = S[self._cnt + ti]
        steps = self._steps[ti]
        if j >= len(steps):
            return 0
        opcode, k, value, call, into, kind, cache = steps[j]
        bit = 1 << ti
        version: Optional[int] = None
        blocked = 0
        # A parked blocked result that still holds is replayed: same blockers,
        # and the waits-for edge is already exact (a blocker leaving bumps
        # the item).
        replayed = S[self._pv] & bit
        if replayed:
            pass
        elif opcode == _OP_READ:
            blocked, value, version = self._read(S, ti, bit, k)
            if not blocked:
                S[into] = value
        elif opcode == _OP_WRITE:
            # The runner computes the (possibly callable) value before the
            # engine call, even for attempts that come back blocked.
            if call:
                value = value({name: S[slot] for name, slot in self._ctx_names[ti]
                               if S[slot] is not _UNSET})
            blocked = self._write(S, ti, bit, k, value)
        elif opcode == _OP_COMMIT:
            self._commit(S, ti)
            self._release_all(S, bit)
            S[self._est + ti] = _COMMITTED
        else:  # _OP_ABORT (program abort)
            self._rollback(S, ti)
            self._release_all(S, bit)
            S[self._est + ti] = _ABORTED
        if blocked:
            S[self._wt + ti] = blocked
            S[self._pv] |= bit
        if blocked or replayed:
            self._resolve_deadlock(out, found)
            return 2
        # No engine call in kernel scope ever returns ABORTED (commit always
        # succeeds under locking; aborts happen through deadlock resolution).
        S[self._wt + ti] = 0
        flat = self.flat
        if opcode == _OP_READ or opcode == _OP_WRITE:
            out.append(_intern_step_op(cache, kind, flat.txns[ti],
                                       flat.item_names[k], value, version))
        elif opcode == _OP_COMMIT:
            out.append(flat.commit_ops[ti])
        else:
            out.append(flat.abort_ops[ti])
        S[self._cnt + ti] = j + 1
        if opcode == _OP_COMMIT or opcode == _OP_ABORT or j + 1 >= len(steps):
            self._forget(S, ti)
        return 1

    def _bump(self, S: List[Any], k: int) -> None:
        """Item ``k``'s lock state moved: blocked results parked on it lapse."""
        parked = S[self._pv]
        if parked:
            cnt = self._cnt
            for ti, items in enumerate(self.flat.items):
                if parked >> ti & 1 and items[S[cnt + ti]] == k:
                    parked &= ~(1 << ti)
            S[self._pv] = parked

    def _clear_cells(self, S: List[Any], ti: int) -> None:
        """Empty the transaction's per-item cells (before-images / buffer)."""
        base = self._per + ti * self._item_count
        S[base:base + self._item_count] = [_UNSET] * self._item_count

    def _forget(self, S: List[Any], ti: int) -> None:
        """The waits-for graph's remove_transaction, on the masks."""
        keep = ~(1 << ti)
        wt = self._wt
        S[wt + ti] = 0
        for other in range(wt, wt + self._txn_count):
            S[other] &= keep
        S[self._pv] &= keep

    def _resolve_deadlock(self, out: List[Operation],
                          found: List[Deadlock]) -> bool:
        S = self._S
        masks = S[self._wt:self._pv]
        waiting = 0
        for ti, holders in enumerate(masks):
            if holders:
                waiting |= 1 << ti
        # Every edge on a cycle targets a transaction that itself waits.
        for holders in masks:
            if holders & waiting:
                break
        else:
            return False
        txns = self.flat.txns
        graph = WaitsForGraph()
        for ti, holders in enumerate(masks):
            if holders:
                graph.set_waits(txns[ti], [txn for other, txn in enumerate(txns)
                                           if holders >> other & 1])
        deadlock = graph.detect()
        if deadlock is None:
            return False
        found.append(deadlock)
        # A transaction in a cycle waits, so the victim is always active.
        victim = self.flat.tindex[deadlock.victim]
        self._rollback(S, victim)
        self._release_all(S, 1 << victim)
        S[self._est + victim] = _VICTIM
        out.append(self.flat.abort_ops[victim])
        self._forget(S, victim)
        return True

    # -- the runner's slot / drain protocol ------------------------------------------

    def apply_slots(self, slots: Sequence[int]) -> None:
        sid = self._sid
        attempts = self.attempts
        if sid < 0 or attempts + len(slots) >= self.flat.max_attempts:
            self._apply_checked(slots)
            return
        # Each slot makes at most one attempt, so the budget cannot run out
        # in here and the loop needs no check.
        trans = self._trans
        tindex = self.flat.tindex
        width = self._txn_count
        ops = self.ops
        blocked = self.blocked_events
        computed = self.stats.transitions_computed
        rest: List[int] = []
        walk = iter(slots)
        for txn in walk:
            ti = tindex[txn]
            record = trans[sid * width + ti]
            if record is None:
                record = self._compute(sid, ti)
                if record[0] < 0:
                    rest = list(walk)  # off the table: finish on the checked loop
            sid, emitted, made, waited, found = record
            ops += emitted
            attempts += made
            blocked += waited
            if found:
                self.deadlocks += found
        self._sid = sid
        self.attempts = attempts
        self.blocked_events = blocked
        # One lookup per slot walked here; the misses among them were counted
        # by _compute.
        self.stats.transitions_reused += (
            len(slots) - len(rest) + computed - self.stats.transitions_computed)
        if rest:
            self._apply_checked(rest)

    def _apply_checked(self, slots: Iterable[int]) -> None:
        """The slot loop with the budget check, on or off the table."""
        trans = self._trans
        tindex = self.flat.tindex
        limit = self.flat.max_attempts
        for txn in slots:
            if self.attempts >= limit:
                break
            ti = tindex[txn]
            sid = self._sid
            record = trans[sid * self._txn_count + ti] if sid >= 0 else None
            if record is None:
                record = self._compute(sid, ti)
            else:
                self.stats.transitions_reused += 1
            self._take(record)

    def drain(self) -> None:
        record = self._drains.get(self._sid)
        if (record is None
                or self.attempts + record[2] >= self.flat.max_attempts):
            record = self._compute_drain(self._sid)
        else:
            self.stats.transitions_reused += 1
        self._take(record)
        if record[5]:
            self.stalled = True

    # -- checkpoint / restore (trie discipline: backwards along one path) ---------

    def checkpoint(self) -> Tuple:
        sid = self._sid
        return (sid if sid >= 0 else tuple(self._S), len(self.ops),
                len(self.deadlocks), self.blocked_events, self.attempts)

    def restore(self, token: Tuple) -> None:
        state, ops_len, deadlocks_len, self.blocked_events, self.attempts = token
        if state.__class__ is int:
            self._sid = state
        else:
            self._S[:] = state
            self._sid = self._live = -1
        del self.ops[ops_len:]
        del self.deadlocks[deadlocks_len:]
        # Checkpoints are taken before the drain, the only place a row stalls.
        self.stalled = False

    # -- outcome ------------------------------------------------------------------

    def build_outcome(self, engine_name: str, database: Database) -> ExecutionOutcome:
        state = self._S if self._sid < 0 else self._states[self._sid]
        flat = self.flat
        for k, name in enumerate(flat.item_names):
            value = self._item_value(state, k)
            if value is _ABSENT:
                database.delete_item(name)
            else:
                database.set_item(name, value)
        txns = flat.txns
        codes = state[self._est:self._cnt]
        return ExecutionOutcome(
            engine_name=engine_name,
            history=History(self.ops, validate=False),
            statuses={txn: _STATES[code] for txn, code in zip(txns, codes)},
            contexts={txn: {name: state[slot] for name, slot in names
                            if state[slot] is not _UNSET}
                      for txn, names in zip(txns, self._ctx_names)},
            database=database,
            abort_reasons={txn: _ABORT_REASONS[code]
                           for txn, code in zip(txns, codes) if code > _COMMITTED},
            blocked_events=self.blocked_events,
            deadlocks=list(self.deadlocks),
            traces=[],
            stalled=self.stalled,
        )


class _LockingFlat(_FlatEmulator):
    """Flat emulator of LockingEngine for item-only programs.

    Per-item Share/Exclusive holder bitmasks reproduce the lock manager's
    arithmetic exactly (transient short locks net to zero, own-lock upgrades
    swap masks, release-all bumps per held item); the per-(transaction, item)
    cells hold the oldest before-image, which is all reverse undo restores.
    Cursor Stability's CURSOR read duration behaves as LONG here: item-only
    programs never move or close a cursor, and release-all drops every
    duration alike.
    """

    def __init__(self, flat: _FlatPrograms, level: IsolationLevelName,
                 seed: List[Any]):
        policy = policy_for(level)
        read_rule = policy.item_read
        #: (has_rule, transient) per action kind; reads are always Share,
        #: writes always Exclusive in Table 2.
        self._read_locked = read_rule is not None
        self._read_transient = (read_rule is not None
                                and read_rule.duration is LockDuration.SHORT)
        write_rule = policy.write
        self._write_transient = write_rule.duration is LockDuration.SHORT
        assert write_rule.mode is LockMode.EXCLUSIVE
        super().__init__(flat, list(seed), [0] * len(seed))

    def _read(self, S: List[Any], ti: int, bit: int,
              k: int) -> Tuple[int, Any, Optional[int]]:
        """(blockers, value, version) of a read of item ``k``."""
        if self._read_locked:
            share = S[self._item_count + k]
            held = share | S[2 * self._item_count + k]
            blocked = S[2 * self._item_count + k] & ~bit
            if blocked:
                return blocked, None, None
            if self._read_transient:
                # A SHORT grant plus release_short: net zero unless a lock
                # is already held (then the grant bumps the item).
                if held & bit:
                    self._bump(S, k)
            else:
                self._bump(S, k)
                if not held & bit:
                    S[self._item_count + k] = share | bit
        value = S[k]
        return 0, None if value is _ABSENT else value, None

    def _write(self, S: List[Any], ti: int, bit: int, k: int, value: Any) -> int:
        """Blockers of a write of item ``k``; 0 means it was applied."""
        share = S[self._item_count + k]
        exclusive = S[2 * self._item_count + k]
        blocked = (share | exclusive) & ~bit
        if blocked:
            return blocked
        own = (share | exclusive) & bit
        if own or not self._write_transient:
            self._bump(S, k)
        if share & bit:  # upgrade
            S[self._item_count + k] = share & ~bit
            S[2 * self._item_count + k] = exclusive | bit
        elif not own and not self._write_transient:
            S[2 * self._item_count + k] = exclusive | bit
        before = self._per + ti * self._item_count + k
        if S[before] is _UNSET:
            S[before] = S[k]
        S[k] = value
        return 0

    #: Writes are already in place: commit only drops the before-images.
    _commit = _FlatEmulator._clear_cells

    def _rollback(self, S: List[Any], ti: int) -> None:
        """Reverse undo: every written item back to its oldest before-image."""
        base = self._per + ti * self._item_count
        for k in range(self._item_count):
            if S[base + k] is not _UNSET:
                S[k] = S[base + k]
                S[base + k] = _UNSET

    def _release_all(self, S: List[Any], bit: int) -> None:
        for k in range(self._item_count):
            share = self._item_count + k
            exclusive = share + self._item_count
            if (S[share] | S[exclusive]) & bit:
                S[share] &= ~bit
                S[exclusive] &= ~bit
                self._bump(S, k)

    def _item_value(self, state: Sequence[Any], k: int) -> Any:
        return state[k]


class _ReadConsistencyFlat(_FlatEmulator):
    """Flat emulator of ReadConsistencyEngine: versioned reads, X write locks.

    The a- and b-cells hold each item's chain tip and chain length (there are
    no Share masks: reads never lock) and the per-(transaction, item) cells
    the write buffer.  Reads never block and report the newest committed
    chain version (every commit timestamp is <= the statement's clock
    reading, so the tip is always visible: value = tip, version = chain
    length - 1).  Writes take long Exclusive item locks through the same
    bitmask arithmetic as the locking emulator and buffer until commit, which
    installs the buffer (chain += 1, tip = value).
    """

    def __init__(self, flat: _FlatPrograms, seed: List[Any]):
        super().__init__(
            flat, [None if value is _ABSENT else value for value in seed],
            [0 if value is _ABSENT else 1 for value in seed])

    def _read(self, S: List[Any], ti: int, bit: int,
              k: int) -> Tuple[int, Any, Optional[int]]:
        buffered = S[self._per + ti * self._item_count + k]
        if buffered is not _UNSET:
            return 0, buffered, None
        chain = S[self._item_count + k]
        if chain:
            return 0, S[k], chain - 1
        return 0, None, None

    def _write(self, S: List[Any], ti: int, bit: int, k: int, value: Any) -> int:
        exclusive = S[2 * self._item_count + k]
        blocked = exclusive & ~bit
        if blocked:
            return blocked
        self._bump(S, k)
        S[2 * self._item_count + k] = exclusive | bit
        S[self._per + ti * self._item_count + k] = value
        return 0

    def _commit(self, S: List[Any], ti: int) -> None:
        base = self._per + ti * self._item_count
        for k in range(self._item_count):
            if S[base + k] is not _UNSET:
                S[self._item_count + k] += 1
                S[k] = S[base + k]
                S[base + k] = _UNSET

    #: Writes were buffered: abort discards the buffer, no undo needed.
    _rollback = _FlatEmulator._clear_cells

    def _release_all(self, S: List[Any], bit: int) -> None:
        for k in range(self._item_count):
            exclusive = 2 * self._item_count + k
            if S[exclusive] & bit:
                S[exclusive] &= ~bit
                self._bump(S, k)

    def _item_value(self, state: Sequence[Any], k: int) -> Any:
        return state[k] if state[self._item_count + k] else _ABSENT


class _EmulatorKernel:
    """DFS batch driver over one flat emulator, mirroring the trie executor.

    Schedules are walked in sorted order and each row restores the deepest
    shared emulator checkpoint before applying only its divergent suffix —
    the same one-lookahead branch-point discipline as
    :meth:`repro.explorer.trie_executor.TrieExecutor.run_batch`.
    """

    def __init__(self, emulator: _FlatEmulator, database: Database,
                 engine_name: str,
                 fallback: Optional[Callable[..., ExecutionOutcome]] = None):
        self.stats = emulator.stats
        self.engine_name = engine_name
        self._database = database
        self._known = frozenset(emulator.flat.txns)
        self._emulator = emulator
        self.fallback = fallback
        self._stack: List[Tuple[int, Tuple]] = [(0, emulator.checkpoint())]
        self.stats.checkpoints_created += 1
        self._previous: Optional[Sequence[int]] = None

    def run_one(self, schedule: Sequence[int],
                shared: Optional[int] = None,
                prepare: Optional[int] = None) -> ExecutionOutcome:
        """Execute one schedule from the deepest checkpoint it shares.

        ``shared`` is the known common-prefix length with the previously
        executed schedule (computed once per batch by :meth:`run_batch`);
        ``prepare`` the branch point of the schedule that will run next,
        where the single lookahead checkpoint goes.
        """
        if not self._known.issuperset(schedule):
            # Slots referencing transactions outside the step tables take
            # the stepwise path (the runner treats them as no-ops; ejecting
            # keeps the kernel's tables closed over the program set).
            if self.fallback is None:
                raise ValueError(
                    "schedule references transactions outside the program set"
                    " and no stepwise fallback is attached")
            self.stats.schedules += 1
            self.stats.rows_ejected += 1
            self.stats.slots_total += len(schedule)
            return self.fallback(schedule)
        emulator = self._emulator
        if shared is None:
            shared = (_common_prefix(self._previous, schedule)
                      if self._previous is not None else 0)
        stack = self._stack
        while stack[-1][0] > shared:
            stack.pop()
        depth, token = stack[-1]
        emulator.restore(token)
        self.stats.restores += 1
        total = len(schedule)
        if prepare is not None and depth < prepare < total:
            emulator.apply_slots(schedule[depth:prepare])
            stack.append((prepare, emulator.checkpoint()))
            self.stats.checkpoints_created += 1
            emulator.apply_slots(schedule[prepare:total])
        else:
            emulator.apply_slots(schedule[depth:total])
        emulator.drain()
        self.stats.schedules += 1
        self.stats.rows_fast += 1
        self.stats.slots_total += total
        self.stats.slots_executed += total - depth
        self._previous = schedule
        return emulator.build_outcome(self.engine_name, self._database)

    def run_batch(self, schedules: Sequence[Sequence[int]],
                  sort: bool = True) -> Iterator[Tuple[int, ExecutionOutcome]]:
        """Execute a batch, yielding ``(original_index, outcome)`` pairs."""
        order, lcps = _sorted_order_and_lcps(schedules, sort)
        count = len(order)
        for position, index in enumerate(order):
            schedule = schedules[index]
            # The first row of a batch may still share a prefix with the last
            # row of the previous batch (the executor persists across chunks).
            shared = lcps[position] if position else None
            prepare = lcps[position + 1] if position + 1 < count else None
            yield index, self.run_one(schedule, shared, prepare)


class _SnapshotKernel:
    """Batch kernel for Snapshot Isolation: static streams + a commit fold.

    With every transaction beginning before any slot runs, all snapshots read
    timestamp 0: a transaction's reads, writes, contexts, and realized
    operations are a pure function of its own program prefix and the seed
    database — computed once per program set.  What a schedule decides is
    only the interleaving of those per-transaction streams and which commits
    First-Committer-Wins aborts, folded per row over an installed-items
    bitmask in event order.  No blocking, no deadlocks, no checkpoints.
    """

    def __init__(self, flat: _FlatPrograms, seed: List[Any],
                 database: Database, engine_name: str,
                 fallback: Optional[Callable[..., ExecutionOutcome]] = None):
        self.stats = BatchStats()
        self.engine_name = engine_name
        self.fallback = fallback
        self._database = database
        self._flat = flat
        self._seed = seed
        self._known = frozenset(flat.txns)
        txn_count = len(flat.txns)
        #: Per-transaction static stream: realized ops per step (None at the
        #: terminal step — commit vs abort is decided per row), effective
        #: length, terminal kind, final context, write buffer, write bitmask.
        self._pre_ops: List[List[Optional[Operation]]] = []
        self._eff: List[int] = []
        self._terminal: List[int] = []  # 0 none, 1 commit, 2 abort
        self._ctx: List[Dict[str, Any]] = []
        self._buf: List[Dict[int, Any]] = []
        self._wmask: List[int] = []
        for ti in range(txn_count):
            txn = flat.txns[ti]
            ctx: Dict[str, Any] = {}
            buf: Dict[int, Any] = {}
            pre_ops: List[Optional[Operation]] = []
            terminal = 0
            eff = flat.totals[ti]
            for j in range(flat.totals[ti]):
                opcode = flat.opcodes[ti][j]
                if opcode == _OP_READ:
                    k = flat.items[ti][j]
                    version: Optional[int] = None
                    if k in buf:
                        value = buf[k]
                    elif seed[k] is not _ABSENT:
                        value = seed[k]
                        version = 0
                    else:
                        value = None
                    pre_ops.append(_intern_step_op(
                        flat.op_caches[ti][j], OperationKind.READ, txn,
                        flat.item_names[k], value, version))
                    ctx[flat.into[ti][j]] = value
                elif opcode == _OP_WRITE:
                    value = flat.values[ti][j]
                    if flat.calls[ti][j]:
                        value = value(ctx)
                    k = flat.items[ti][j]
                    buf[k] = value
                    pre_ops.append(_intern_step_op(
                        flat.op_caches[ti][j], OperationKind.WRITE, txn,
                        flat.item_names[k], value, None))
                else:
                    terminal = 1 if opcode == _OP_COMMIT else 2
                    eff = j + 1
                    pre_ops.append(None)
                    break
            self._pre_ops.append(pre_ops)
            self._eff.append(eff)
            self._terminal.append(terminal)
            self._ctx.append(ctx)
            self._buf.append(buf)
            wmask = 0
            for k in buf:
                wmask |= 1 << k
            self._wmask.append(wmask)

    def _run_row(self, schedule: Sequence[int]) -> ExecutionOutcome:
        flat = self._flat
        order = flat.order
        tindex = flat.tindex
        eff = self._eff
        terminal = self._terminal
        pre_ops = self._pre_ops
        counters = [0] * len(order)
        finished = [False] * len(order)
        est = [_ACTIVE] * len(order)
        installed = 0
        ops: List[Operation] = []
        abort_reasons: Dict[int, str] = {}
        db = list(self._seed)

        def event(ti: int) -> None:
            j = counters[ti]
            counters[ti] = j + 1
            if j == eff[ti] - 1 and terminal[ti]:
                txn = flat.txns[ti]
                if terminal[ti] == 1:
                    conflict = self._wmask[ti] & installed
                    if conflict:
                        for k in self._buf[ti]:  # write-set insertion order
                            if installed >> k & 1:
                                name = flat.item_names[k]
                                break
                        reason = (f"first-committer-wins: {name} was committed"
                                  f" by another transaction after this"
                                  f" transaction's snapshot")
                        ops.append(flat.abort_ops[ti])
                        est[ti] = _ABORTED
                        abort_reasons[txn] = reason
                    else:
                        ops.append(flat.commit_ops[ti])
                        est[ti] = _COMMITTED
                        nonlocal_install(ti)
                else:
                    ops.append(flat.abort_ops[ti])
                    est[ti] = _ABORTED
                    abort_reasons.setdefault(txn, "program abort")
                finished[ti] = True
            else:
                ops.append(pre_ops[ti][j])
                if counters[ti] >= eff[ti]:
                    finished[ti] = True

        def nonlocal_install(ti: int) -> None:
            nonlocal installed
            installed |= self._wmask[ti]
            for k, value in self._buf[ti].items():
                db[k] = value

        for txn in schedule:
            ti = tindex.get(txn)
            if ti is None or finished[ti] or counters[ti] >= eff[ti]:
                continue
            event(ti)
        while True:
            active = [ti for ti in order
                      if not finished[ti] and counters[ti] < eff[ti]]
            if not active:
                break
            for ti in active:
                event(ti)

        database = self._database
        for k, name in enumerate(flat.item_names):
            value = db[k]
            if value is _ABSENT:
                database.delete_item(name)
            else:
                database.set_item(name, value)
        return ExecutionOutcome(
            engine_name=self.engine_name,
            history=History(ops, validate=False),
            statuses={flat.txns[ti]: _STATES[est[ti]] for ti in order},
            contexts={flat.txns[ti]: dict(self._ctx[ti]) for ti in order},
            database=database,
            abort_reasons=abort_reasons,
            blocked_events=0,
            deadlocks=[],
            traces=[],
            stalled=False,
        )

    def run_one(self, schedule: Sequence[int],
                shared: Optional[int] = None,
                prepare: Optional[int] = None) -> ExecutionOutcome:
        if not self._known.issuperset(schedule):
            if self.fallback is None:
                raise ValueError(
                    "schedule references transactions outside the program set"
                    " and no stepwise fallback is attached")
            self.stats.schedules += 1
            self.stats.rows_ejected += 1
            self.stats.slots_total += len(schedule)
            return self.fallback(schedule)
        self.stats.schedules += 1
        self.stats.rows_fast += 1
        self.stats.slots_total += len(schedule)
        self.stats.slots_executed += len(schedule)
        return self._run_row(schedule)

    def run_batch(self, schedules: Sequence[Sequence[int]],
                  sort: bool = True) -> Iterator[Tuple[int, ExecutionOutcome]]:
        """Execute a batch, yielding ``(original_index, outcome)`` pairs."""
        order, _ = _sorted_order_and_lcps(schedules, sort)
        for index in order:
            yield index, self.run_one(schedules[index])


def build_batch_kernel(database: Database,
                       programs: Sequence[TransactionProgram],
                       level: IsolationLevelName,
                       engine_name: str,
                       engine_options: Optional[Dict[str, Any]] = None,
                       fallback: Optional[Callable[..., ExecutionOutcome]] = None):
    """A batch kernel for one testbed, or None when the fast path can't apply.

    Returns None — callers then keep the stepwise trie path — when any
    program holds a step that is not exactly a ``ReadItem``, ``WriteItem``,
    ``Commit`` or ``Abort`` (rows, predicates, cursors, subclasses), when the
    engine was built with non-default options (e.g. the First-Committer-Wins
    ablation), or when the level has no flat emulation.  ``fallback``
    (typically ``TrieExecutor.run_one``) handles per-row ejection for
    schedules the kernel declines at runtime.
    """
    if engine_options or not programs:
        return None
    if any(type(step) not in _OPCODES
           for program in programs for step in program.steps):
        return None
    flat = _FlatPrograms(programs)
    seed = [database.get_item(name, _ABSENT) for name in flat.item_names]
    if level in POLICIES:
        return _EmulatorKernel(_LockingFlat(flat, level, seed), database,
                               engine_name, fallback)
    if level is IsolationLevelName.ORACLE_READ_CONSISTENCY:
        return _EmulatorKernel(_ReadConsistencyFlat(flat, seed), database,
                               engine_name, fallback)
    if level is IsolationLevelName.SNAPSHOT_ISOLATION:
        return _SnapshotKernel(flat, seed, database, engine_name, fallback)
    return None
