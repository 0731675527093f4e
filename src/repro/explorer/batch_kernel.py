"""The batch kernel: flat emulators behind the transition table.

The trie executor replays schedules through full engine objects — lock lists,
undo logs, OpResult values, deep checkpoint tokens — behind the transition
table of :mod:`repro.explorer.transition_table`, so a real engine runs only
the transitions no earlier schedule of its testbed took.  For the program
shapes the explorer actually enumerates (``ReadItem`` / ``WriteItem`` /
``Commit`` / ``Abort`` steps, flattened into per-transaction int tables by
:class:`_FlatPrograms`), every engine rule the runner can observe is also a
small arithmetic fact over per-item holder bitmasks, and this module puts
that cheaper machine behind the *same* table:

* **The emulators** (:class:`_LockingFlat`, :class:`_ReadConsistencyFlat`)
  keep the whole engine + runner state in one flat list and know how to take
  a single step (``_attempt``) or a phase-2 drain from it.  They are
  :class:`~repro.explorer.transition_table.TableWalk` machines: interning,
  the record shape, the budget-checked slot loop, the cap and the DFS walk
  are the table's, shared with the real-engine path; a miss here costs one
  emulator step instead of a runner sync plus an engine call.
  ``tuple(state list)`` *is* the key; a checkpoint is ``(state id, output
  lengths)``, and the outcome's statuses, contexts, abort reasons and
  database items are read off the final state.  On the ledger's
  30,000-schedule sample 94% of all attempts are answers the table already
  holds.
* :class:`_SnapshotKernel` needs no table: under Snapshot Isolation every
  transaction's stream is static and a row is one fold over commit order.
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
on it).  Outputs travel as record deltas (see the table's module docstring),
and the real engines' ``state_key()`` leaves out the same things for the same
reasons.

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
from .transition_table import TableWalk, slot_record, sorted_order_and_lcps

__all__ = ["BatchStats", "build_batch_kernel"]

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


class _FlatEmulator(TableWalk):
    """One engine + runner state as a flat list, behind the transition table.

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

    ``tuple(state)`` is the state's key in the transition table (see
    :mod:`repro.explorer.transition_table`, which also walks the batch).
    A state that cannot be interned (table full, unhashable value) lives in
    ``_S`` only; ``_live`` names the state ``_S`` currently holds, so a run
    of misses along one path loads nothing.
    """

    def __init__(self, flat: _FlatPrograms, a_cells: List[Any],
                 b_cells: List[Any], database: Database, engine_name: str,
                 fallback: Optional[Callable[..., ExecutionOutcome]] = None):
        super().__init__(flat.txns, flat.max_attempts, BatchStats())
        self.flat = flat
        self.engine_name = engine_name
        self.fallback = fallback
        self._database = database
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
        self._live = -1
        self._open(tuple(self._S))
        self._live = self._sid
        self.stats.checkpoints_created += 1

    # -- the machine behind the table --------------------------------------------------

    def _load(self, sid: int) -> List[Any]:
        """``_S`` holding state ``sid`` (already does when ``sid`` is -1)."""
        if sid >= 0 and self._live != sid:
            self._S[:] = self._states[sid]
        # Until the step below names its successor, _S matches no state id.
        self._live = -1
        return self._S

    def _step(self, sid: int, ti: int, position: int) -> Tuple[Any, ...]:
        """Run one attempt on the emulator."""
        self._load(sid)
        out: List[Operation] = []
        found: List[Deadlock] = []
        code = self._attempt(ti, out, found)
        self._live = successor = self._intern(tuple(self._S))
        return slot_record(successor, tuple(out), 1 if code else 0,
                           1 if code == 2 else 0, tuple(found))

    def _drain_step(self, sid: int) -> Tuple[Any, ...]:
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
        self._live = final = self._intern(tuple(S))
        # Abort reasons are read off the final state's lifecycle codes, so
        # the records carry none; the outcome reads the final state itself.
        return slot_record(final, tuple(out), attempts - start, blocked,
                           tuple(found)) + (stalled, None)

    def _hold(self) -> Tuple[Any, ...]:
        return tuple(self._S)

    def _resume(self, held: Tuple[Any, ...]) -> None:
        self._S[:] = held
        self._live = -1

    def _enter_row(self, schedule: Sequence[int], depth: int, shared: int,
                   prepare: Optional[int]) -> None:
        total = len(schedule)
        stats = self.stats
        stats.restores += 1
        stats.rows_fast += 1
        stats.slots_executed += total - depth
        if prepare is not None and depth < prepare < total:
            stats.checkpoints_created += 1

    def _foreign(self, schedule: Sequence[int]) -> ExecutionOutcome:
        # Slots referencing transactions outside the step tables take the
        # real engines (the runner treats them as no-ops; ejecting keeps
        # the kernel's tables closed over the program set).
        if self.fallback is None:
            raise ValueError(
                "schedule references transactions outside the program set"
                " and no stepwise fallback is attached")
        self.stats.schedules += 1
        self.stats.rows_ejected += 1
        self.stats.slots_total += len(schedule)
        return self.fallback(schedule)

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

    # -- outcome ------------------------------------------------------------------

    def build_outcome(self) -> ExecutionOutcome:
        state = self._S if self._sid < 0 else self._states[self._sid]
        database = self._database
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
            engine_name=self.engine_name,
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
                 seed: List[Any], database: Database, engine_name: str,
                 fallback: Optional[Callable[..., ExecutionOutcome]] = None):
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
        super().__init__(flat, list(seed), [0] * len(seed), database,
                         engine_name, fallback)

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

    def __init__(self, flat: _FlatPrograms, seed: List[Any], database: Database,
                 engine_name: str,
                 fallback: Optional[Callable[..., ExecutionOutcome]] = None):
        super().__init__(
            flat, [None if value is _ABSENT else value for value in seed],
            [0 if value is _ABSENT else 1 for value in seed], database,
            engine_name, fallback)

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
        order, _ = sorted_order_and_lcps(schedules, sort)
        for index in order:
            yield index, self.run_one(schedules[index])


def build_batch_kernel(database: Database,
                       programs: Sequence[TransactionProgram],
                       level: IsolationLevelName,
                       engine_name: str,
                       engine_options: Optional[Dict[str, Any]] = None,
                       fallback: Optional[Callable[..., ExecutionOutcome]] = None):
    """A batch kernel for one testbed, or None when the fast path can't apply.

    Returns None — callers then keep the real engines — when any
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
        return _LockingFlat(flat, level, seed, database, engine_name, fallback)
    if level is IsolationLevelName.ORACLE_READ_CONSISTENCY:
        return _ReadConsistencyFlat(flat, seed, database, engine_name,
                                    fallback)
    if level is IsolationLevelName.SNAPSHOT_ISOLATION:
        return _SnapshotKernel(flat, seed, database, engine_name, fallback)
    return None
