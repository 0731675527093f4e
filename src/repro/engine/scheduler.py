"""The schedule runner: deterministic interleaved execution of transaction programs.

The runner is the reproduction's stand-in for "several clients hitting the
database at once".  It takes an engine, a set of
:class:`~repro.engine.programs.TransactionProgram` objects, and an optional
*interleaving* — a sequence of transaction ids saying whose step should be
attempted next — and drives every program to completion:

* A step whose engine call returns OK advances that program's program counter
  and is recorded into the realized history.
* A BLOCKED step leaves the program counter where it is; the blocking
  transactions are recorded in the waits-for graph and the step is retried the
  next time the transaction is scheduled.
* Deadlocks are detected on the waits-for graph after every blocked attempt;
  the victim is aborted through the engine and its remaining steps are skipped.
* An ABORTED result (engine-initiated: first-committer-wins failure, cursor
  conflict, deadlock victim) terminates that program immediately.

After the explicit interleaving is exhausted, remaining steps are drained
round-robin, so an interleaving only needs to pin down the order of the
*interesting* prefix of the schedule.

Every attempt dispatches through ``Step.perform`` into the engine's public
methods, so this runner is the source of truth every faster path is held to:
the trie executor (:mod:`repro.explorer.trie_executor`) drives it from
checkpoints, and the batch kernel (:mod:`repro.explorer.batch_kernel`) is
gated byte-equal against it.  The kernel takes only item-only programs at a
locking level or Snapshot Isolation; every other program set and level,
Oracle Read Consistency included, runs on this runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.history import History
from ..core.operations import Operation, OperationKind
from ..locking.deadlock import Deadlock, WaitsForGraph
from ..storage.rows import freeze
from .interface import (
    Engine,
    OpResult,
    OpStatus,
    TransactionState,
)
from .outcomes import ExecutionOutcome, StepTrace
from .programs import (
    Abort,
    Commit,
    CursorUpdate,
    DeleteRow,
    Fetch,
    InsertRow,
    ReadItem,
    SelectPredicate,
    Step,
    TransactionProgram,
    UpdateRow,
    WriteItem,
)

__all__ = ["ScheduleRunner", "RunnerCheckpoint", "run_schedule"]


class _ProgramState:
    """The runner's bookkeeping for one program (slotted: hot-path attribute access)."""

    __slots__ = ("program", "steps", "total", "counter", "finished", "context",
                 "parked")

    def __init__(self, program: TransactionProgram):
        self.program = program
        self.steps = program.steps
        self.total = len(program.steps)
        self.counter = 0
        self.finished = False
        self.context: Dict[str, Any] = {}
        #: (step counter, blocking version, result, item) of the last blocked
        #: attempt — the runner's blocked-result memo, stored on the state
        #: slot so the hot path skips a dict lookup per attempt.  The version
        #: is per-item (``blocking_version_for(item)``) when the blocked step
        #: names an item, so parked attempts survive unrelated lock traffic;
        #: ``item`` is None for non-item steps, falling back to the global
        #: blocking version.
        self.parked: Optional[Tuple[int, int, OpResult, Optional[str]]] = None

    @property
    def txn(self) -> int:
        return self.program.txn

    @property
    def exhausted(self) -> bool:
        return self.counter >= self.total


@dataclass(frozen=True)
class RunnerCheckpoint:
    """A value token of a :class:`ScheduleRunner` mid-run, engine included.

    Captured by :meth:`ScheduleRunner.checkpoint` after some prefix of slots
    has been applied; :meth:`ScheduleRunner.restore` rolls the runner (and its
    engine, and the engine's database) back to exactly that point.  Append-only
    structures (operations, traces, deadlocks) are restored by truncation, so a
    token is only valid for rolling *backwards* along the same execution path —
    the trie executor's DFS discipline.
    """

    engine_token: Any
    program_states: Tuple[Tuple[int, int, bool], ...]  # (txn, counter, finished)
    contexts: Tuple[Tuple[int, Dict[str, Any]], ...]
    waits_token: Any
    operations_len: int
    traces_len: int
    deadlocks_len: int
    blocked_events: int
    abort_reasons: Tuple[Tuple[int, str], ...]
    attempts: int
    stalled: bool
    waits_maybe_cyclic: bool
    terminal_recorded: FrozenSet[int] = frozenset()
    blocked_memo: Tuple[Tuple[int, Tuple[int, int, OpResult, Optional[str]]], ...] = ()


class ScheduleRunner:
    """Drives a set of programs through an engine under a chosen interleaving."""

    #: Deliberately outside the checkpoint token (see repolint's
    #: checkpoint-completeness check): the programs, their order, and the
    #: attempt budget are per-runner configuration; the operation-interning
    #: cache memoizes a pure function, so a stale entry can never change a
    #: realized operation.
    _checkpoint_stable = ("_programs", "_order", "_max_attempts",
                          "_collect_traces", "_op_cache")

    #: Left out of :meth:`state_key`, with why no later step can tell.  The
    #: outputs travel as per-transition deltas in the trie executor's
    #: transition table instead (:meth:`output_mark`, :meth:`outputs_since`).
    _state_key_derivable = (
        ("_operations", "an output"),
        ("_traces", "an output"),
        ("_deadlocks", "an output"),
        ("_blocked_events", "an output"),
        ("_abort_reasons", "an output"),
        ("_stalled", "an output of drain(), false before it"),
        ("_attempts", "an output, except against the attempt budget, which "
                      "the transition table checks before reusing a record"),
        ("_waits_maybe_cyclic", "only decides whether detect() runs, and is "
                                "true whenever the waits-for graph has a "
                                "cycle; on an acyclic graph detect() finds "
                                "nothing either way"),
        ("_terminal_recorded", "the finished transactions whose commit or "
                               "abort is recorded; only unfinished ones are "
                               "ever aborted again"),
    )

    def __init__(self, engine: Engine, programs: Sequence[TransactionProgram],
                 interleaving: Optional[Sequence[int]] = None,
                 max_attempts: Optional[int] = None,
                 collect_traces: bool = True):
        if not programs:
            raise ValueError("at least one transaction program is required")
        txns = [program.txn for program in programs]
        if len(set(txns)) != len(txns):
            raise ValueError("transaction identifiers must be unique")
        self.engine = engine
        self._programs = list(programs)
        self._order = list(txns)
        total_steps = sum(len(program) for program in programs)
        self._max_attempts = max_attempts or (total_steps * 20 + 100)
        #: The schedule explorer turns traces off: records never consult them,
        #: and skipping a StepTrace per attempt is measurable on the hot path.
        self._collect_traces = collect_traces
        #: Interned realized operations, shared across runs of this runner:
        #: replaying thousands of schedules of the same programs realizes the
        #: same (kind, txn, item, value, version) operations over and over,
        #: and reusing the instances also reuses their cached hashes.
        #: Survives reset()/restore() — interning is pure.  Keyed by kind
        #: first so the per-call tuple key avoids hashing the enum.
        self._op_cache: Dict[OperationKind, Dict[Tuple, Operation]] = {}
        self._reset_state(interleaving)

    def _reset_state(self, interleaving: Optional[Sequence[int]]) -> None:
        """(Re)initialize all per-run bookkeeping."""
        self._states = {
            program.txn: _ProgramState(program) for program in self._programs
        }
        self._interleaving = list(interleaving) if interleaving is not None else []
        self._waits = WaitsForGraph()
        self._operations: List[Operation] = []
        self._traces: List[StepTrace] = []
        self._blocked_events = 0
        self._deadlocks: List[Deadlock] = []
        self._abort_reasons: Dict[int, str] = {}
        self._attempts = 0
        self._stalled = False
        self._begun = False
        #: Transactions whose terminal operation is already in _operations.
        self._terminal_recorded: set = set()
        #: True while a broken deadlock may have left another cycle behind;
        #: while False the waits-for graph is provably acyclic and detection
        #: can be skipped for blocked attempts whose blockers are all running.
        self._waits_maybe_cyclic = False

    # -- public API -----------------------------------------------------------------

    @property
    def max_attempts(self) -> int:
        """The attempt budget: slots and drain rounds stop once it is spent."""
        return self._max_attempts

    def reset(self, engine: Optional[Engine] = None,
              interleaving: Optional[Sequence[int]] = None) -> "ScheduleRunner":
        """Re-arm the runner for another run, skipping program re-validation.

        The from-scratch reference the trie executor is gated against
        replays one program set under many interleavings; ``reset`` swaps in
        a fresh engine and the next interleaving without rebuilding program
        state dictionaries from scratch.  Returns ``self`` for chaining.
        """
        if engine is not None:
            self.engine = engine
        self._reset_state(interleaving)
        return self

    def replay(self, engine: Engine,
               interleaving: Optional[Sequence[int]] = None) -> ExecutionOutcome:
        """Reset against a fresh engine and run one more interleaving."""
        return self.reset(engine, interleaving).run()

    def run(self) -> ExecutionOutcome:
        """Execute every program to completion and return the outcome."""
        self.begin_all()
        # Phase 1: the explicit interleaving.
        for txn in self._interleaving:
            if self._attempts >= self._max_attempts:
                break
            self.apply_slot(txn)
        return self.drain()

    # -- stepwise API (the trie executor's entry points) ------------------------------------

    def begin_all(self) -> None:
        """Register every program's transaction with the engine (idempotent)."""
        if self._begun:
            return
        for state in self._states.values():
            self.engine.begin(state.txn)
        self._begun = True

    def apply_slot(self, txn: int) -> int:
        """Apply one interleaving slot (one attempt of ``txn``'s next step).

        Returns 1 when an engine call was made, 0 when the transaction had
        nothing left to do.  Equivalent to one iteration of :meth:`run`'s
        phase-1 loop; callers driving slots directly must call
        :meth:`begin_all` first and :meth:`drain` afterwards.
        """
        if self._attempts >= self._max_attempts:
            return 0
        made = self._attempt(txn)
        self._attempts += made
        return made

    def apply_many(self, txns: Sequence[int]) -> None:
        """Apply a run of interleaving slots (one :meth:`apply_slot` each).

        The trie executor applies whole divergent suffixes at once; hoisting
        the per-slot wrapper out of that loop is measurable at explorer scale.
        """
        attempt = self._attempt
        attempts = self._attempts
        limit = self._max_attempts
        for txn in txns:
            if attempts >= limit:
                break
            attempts += attempt(txn)
        self._attempts = attempts

    def drain(self) -> ExecutionOutcome:
        """Phase 2: drain remaining work round-robin until done or stuck.

        Retries are *version-gated*: a transaction whose last attempt came
        back blocked is only re-attempted once the engine's blocking state
        *for the blocked item* has changed (a lock on that item was granted,
        strengthened, or released) — an unchanged per-item version makes the
        retry a provable no-op, so skipping it leaves the realized history,
        statuses, and deadlocks untouched and only stops inflating
        ``blocked_events`` with futile submissions; unrelated lock traffic no
        longer wakes parked attempts.  Deadlocks formed while every blocked
        transaction is parked are still caught: the no-progress branch below
        runs full detection, and breaking a victim releases its locks, which
        bumps its items' versions and wakes the transactions it blocked.
        """
        states = self._states
        attempt = self._attempt
        blocking_version_for = self.engine.blocking_version_for
        while self._attempts < self._max_attempts:
            # Attempting only unfinished transactions, in schedule order, makes
            # exactly the same effectful attempts as iterating the full order
            # (an _attempt on a finished transaction is a guaranteed no-op).
            active = [txn for txn in self._order
                      if not states[txn].finished
                      and states[txn].counter < states[txn].total]
            if not active:
                break
            progressed = False
            for txn in active:
                if self._attempts >= self._max_attempts:
                    break
                state = states[txn]
                parked = state.parked
                if (parked is not None
                        and parked[0] == state.counter
                        and parked[1] == blocking_version_for(parked[3])):
                    continue
                made = attempt(txn)
                self._attempts += made
                if made and not self._is_blocked_state(txn):
                    progressed = True
            if not progressed:
                if not self._resolve_deadlock():
                    # No progress and no cycle: whether transactions were
                    # re-attempted or parked on an unchanged lock table,
                    # nothing can ever wake them.
                    self._stalled = True
                    break
        return self._build_outcome()

    # -- checkpoint / restore ----------------------------------------------------------------

    def checkpoint(self) -> RunnerCheckpoint:
        """Capture runner + engine state after the slots applied so far."""
        return RunnerCheckpoint(
            engine_token=self.engine.checkpoint(),
            program_states=tuple(
                (txn, state.counter, state.finished)
                for txn, state in self._states.items()
            ),
            contexts=tuple(
                (txn, dict(state.context)) for txn, state in self._states.items()
            ),
            waits_token=self._waits.checkpoint(),
            operations_len=len(self._operations),
            traces_len=len(self._traces),
            deadlocks_len=len(self._deadlocks),
            blocked_events=self._blocked_events,
            abort_reasons=tuple(self._abort_reasons.items()),
            attempts=self._attempts,
            stalled=self._stalled,
            waits_maybe_cyclic=self._waits_maybe_cyclic,
            terminal_recorded=frozenset(self._terminal_recorded),
            blocked_memo=tuple(
                (txn, state.parked) for txn, state in self._states.items()
                if state.parked is not None
            ),
        )

    def restore(self, token: RunnerCheckpoint) -> None:
        """Roll runner + engine back to a checkpoint on the current run's path."""
        self.engine.restore(token.engine_token)
        for txn, counter, finished in token.program_states:
            state = self._states[txn]
            state.counter = counter
            state.finished = finished
        for txn, context in token.contexts:
            self._states[txn].context = dict(context)
        self._waits.restore(token.waits_token)
        del self._operations[token.operations_len:]
        del self._traces[token.traces_len:]
        del self._deadlocks[token.deadlocks_len:]
        self._blocked_events = token.blocked_events
        self._abort_reasons = dict(token.abort_reasons)
        self._attempts = token.attempts
        self._stalled = token.stalled
        self._waits_maybe_cyclic = token.waits_maybe_cyclic
        self._terminal_recorded = set(token.terminal_recorded)
        # The memo is observable state — whether a drain retry is parked or
        # re-submitted shows up in blocked_events — so it round-trips exactly,
        # together with the engine-side version counter it is keyed on.
        for state in self._states.values():
            state.parked = None
        for txn, parked in token.blocked_memo:
            self._states[txn].parked = parked

    # -- state keys and output deltas (the transition table's view) ----------------------

    def state_key(self) -> Tuple:
        """A canonical, hashable value of everything that steers a later slot.

        Per program: step counter, finished flag, context bindings (see
        :func:`~repro.storage.rows.freeze`) and one fact about the parked
        blocked-result memo — whether it still holds, i.e. whether the lock
        state of the item it waits on has not moved since it parked.  The
        engine's :meth:`~repro.engine.interface.Engine.state_key` and the
        waits-for graph complete it.  Outputs are left out (see
        ``_state_key_derivable``): two prefixes that differ only in what they
        emitted reach one state.
        """
        version_for = self.engine.blocking_version_for
        programs = []
        for state in self._states.values():
            parked = state.parked
            programs.append((
                state.counter, state.finished,
                tuple([(name, freeze(value))
                       for name, value in state.context.items()]),
                parked is not None and parked[0] == state.counter
                and parked[1] == version_for(parked[3]),
            ))
        return (self.engine.state_key(), tuple(programs),
                self._waits.state_key())

    def output_mark(self) -> Tuple[int, int, int, int, int]:
        """Where the outputs stand now, for :meth:`outputs_since`."""
        return (len(self._operations), self._attempts, self._blocked_events,
                len(self._deadlocks), len(self._abort_reasons))

    def outputs_since(self, mark: Tuple[int, int, int, int, int]) -> Tuple:
        """What the runner emitted since ``mark``: (operations, attempts,
        blocked events, deadlocks, abort reasons), the last as (txn, reason)
        pairs — a transaction's reason is recorded once, when it finishes."""
        operations, attempts, blocked, deadlocks, aborts = mark
        return (tuple(self._operations[operations:]),
                self._attempts - attempts,
                self._blocked_events - blocked,
                tuple(self._deadlocks[deadlocks:]),
                tuple(self._abort_reasons.items())[aborts:])

    # -- single-step execution -----------------------------------------------------------

    def _attempt(self, txn: int) -> int:
        """Try to execute the next step of a transaction.  Returns 1 if an
        engine call was made (whatever its outcome), 0 if nothing to do."""
        state = self._states.get(txn)
        if state is None or state.finished or state.counter >= state.total:
            return 0
        counter = state.counter
        step = state.steps[counter]
        # A blocked outcome is a pure function of the engine's versioned
        # blocking state; when neither the step nor that version has changed
        # since this transaction's last blocked attempt, skip the engine call
        # and replay the identical result (all runner-side effects still run).
        memo = state.parked
        replayed = False
        if memo is not None and memo[0] == counter:
            version = self.engine.blocking_version_for(memo[3])
            if version is not None and version == memo[1]:
                result = memo[2]
                replayed = True
            else:
                result = step.perform(self.engine, txn, state.context)
        else:
            result = step.perform(self.engine, txn, state.context)
        if self._collect_traces:
            self._traces.append(
                StepTrace(txn, step.describe(), result.status, result.value, result.reason)
            )

        status = result.status
        if status is OpStatus.BLOCKED:
            if not replayed:
                item = getattr(step, "item", None)
                version = self.engine.blocking_version_for(item)
                if version is not None:
                    state.parked = (counter, version, result, item)
            self._blocked_events += 1
            self._waits.set_waits(txn, result.blockers)
            # Detection is skippable when the graph is provably acyclic: a new
            # cycle must run through ``txn``, whose first hop is a blocker, so
            # with no blocker itself waiting the graph stays acyclic and
            # detect() would return None anyway.
            if self._waits_maybe_cyclic or self._waits.any_waiting(result.blockers):
                self._resolve_deadlock()
            return 1

        self._waits.clear_waits(txn)

        if status is OpStatus.ABORTED:
            self._record_abort(txn, result.reason or "engine abort")
            state.finished = True
            self._waits.remove_transaction(txn)
            return 1

        # OK: record the realized operation and advance.
        operation = self._to_operation(txn, step, result)
        if operation is not None:
            self._operations.append(operation)
            if operation.kind is OperationKind.COMMIT or operation.kind is OperationKind.ABORT:
                self._terminal_recorded.add(txn)
        state.counter += 1
        if isinstance(step, (Commit, Abort)) or state.counter >= state.total:
            state.finished = True
            self._waits.remove_transaction(txn)
            if isinstance(step, Abort):
                self._abort_reasons.setdefault(txn, "program abort")
        return 1

    def _is_blocked_state(self, txn: int) -> bool:
        return self._waits.is_waiting(txn)

    def _resolve_deadlock(self) -> bool:
        """Detect a deadlock and abort its victim.  Returns True if one was broken."""
        deadlock = self._waits.detect()
        if deadlock is None:
            self._waits_maybe_cyclic = False
            return False
        # Breaking one cycle may leave another; force full detection until a
        # scan comes back clean.
        self._waits_maybe_cyclic = True
        self._deadlocks.append(deadlock)
        victim = deadlock.victim
        self.engine.abort(victim, reason="deadlock victim")
        self._record_abort(victim, "deadlock victim")
        state = self._states.get(victim)
        if state is not None:
            state.finished = True
        self._waits.remove_transaction(victim)
        return True

    def _record_abort(self, txn: int, reason: str) -> None:
        self._abort_reasons[txn] = reason
        if txn not in self._terminal_recorded:
            self._operations.append(self._intern(OperationKind.ABORT, txn))
            self._terminal_recorded.add(txn)

    # -- translation to history operations --------------------------------------------------

    def _intern(self, kind: OperationKind, txn: int, item: Optional[str] = None,
                value: Any = None, version: Optional[int] = None) -> Operation:
        """A (usually cached) Operation — replays realize the same ones endlessly."""
        by_kind = self._op_cache.get(kind)
        if by_kind is None:
            by_kind = self._op_cache[kind] = {}
        key = (txn, item, value, version)
        try:
            operation = by_kind.get(key)
        except TypeError:  # unhashable recorded value — build directly
            return Operation(kind, txn, item=item, value=value, version=version)
        if operation is None:
            operation = Operation(kind, txn, item=item, value=value, version=version)
            if len(by_kind) < 100_000:
                by_kind[key] = operation
        return operation

    def _to_operation(self, txn: int, step: Step, result: OpResult) -> Optional[Operation]:
        """Map a completed step to the history operation it realizes."""
        if isinstance(step, ReadItem):
            return self._intern(OperationKind.READ, txn, step.item,
                                result.value, result.version)
        if isinstance(step, WriteItem):
            return self._intern(OperationKind.WRITE, txn, step.item,
                                result.value, result.version)
        if isinstance(step, SelectPredicate):
            return Operation(OperationKind.PREDICATE_READ, txn,
                             predicate=step.predicate.name)
        if isinstance(step, InsertRow):
            return self._intern(OperationKind.WRITE, txn, result.item,
                                version=result.version)
        if isinstance(step, (UpdateRow, DeleteRow)):
            return self._intern(OperationKind.WRITE, txn,
                                f"{step.table}/{step.key}", version=result.version)
        if isinstance(step, Fetch):
            return self._intern(OperationKind.CURSOR_READ, txn, result.item,
                                result.value, result.version)
        if isinstance(step, CursorUpdate):
            return self._intern(OperationKind.CURSOR_WRITE, txn, result.item,
                                result.value, result.version)
        if isinstance(step, Commit):
            return self._intern(OperationKind.COMMIT, txn)
        if isinstance(step, Abort):
            return self._intern(OperationKind.ABORT, txn)
        # OpenCursor / CloseCursor do not appear in histories.
        return None

    # -- finishing -----------------------------------------------------------------------------

    def _build_outcome(self) -> ExecutionOutcome:
        # Equivalent to state_of per txn with the defensive ACTIVE fallback,
        # minus a method call + exception frame per transaction per outcome.
        engine_states = getattr(self.engine, "_states", None)
        statuses: Dict[int, TransactionState] = {}
        if isinstance(engine_states, dict):
            active = TransactionState.ACTIVE
            for txn in self._order:
                statuses[txn] = engine_states.get(txn, active)
        else:  # pragma: no cover - engines without the base bookkeeping
            for txn in self._order:
                try:
                    statuses[txn] = self.engine.state_of(txn)
                except Exception:
                    statuses[txn] = TransactionState.ACTIVE
        return ExecutionOutcome(
            engine_name=self.engine.name,
            # Runner-realized histories are well-formed by construction (a
            # finished transaction never acts again), so skip the validation scan.
            history=History(self._operations, validate=False),
            statuses=statuses,
            contexts={txn: dict(state.context) for txn, state in self._states.items()},
            database=self.engine.database,
            abort_reasons=dict(self._abort_reasons),
            blocked_events=self._blocked_events,
            deadlocks=list(self._deadlocks),
            traces=list(self._traces),
            stalled=self._stalled,
        )


def run_schedule(engine: Engine, programs: Sequence[TransactionProgram],
                 interleaving: Optional[Sequence[int]] = None) -> ExecutionOutcome:
    """Convenience wrapper: build a :class:`ScheduleRunner` and run it."""
    return ScheduleRunner(engine, programs, interleaving).run()
