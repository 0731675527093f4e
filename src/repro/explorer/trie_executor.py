"""The trie executor: the real engines behind the transition table.

Executing every schedule of a chunk from scratch repeats enormous amounts of
work: interleavings that agree on a prefix drive the engine through *exactly*
the same states for that prefix, and interleavings that disagree on a prefix
still meet in the same states (two Share locks taken in either order, a
blocked retry replayed).  :class:`TrieExecutor` shares both:

* **The transition table** (:mod:`repro.explorer.transition_table`) interns
  every state the testbed reaches by ``ScheduleRunner.state_key()`` — the
  runner's programs and waits-for graph plus the engine's own
  ``state_key()`` — and memoizes ``(state, transaction) -> (next state,
  emitted operations, deltas)`` and ``pre-drain state -> drain record``.  A
  slot or drain that hits never touches the engine.
* **The shared-prefix trie is the miss path.**  One testbed (database +
  programs + engine + runner) is built per executor — never per schedule.
  The state right after ``begin_all`` is the *root checkpoint*.  On a miss
  the runner is brought to the current state by restoring the deepest live
  checkpoint on the current path and replaying the slots walked since, then
  the missing slot or drain runs on the engine.  While the runner executes,
  it checkpoints at the branch point the next schedule will restore to
  (with lookahead) or after every slot (without).
* The outcome's history, blocked events, deadlocks and abort reasons are the
  walk's accumulated record deltas; statuses, contexts and the database at
  yield time come from the drain record (the database restored from its
  ``Database.checkpoint()`` token into one view database per executor).

Every engine call goes through the stepwise
:class:`~repro.engine.scheduler.ScheduleRunner` (``Step.perform`` into the
engine's read / write / commit / abort methods) — the one implementation of
the Table 2 rules.  The only other machine is the batch kernel
(:mod:`repro.explorer.batch_kernel`), flat emulators behind the same table,
which :meth:`run_batch` routes whole batches through when the program set
allows it.

Determinism contract: a trie-executed schedule produces a value-identical
:class:`~repro.engine.outcomes.ExecutionOutcome` (history, statuses,
contexts, abort reasons, blocked counts, deadlocks, stall flag, database) to
a from-scratch run of the same schedule, for every engine level, on a cold,
warm or capped table — ``tests/explorer/test_trie_executor.py`` and
``tests/explorer/test_scenarios_trie.py`` gate this.  Execution *order*
within a batch is therefore free: sorting a batch lexicographically before
walking it maximizes shared prefixes without changing any result, which is
how :func:`repro.explorer.worker.execute_chunk` uses it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.history import History
from ..core.isolation import IsolationLevelName
from ..engine.outcomes import ExecutionOutcome
from ..engine.programs import TransactionProgram
from ..engine.scheduler import RunnerCheckpoint, ScheduleRunner
from ..storage.database import Database
from ..testbed import make_engine
from .batch_kernel import BatchStats, build_batch_kernel
from .schedules import Interleaving
from .transition_table import TableWalk, common_prefix, slot_record

__all__ = ["TrieExecutor", "TrieStats"]

#: Accepted ``batch_kernel`` modes of :class:`TrieExecutor`.
BATCH_KERNEL_MODES = ("auto", "on", "off")


class TrieStats:
    """Cumulative work counters of one executor (for benchmarks and reports)."""

    __slots__ = ("schedules", "slots_total", "slots_executed",
                 "checkpoints_created", "restores", "transitions_reused",
                 "transitions_computed", "states")

    def __init__(self) -> None:
        self.schedules = 0
        #: Slots the schedules contained vs. slots the engine actually
        #: executed (replays to a miss included); the gap is the work the
        #: transition table and the shared-prefix trie saved.
        self.slots_total = 0
        self.slots_executed = 0
        self.checkpoints_created = 0
        self.restores = 0
        #: Table lookups (one per slot, one per drain) answered from the
        #: transition table vs. run on the engine, and the states interned —
        #: the names :class:`~repro.explorer.batch_kernel.BatchStats` uses.
        self.transitions_reused = 0
        self.transitions_computed = 0
        self.states = 0

    @property
    def replayed_ratio(self) -> float:
        """Fraction of slots actually executed (1.0 = no sharing)."""
        if not self.slots_total:
            return 1.0
        return self.slots_executed / self.slots_total

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class _EngineWalk(TableWalk):
    """The transition table over a schedule runner and its real engine.

    ``_at`` is how many slots of the current row the runner physically holds
    (None once it has drained or left the row's path); ``_phys`` the runner
    checkpoints on the current path, shallowest first, never deeper than
    ``_at``.
    """

    def __init__(self, runner: ScheduleRunner, txns: Sequence[int],
                 view: Database, stats: TrieStats):
        super().__init__(txns, runner.max_attempts, stats)
        self._runner = runner
        self._engine_name = runner.engine.name
        #: Outcomes show the database at yield time here, restored from the
        #: drain record, so the runner's own database stays where it is.
        self._view = view
        self._shown: Any = None
        self._phys: List[Tuple[int, RunnerCheckpoint]] = [
            (0, runner.checkpoint())]
        stats.checkpoints_created += 1
        self._at: Optional[int] = 0
        self._row: Sequence[int] = ()
        self._prepare: Optional[int] = None
        self._open(runner.state_key())

    # -- the runner, synced on demand ---------------------------------------------

    def _enter_row(self, schedule: Sequence[int], depth: int, shared: int,
                   prepare: Optional[int]) -> None:
        phys = self._phys
        while phys[-1][0] > shared:
            phys.pop()
        if self._at is not None and self._at > shared:
            self._at = None
        self._row = schedule
        self._prepare = prepare

    def _sync(self, position: int) -> None:
        """Bring the runner to the state after ``position`` slots of the row."""
        at = self._at
        if at is None or at > position:
            phys = self._phys
            while phys[-1][0] > position:
                phys.pop()
            at, token = phys[-1]
            self._runner.restore(token)
            self.stats.restores += 1
            self._at = at
        if at < position:
            self._advance(position)

    def _advance(self, stop: int) -> None:
        """Execute the row's slots from ``_at`` to ``stop`` on the runner."""
        runner = self._runner
        row = self._row
        at = self._at
        prepare = self._prepare
        if prepare is None:
            # Without lookahead, checkpoint after every slot short of the end.
            total = len(row)
            for position in range(at, stop):
                runner.apply_slot(row[position])
                if position + 1 < total:
                    self._push(position + 1)
        elif at < prepare <= stop and prepare < len(row):
            # With lookahead exactly one checkpoint is placed — at the branch
            # point the next schedule restores to.
            runner.apply_many(row[at:prepare])
            self._push(prepare)
            runner.apply_many(row[prepare:stop])
        else:
            runner.apply_many(row[at:stop])
        self.stats.slots_executed += stop - at
        self._at = stop

    def _push(self, depth: int) -> None:
        self._phys.append((depth, self._runner.checkpoint()))
        self.stats.checkpoints_created += 1

    # -- the machine behind the table --------------------------------------------------

    def _step(self, sid: int, ti: int, position: int) -> Tuple[Any, ...]:
        self._sync(position)
        runner = self._runner
        mark = runner.output_mark()
        self._advance(position + 1)
        return slot_record(self._intern(runner.state_key()),
                           *runner.outputs_since(mark))

    def _drain_step(self, sid: int) -> Tuple[Any, ...]:
        self._sync(len(self._row))
        runner = self._runner
        mark = runner.output_mark()
        outcome = runner.drain()
        self._at = None
        final = self._intern(runner.state_key())
        view = (outcome.statuses, outcome.contexts,
                runner.engine.database.checkpoint())
        return (slot_record(final, *runner.outputs_since(mark))
                + (outcome.stalled, view))

    def _foreign(self, schedule: Sequence[int]) -> ExecutionOutcome:
        # The runner treats a slot of an unknown transaction as a no-op, so
        # the schedule without them is the same schedule.
        return self.run_one(tuple(txn for txn in schedule if txn in self._known))

    def _hold(self) -> None:
        # A state off the table is rebuilt by replay from the runner's
        # checkpoints, which the logical checkpoint need not carry.
        return None

    def _resume(self, held: None) -> None:
        pass

    def build_outcome(self) -> ExecutionOutcome:
        statuses, contexts, token = self._final
        view = self._view
        if token is not self._shown:
            view.restore_checkpoint(token)
            self._shown = token
        return ExecutionOutcome(
            engine_name=self._engine_name,
            history=History(self.ops, validate=False),
            statuses=dict(statuses),
            contexts={txn: dict(context) for txn, context in contexts.items()},
            database=view,
            abort_reasons=dict(self.aborts),
            blocked_events=self.blocked_events,
            deadlocks=list(self.deadlocks),
            traces=[],
            stalled=self.stalled,
        )


class TrieExecutor:
    """Executes interleavings of one program set behind the transition table.

    Parameters
    ----------
    database, programs:
        A fresh testbed (the executor owns both from here on — callers must
        not mutate the database afterwards).
    level:
        The isolation level whose engine executes the schedules.
    batch_kernel:
        Route :meth:`run_batch` through the flat emulators
        (:mod:`repro.explorer.batch_kernel`) when one can be built for this
        (level, program set).  ``"auto"`` (the default) silently falls back
        to the real engines when the workload is unsupported; ``"on"``
        raises instead; ``"off"`` never builds the kernel.  Byte-equal to
        the real engines by construction — rows the emulators cannot express
        are ejected back to :meth:`run_one`, the source of truth.
    """

    def __init__(self, database: Database, programs: Sequence[TransactionProgram],
                 level: IsolationLevelName, batch_kernel: str = "auto",
                 **engine_options):
        if batch_kernel not in BATCH_KERNEL_MODES:
            raise ValueError(f"batch_kernel must be one of {BATCH_KERNEL_MODES},"
                             f" got {batch_kernel!r}")
        self.level = level
        self.batch_kernel = batch_kernel
        self.stats = TrieStats()
        view = database.clone()
        self._engine = make_engine(database, level, **engine_options)
        if not self._engine.supports_checkpoints:
            raise ValueError(
                f"engine for {level.value!r} does not support checkpoints")
        runner = ScheduleRunner(self._engine, programs, collect_traces=False)
        runner.begin_all()
        self._walk = _EngineWalk(runner, [program.txn for program in programs],
                                 view, self.stats)
        # The kernel seeds from, and shows its outcomes in, a copy of the
        # pristine database: the runner's own must only ever change under it.
        self._batch = None
        if batch_kernel != "off":
            self._batch = build_batch_kernel(
                view.clone(), programs, level, self._engine.name,
                engine_options=engine_options or None, fallback=self.run_one)
            if self._batch is None and batch_kernel == "on":
                raise ValueError(
                    f"batch_kernel='on' but no batch kernel is available for "
                    f"{level.value!r} (engine options set, or non-item steps "
                    f"in the programs)")

    @property
    def batch_stats(self) -> BatchStats:
        """Fast-path counters of the batch-drain kernel (zeros when unused)."""
        return self._batch.stats if self._batch is not None else BatchStats()

    # -- execution -------------------------------------------------------------------

    def run_one(self, interleaving: Interleaving,
                next_schedule: Optional[Interleaving] = None) -> ExecutionOutcome:
        """Execute one schedule from the deepest state it shares.

        The outcome is value-identical to a from-scratch run of the same
        schedule; consecutive calls share whatever prefix consecutive
        schedules share, so callers should feed schedules in an order that
        groups shared prefixes (sorted / enumeration order).

        When the caller knows the schedule that will execute next (the batch
        walk does), passing it as ``next_schedule`` places exactly *one*
        checkpoint — at the branch point the next schedule will restore to —
        instead of one per slot.
        """
        prepare = None
        if next_schedule is not None:
            prepare = common_prefix(interleaving, next_schedule)
        return self._walk.run_one(interleaving, None, prepare)

    def run_batch(self, schedules: Sequence[Interleaving],
                  sort: bool = True) -> Iterator[Tuple[int, ExecutionOutcome]]:
        """Execute a batch, yielding ``(original_index, outcome)`` pairs.

        With ``sort=True`` (the default) the batch is walked in lexicographic
        order — the DFS order of its shared-prefix trie — which maximizes
        table and checkpoint reuse; outcomes are tagged with their original
        position so callers can reassemble input order.  Sorting never
        changes any individual outcome (see the determinism contract above).

        When the batch-drain kernel is active (``batch_kernel`` above), the
        whole batch routes through its flat emulators instead; rows it
        cannot handle are ejected back to :meth:`run_one`.  Outcomes are
        value-identical either way.
        """
        if self._batch is not None:
            yield from self._batch.run_batch(schedules, sort=sort)
            return
        yield from self._walk.run_batch(schedules, sort=sort)
