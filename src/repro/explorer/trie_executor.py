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
(:mod:`repro.explorer.batch_kernel`): a flat locking emulator behind the
same table, and a commit-order fold for Snapshot Isolation.
The executor builds it whenever :func:`~repro.explorer.batch_kernel.build_batch_kernel`
can (item-only programs at a locking level or Snapshot Isolation, default
engine options), and then :meth:`TrieExecutor.run_batch` routes every batch
through it; :meth:`TrieExecutor.run_one` always takes the real engines.

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

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from ..core.history import History
from ..core.isolation import IsolationLevelName
from ..engine.outcomes import ExecutionOutcome
from ..engine.programs import TransactionProgram
from ..engine.scheduler import RunnerCheckpoint, ScheduleRunner
from ..storage.database import Database
from ..testbed import make_engine
from .batch_kernel import build_batch_kernel
from .schedules import Interleaving
from .transition_table import TableWalk, TrieStats, common_prefix, slot_record

__all__ = ["TrieExecutor", "TrieStats"]


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
    engine_options:
        Passed to the level's engine; with any set, no batch kernel is built.
    """

    def __init__(self, database: Database, programs: Sequence[TransactionProgram],
                 level: IsolationLevelName, **engine_options):
        self.level = level
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
        self._batch = build_batch_kernel(
            view.clone(), programs, level, self._engine.name,
            engine_options=engine_options or None)

    @property
    def batch_stats(self) -> TrieStats:
        """The batch kernel's counters (zeros when none was built)."""
        return self._batch.stats if self._batch is not None else TrieStats()

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

        When the executor built a batch kernel, the whole batch routes
        through it instead.  Outcomes are value-identical either way.
        """
        if self._batch is not None:
            yield from self._batch.run_batch(schedules, sort=sort)
            return
        yield from self._walk.run_batch(schedules, sort=sort)
