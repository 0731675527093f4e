"""The prefix-sharing trie executor: schedules re-execute only their divergent suffix.

Executing every schedule of a chunk from scratch repeats enormous amounts of
work: interleavings that agree on a prefix drive the engine through *exactly*
the same states for that prefix.  Stateless model checkers (and the DPOR
family the explorer's sleep-set reduction borrows from) win their orders of
magnitude by sharing that work, and the explorer's enumeration order exposes
the same structure here.

:class:`TrieExecutor` walks a batch of interleavings as a depth-first search
over their shared-prefix trie:

* One testbed (database + programs + engine + runner) is built per executor —
  never per schedule.  The state right after ``begin_all`` is the *root
  checkpoint*; "rebuilding the testbed" for the next schedule is one
  ``restore``.
* While applying a schedule's slots, checkpoints are pushed onto a stack every
  ``checkpoint_spacing`` slots.  The next schedule pops the stack down to its
  longest common prefix with the previous schedule and re-executes only the
  slots past the deepest surviving checkpoint, then drains phase 2 as usual.
* ``checkpoint_spacing`` bounds live checkpoints to ``total_slots / spacing``
  (+ the root): larger spacing trades re-executed slots for memory.

Every slot goes through the stepwise :class:`~repro.engine.scheduler.ScheduleRunner`
(``Step.perform`` into the engine's read / write / commit / abort methods) —
the one implementation of the Table 2 rules.  The only faster path is the
batch kernel (:mod:`repro.explorer.batch_kernel`), which :meth:`run_batch`
routes whole batches through when the program set allows it.

Determinism contract: a trie-executed schedule produces a byte-identical
:class:`~repro.engine.outcomes.ExecutionOutcome` (history, statuses, abort
reasons, blocked counts, deadlocks, stall flag) to a from-scratch run of the
same schedule, for every engine level — ``tests/explorer/test_trie_executor.py``
gates this.  Execution *order* within a batch is therefore free: sorting a
batch lexicographically before walking it maximizes shared prefixes without
changing any result, which is how :func:`repro.explorer.worker.execute_chunk`
uses it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.isolation import IsolationLevelName
from ..engine.outcomes import ExecutionOutcome
from ..engine.programs import TransactionProgram
from ..engine.scheduler import RunnerCheckpoint, ScheduleRunner
from ..storage.database import Database
from ..testbed import make_engine
from .batch_kernel import BatchStats, build_batch_kernel
from .options import BATCH_KERNEL_MODES, env_choice
from .schedules import Interleaving

__all__ = ["TrieExecutor", "TrieStats"]


class TrieStats:
    """Cumulative work counters of one executor (for benchmarks and reports)."""

    __slots__ = ("schedules", "slots_total", "slots_executed",
                 "checkpoints_created", "restores")

    def __init__(self) -> None:
        self.schedules = 0
        #: Slots the schedules contained vs. slots actually re-executed; the
        #: gap is the work the shared-prefix trie saved.
        self.slots_total = 0
        self.slots_executed = 0
        self.checkpoints_created = 0
        self.restores = 0

    @property
    def replayed_ratio(self) -> float:
        """Fraction of slots actually executed (1.0 = no sharing)."""
        if not self.slots_total:
            return 1.0
        return self.slots_executed / self.slots_total

    def as_dict(self) -> Dict[str, int]:
        return {
            "schedules": self.schedules,
            "slots_total": self.slots_total,
            "slots_executed": self.slots_executed,
            "checkpoints_created": self.checkpoints_created,
            "restores": self.restores,
        }


class TrieExecutor:
    """Executes interleavings of one program set with shared-prefix checkpoints.

    Parameters
    ----------
    database, programs:
        A fresh testbed (the executor owns both from here on — callers must
        not mutate the database afterwards).
    level:
        The isolation level whose engine executes the schedules.
    checkpoint_spacing:
        Push a checkpoint every this-many slots (default 1: every slot).
        Larger values bound checkpoint memory at the cost of re-executing up
        to ``spacing - 1`` extra slots per schedule.
    batch_kernel:
        Route :meth:`run_batch` through the transition-memoized flat kernel
        (:mod:`repro.explorer.batch_kernel`) when one can be built for this
        (level, program set).  ``"auto"`` (the default, or via
        ``EXPLORER_BATCH_KERNEL``) silently falls back to the stepwise trie
        walk when the workload is unsupported; ``"on"`` raises instead;
        ``"off"`` never builds the kernel.  Byte-equal to the stepwise path
        by construction — rows the tables cannot express are ejected back to
        :meth:`run_one`, the source of truth.
    """

    def __init__(self, database: Database, programs: Sequence[TransactionProgram],
                 level: IsolationLevelName, checkpoint_spacing: int = 1,
                 batch_kernel: Optional[str] = None,
                 **engine_options):
        if checkpoint_spacing < 1:
            raise ValueError("checkpoint_spacing must be >= 1")
        if batch_kernel is None:
            batch_kernel = env_choice("EXPLORER_BATCH_KERNEL",
                                      BATCH_KERNEL_MODES, "auto")
        if batch_kernel not in BATCH_KERNEL_MODES:
            raise ValueError(f"batch_kernel must be one of {BATCH_KERNEL_MODES},"
                             f" got {batch_kernel!r}")
        self.level = level
        self.spacing = checkpoint_spacing
        self.batch_kernel = batch_kernel
        self.stats = TrieStats()
        self._engine = make_engine(database, level, **engine_options)
        if not self._engine.supports_checkpoints:
            raise ValueError(
                f"engine for {level.value!r} does not support checkpoints")
        self._runner = ScheduleRunner(self._engine, programs, collect_traces=False)
        self._runner.begin_all()
        #: (depth, checkpoint) pairs; the root (depth 0, post-begin) never pops.
        self._stack: List[Tuple[int, RunnerCheckpoint]] = [
            (0, self._runner.checkpoint())
        ]
        self.stats.checkpoints_created += 1
        self._previous: Optional[Interleaving] = None
        # Built after the root checkpoint: begin_all never touches item
        # values, so the kernel still captures the pristine seed database.
        self._batch = None
        if batch_kernel != "off":
            self._batch = build_batch_kernel(
                database, programs, level, self._engine.name,
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

    @staticmethod
    def _common_prefix(first: Interleaving, second: Interleaving) -> int:
        limit = min(len(first), len(second))
        shared = 0
        while shared < limit and first[shared] == second[shared]:
            shared += 1
        return shared

    def run_one(self, interleaving: Interleaving,
                next_schedule: Optional[Interleaving] = None) -> ExecutionOutcome:
        """Execute one schedule, reusing the deepest checkpoint it shares.

        The outcome is byte-identical to a from-scratch run of the same
        schedule; consecutive calls share whatever prefix consecutive
        schedules share, so callers should feed schedules in an order that
        groups shared prefixes (sorted / enumeration order).

        When the caller knows the schedule that will execute next (the batch
        walk does), passing it as ``next_schedule`` places exactly *one*
        checkpoint — at the branch point the next schedule will restore to —
        instead of one per ``checkpoint_spacing`` slots.  In DFS order every
        shallower restore target is already on the stack, so one is all it
        takes, and checkpoint cost drops from O(slots) to O(1) per schedule.
        """
        runner = self._runner
        previous = self._previous
        shared = 0
        if previous is not None:
            shared = self._common_prefix(previous, interleaving)
        stack = self._stack
        while stack[-1][0] > shared:
            stack.pop()
        depth, token = stack[-1]
        runner.restore(token)
        self.stats.restores += 1

        total = len(interleaving)
        if next_schedule is not None:
            prepare = self._common_prefix(interleaving, next_schedule)
            if self.spacing > 1:
                # Snap the branch-point checkpoint down to the spacing grid:
                # live checkpoints stay bounded by total/spacing (+ root) at
                # the cost of re-executing at most spacing-1 extra slots.
                prepare -= prepare % self.spacing
            # With lookahead, exactly one checkpoint is placed — at the branch
            # point the next schedule restores to — so the suffix splits into
            # (at most) two bulk slot runs around it.
            if depth < prepare < total:
                runner.apply_many(interleaving[depth:prepare])
                stack.append((prepare, runner.checkpoint()))
                self.stats.checkpoints_created += 1
                runner.apply_many(interleaving[prepare:total])
            else:
                runner.apply_many(interleaving[depth:total])
        else:
            for position in range(depth, total):
                runner.apply_slot(interleaving[position])
                applied = position + 1
                if applied < total and applied % self.spacing == 0:
                    stack.append((applied, runner.checkpoint()))
                    self.stats.checkpoints_created += 1

        self.stats.schedules += 1
        self.stats.slots_total += total
        self.stats.slots_executed += total - depth
        self._previous = interleaving
        # drain() mutates past the deepest checkpoint, which is fine: the next
        # schedule restores to a depth <= its shared prefix anyway.
        return runner.drain()

    def run_batch(self, schedules: Sequence[Interleaving],
                  sort: bool = True) -> Iterator[Tuple[int, ExecutionOutcome]]:
        """Execute a batch, yielding ``(original_index, outcome)`` pairs.

        With ``sort=True`` (the default) the batch is walked in lexicographic
        order — the DFS order of its shared-prefix trie — which maximizes
        checkpoint reuse; outcomes are tagged with their original position so
        callers can reassemble input order.  Sorting never changes any
        individual outcome (see the determinism contract above).  The walk
        uses one-schedule lookahead, so each execution places only the single
        checkpoint its successor will restore to.

        When the batch-drain kernel is active (``batch_kernel`` above), the
        whole batch routes through its flat emulators instead; rows it
        cannot handle are ejected back to :meth:`run_one`.  Outcomes are
        byte-identical either way.
        """
        if self._batch is not None:
            yield from self._batch.run_batch(schedules, sort=sort)
            return
        if sort:
            order = sorted(range(len(schedules)), key=schedules.__getitem__)
        else:
            order = list(range(len(schedules)))
        for position, index in enumerate(order):
            following = (schedules[order[position + 1]]
                         if position + 1 < len(order) else None)
            yield index, self.run_one(schedules[index], next_schedule=following)
