"""The scenarios → explorer bridge: exhaust an anomaly variant's schedule space.

The paper establishes each Table 4 cell by exhibiting *one* adversarial
interleaving; :mod:`repro.workloads.scenarios` replays exactly those.  This
module upgrades the claim from an anecdote to a measurement: for one scenario
variant under one isolation level, enumerate (or sample) the variant's entire
interleaving space with :func:`~repro.explorer.schedules.schedule_space`,
execute every schedule through one
:class:`~repro.explorer.trie_executor.TrieExecutor` — the real engines behind
a transition table that visits each engine state once (each outcome
byte-identical to a run against a fresh database and a fresh engine), and
evaluate the variant's ``manifests`` predicate on every realized outcome.  The
result per variant is a manifestation *set* — how many schedules produced the
anomaly's wrong result, with the first manifesting interleaving recorded as a
replayable witness — and per scenario a measured Table 4 cell:

* every variant manifests somewhere in its space → ``POSSIBLE``
* no variant manifests anywhere                  → ``NOT_POSSIBLE``
* some spaces contain a witness, some do not     → ``SOMETIMES_POSSIBLE``

Stalled and engine-aborted schedules are the *common case* out here (locking
engines block and deadlock freely once interleavings stop being hand-picked);
both are first-class non-manifesting results, never errors.

:func:`explore_scenario` skips, by default, every variant space that
:mod:`repro.static_analysis` proves impossible at the level (the Table 2
lock-scope arguments the paper itself uses for most "Not Possible" cells).
:func:`explore_variant` always executes.

``reduction="sleep-set"`` executes one representative per commutation
equivalence class (level-aware: locking levels use the relaxed ``"footprint"``
terminal scope, multiversion levels the snapshot-safe ``"component"`` scope —
see :mod:`repro.explorer.reduction`) and reuses its verdict for the class;
equivalence guarantees every member realizes the same observed values, final
state, and commit statuses, so ``manifests`` cannot tell members apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.isolation import IsolationLevelName, Possibility
from ..engine.programs import TransactionProgram
from ..static_analysis import Verdict, analyze_scenario_programs
from ..workloads.scenarios import AnomalyScenario, ScenarioVariant
from .explorer import REDUCTIONS, terminal_scope_for
from .options import ExploreOptions
from .reduction import ExecutionPlan, build_execution_plan
from .schedules import Interleaving, ScheduleSpace, schedule_space
from .trie_executor import TrieExecutor

__all__ = [
    "VariantExploration",
    "ScenarioExploration",
    "explore_variant",
    "explore_scenario",
]

#: Default schedule budget per variant: every curated scenario variant's space
#: is far smaller (the largest, A5B through cursors, has 924 interleavings),
#: so the default explores exhaustively.
DEFAULT_MAX_SCHEDULES = 2000

#: Reduction plans memoized across levels: a plan is a pure function of the
#: schedule stream (the space's recipe), the programs' static footprints, and
#: the terminal scope — so a full Table 4 sweep builds two plans per variant
#: (one per scope) instead of one per level.  Bounded: scenario sweeps touch
#: a few dozen (variant, scope) pairs.
_PLAN_CACHE: dict = {}
_PLAN_CACHE_MAX = 128


def _cached_plan(space: ScheduleSpace, programs: Sequence[TransactionProgram],
                 scope: str) -> ExecutionPlan:
    key = (
        (space.txns, space.step_counts, space.mode, space.seed,
         space.selected, space.dedupe),
        tuple((program.txn, program.footprints()) for program in programs),
        scope,
    )
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
            _PLAN_CACHE.clear()
        plan = build_execution_plan(space.schedules, programs,
                                    terminal_scope=scope)
        _PLAN_CACHE[key] = plan
    return plan


@dataclass(frozen=True)
class _Verdict:
    """What one executed representative contributes to its equivalence class."""

    manifested: bool
    stalled: bool
    deadlocked: bool
    engine_aborted: bool
    history: str


@dataclass(frozen=True)
class VariantExploration:
    """The manifestation measurement of one variant's space under one level."""

    scenario_code: str
    variant_name: str
    level: IsolationLevelName
    mode: str
    space_size: int
    schedules: int
    executed: int
    manifested: int
    stalled: int
    deadlocked: int
    engine_aborted: int
    witness: Optional[Interleaving]
    witness_history: Optional[str]
    #: True when the static dependency graph proved the scenario impossible
    #: at this level and the whole space was skipped unexecuted.
    pruned: bool = False
    #: The static proof sketch, when pruned.
    static_reason: str = ""

    @property
    def manifests(self) -> bool:
        """Whether any schedule in the explored space produced the anomaly."""
        return self.manifested > 0

    @property
    def frequency(self) -> float:
        """Fraction of explored schedules whose outcome manifested."""
        return self.manifested / self.schedules if self.schedules else 0.0


@dataclass(frozen=True)
class ScenarioExploration:
    """One measured Table 4 cell: every variant space of a scenario, explored."""

    scenario_code: str
    level: IsolationLevelName
    variants: Tuple[VariantExploration, ...]

    @property
    def possibility(self) -> Possibility:
        """The cell verdict, aggregated exactly like :func:`evaluate_scenario`."""
        flags = [variant.manifests for variant in self.variants]
        if all(flags):
            return Possibility.POSSIBLE
        if not any(flags):
            return Possibility.NOT_POSSIBLE
        return Possibility.SOMETIMES_POSSIBLE

    @property
    def witness(self) -> Optional[Tuple[str, Interleaving, str]]:
        """``(variant name, interleaving, history shorthand)`` of the first witness."""
        for variant in self.variants:
            if variant.witness is not None:
                return (variant.variant_name, variant.witness,
                        variant.witness_history or "")
        return None

    @property
    def schedules(self) -> int:
        """Schedules covered across every variant space."""
        return sum(variant.schedules for variant in self.variants)

    @property
    def stalled(self) -> int:
        """Stalled schedules across every variant space."""
        return sum(variant.stalled for variant in self.variants)

    @property
    def pruned_variants(self) -> int:
        """Variant spaces skipped by the static-impossibility pass."""
        return sum(1 for variant in self.variants if variant.pruned)


def explore_variant(variant: ScenarioVariant, level: IsolationLevelName,
                    scenario_code: str = "", mode: str = "auto",
                    max_schedules: int = DEFAULT_MAX_SCHEDULES, seed: int = 0,
                    reduction: str = "sleep-set",
                    options: Optional[ExploreOptions] = None,
                    ) -> VariantExploration:
    """Evaluate ``variant.manifests`` over its whole interleaving space.

    An :class:`~repro.explorer.options.ExploreOptions` may be passed instead
    of the loose knobs; its ``mode``/``max_schedules``/``seed``/``reduction``
    fields then take precedence (the level still comes from the ``level``
    argument — a variant exploration is per-level by construction).

    The space is walked by one
    :class:`~repro.explorer.trie_executor.TrieExecutor` per call: a schedule
    walks only the suffix past the prefix it shares with its DFS predecessor,
    the engine runs only the transitions the executor's table has not seen
    yet, and by the executor's byte-equality contract its outcome is
    the one a fresh database and a fresh engine for ``level`` would produce
    (``tests/explorer/test_scenarios_trie.py`` holds the whole bridge to that
    from-scratch oracle).  Nothing outlives the call — no executor, outcome or
    verdict is cached across calls.  Stalled outcomes are non-manifesting by
    definition (their ``manifests`` predicate is never consulted),
    engine-aborted outcomes flow through the predicate exactly like the
    curated path does.  The witness is
    the first manifesting schedule in the space's deterministic stream order;
    under reduction its recorded history is its class representative's
    (identical up to the order of commuting adjacent steps).

    This always executes the space; skipping a statically impossible one is
    :func:`explore_scenario`'s decision.  That makes this function the
    oracle the static rules are held to.
    """
    if options is not None:
        mode = options.mode
        max_schedules = options.max_schedules
        seed = options.seed
        reduction = options.reduction
    if reduction not in REDUCTIONS:
        raise ValueError(f"unknown reduction {reduction!r}; choose from {REDUCTIONS}")
    programs = variant.build_programs()
    space = schedule_space(programs, mode=mode, max_schedules=max_schedules,
                           seed=seed)
    schedules = space.schedules
    plan = None
    to_execute: Sequence[Interleaving] = schedules
    if reduction == "sleep-set":
        plan = _cached_plan(space, programs, terminal_scope_for(level))
        to_execute = plan.executed

    # One executor per (variant, level): the real engines behind the
    # transition table, so a schedule runs on the engine only the transitions
    # no earlier schedule of the space took.  The batch kernel stays off on
    # purpose — scenario programs are mostly cursor/predicate steps it
    # refuses, and Table 4 is settled by the real engines alone.  The
    # outcome's database is the executor's shared view, so each verdict is
    # read off at yield time, before the next schedule's outcome replaces it.
    executor = TrieExecutor(variant.build_database(), programs, level,
                            batch_kernel="off")
    verdicts: List[Optional[_Verdict]] = [None] * len(to_execute)
    for index, outcome in executor.run_batch(to_execute):
        manifested = not outcome.stalled and variant.manifests(outcome)
        verdicts[index] = _Verdict(
            manifested=manifested,
            stalled=outcome.stalled,
            deadlocked=bool(outcome.deadlocks),
            engine_aborted=any(
                reason != "program abort"
                for reason in outcome.abort_reasons.values()
            ),
            # Only a manifesting verdict can become the witness.
            history=outcome.history.to_shorthand() if manifested else "",
        )

    manifested = stalled = deadlocked = engine_aborted = 0
    witness: Optional[Interleaving] = None
    witness_history: Optional[str] = None
    for position, schedule in enumerate(schedules):
        verdict = verdicts[plan.assignment[position] if plan else position]
        if verdict.manifested:
            manifested += 1
            if witness is None:
                witness = schedule
                witness_history = verdict.history
        if verdict.stalled:
            stalled += 1
        if verdict.deadlocked:
            deadlocked += 1
        if verdict.engine_aborted:
            engine_aborted += 1

    return VariantExploration(
        scenario_code=scenario_code,
        variant_name=variant.name,
        level=level,
        mode=space.mode,
        space_size=space.total,
        schedules=len(schedules),
        executed=len(to_execute),
        manifested=manifested,
        stalled=stalled,
        deadlocked=deadlocked,
        engine_aborted=engine_aborted,
        witness=witness,
        witness_history=witness_history,
    )


def explore_scenario(scenario: AnomalyScenario, level: IsolationLevelName,
                     mode: str = "auto",
                     max_schedules: int = DEFAULT_MAX_SCHEDULES, seed: int = 0,
                     reduction: str = "sleep-set",
                     static_pruning: bool = True,
                     options: Optional[ExploreOptions] = None,
                     ) -> ScenarioExploration:
    """Explore every variant space of a scenario under one isolation level.

    By default the static dependency graph is consulted first
    (:func:`~repro.static_analysis.analyze_scenario_programs`): a variant
    whose scenario is statically ``IMPOSSIBLE`` at this level is not
    executed.  It counts as non-manifesting with ``pruned=True``, zero
    schedules and the proof sketch in ``static_reason``.  That is exactly
    the verdict executing it would reach, because no schedule can satisfy
    an impossible scenario's ``manifests`` predicate, so the cell
    aggregation is unchanged.  ``static_pruning=False`` executes every
    space.  As with :func:`explore_variant`, an
    :class:`~repro.explorer.options.ExploreOptions` may replace the loose
    space knobs; ``static_pruning`` is always this argument.
    """
    if not scenario.variants:
        raise ValueError(
            f"scenario {scenario.code} has no variants; refusing to call an "
            f"empty scenario POSSIBLE (all([]) is True)"
        )

    def explored(variant: ScenarioVariant) -> VariantExploration:
        if static_pruning:
            verdict = analyze_scenario_programs(variant.build_programs(),
                                                scenario.code, level)
            if verdict.verdict is Verdict.IMPOSSIBLE:
                return VariantExploration(
                    scenario_code=scenario.code, variant_name=variant.name,
                    level=level, mode="pruned", space_size=0, schedules=0,
                    executed=0, manifested=0, stalled=0, deadlocked=0,
                    engine_aborted=0, witness=None, witness_history=None,
                    pruned=True, static_reason=verdict.reason,
                )
        return explore_variant(variant, level, scenario_code=scenario.code,
                               mode=mode, max_schedules=max_schedules, seed=seed,
                               reduction=reduction, options=options)

    return ScenarioExploration(
        scenario_code=scenario.code,
        level=level,
        variants=tuple(explored(variant) for variant in scenario.variants),
    )
