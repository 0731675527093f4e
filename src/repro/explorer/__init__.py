"""Schedule-space exploration: enumerate or sample interleavings, execute them
in parallel, and measure which anomalies each isolation level actually admits.

Quick use::

    from repro.explorer import ExploreOptions, explore, ProgramSetSpec
    from repro.analysis.coverage import build_coverage_report

    spec = ProgramSetSpec.make("increments", transactions=2)
    result = explore(spec, ExploreOptions(max_schedules=500, seed=7, workers=4))
    print(build_coverage_report(result).render())

The public surface:

* :func:`explore` / :class:`ExplorationResult` — the orchestrator
  (`explorer.py`), with a hard determinism contract: output depends only on
  the spec, levels, mode, budget, seed, and reduction — never on worker
  count, and without reduction every record is its own schedule's execution.  Schedules stream lazily (O(chunk) memory), ``workers="auto"`` uses
  every usable core, and each process keeps one classification memo per run.
* :mod:`~repro.explorer.schedules` — interleaving combinatorics (multinomial
  counting, exhaustive enumeration, seeded deduplicated sampling), streamed.
* :mod:`~repro.explorer.reduction` — sleep-set/DPOR-style partial-order
  reduction: execute one representative per commutation-equivalence class.
* :mod:`~repro.explorer.scenarios` — the Table 4 bridge: exhaust a scenario
  variant's interleaving space and measure how often its anomaly manifests,
  with replayable witness interleavings (``explore_variant`` /
  ``explore_scenario``).
* :mod:`~repro.explorer.trie_executor` — the prefix-sharing trie executor:
  one testbed per (spec, level), checkpoint/restore instead of rebuild, and
  schedules re-executing only their divergent suffix.
* :mod:`~repro.explorer.worker` — the picklable chunk work units and the
  per-process state they reuse.
* :mod:`~repro.explorer.memo` — memoized batched classification (one bounded
  table keyed by history shorthand, and behind it one per history kind keyed
  by the orders the classification passes read).
"""

from .explorer import (
    DEFAULT_LEVELS,
    ExplorationResult,
    LevelExploration,
    available_workers,
    explore,
)
from .options import REDUCTIONS, ExploreOptions
from .memo import BatchClassifier, HistoryClassification
from .reduction import (
    CommutationOracle,
    ExecutionPlan,
    StreamingReducer,
    build_execution_plan,
)
from .batch_kernel import BatchStats, build_batch_kernel
from .trie_executor import TrieExecutor, TrieStats
from .scenarios import (
    ScenarioExploration,
    VariantExploration,
    explore_scenario,
    explore_variant,
)
from .schedules import (
    ScheduleSpace,
    count_interleavings,
    enumerate_interleavings,
    iter_sampled_interleavings,
    sample_interleavings,
    schedule_space,
)
from .worker import ChunkResult, ChunkTask, ScheduleRecord, execute_chunk

# Re-exported so explorer callers can build specs without a second import.
from ..workloads.program_sets import (
    ProgramSetSpec,
    available_program_sets,
    build_program_set,
    register_program_set,
)

__all__ = [
    "DEFAULT_LEVELS",
    "REDUCTIONS",
    "ExploreOptions",
    "ExplorationResult",
    "LevelExploration",
    "available_workers",
    "explore",
    "BatchClassifier",
    "HistoryClassification",
    "CommutationOracle",
    "ExecutionPlan",
    "StreamingReducer",
    "build_execution_plan",
    "BatchStats",
    "build_batch_kernel",
    "TrieExecutor",
    "TrieStats",
    "ScenarioExploration",
    "VariantExploration",
    "explore_scenario",
    "explore_variant",
    "ScheduleSpace",
    "count_interleavings",
    "enumerate_interleavings",
    "iter_sampled_interleavings",
    "sample_interleavings",
    "schedule_space",
    "ChunkResult",
    "ChunkTask",
    "ScheduleRecord",
    "execute_chunk",
    "ProgramSetSpec",
    "available_program_sets",
    "build_program_set",
    "register_program_set",
]
