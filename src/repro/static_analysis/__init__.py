"""Static anomaly analysis: decide Table 4 cells without executing schedules.

The paper's phenomena are defined over *conflict patterns* — P0 needs two
writes of one item, A5B needs a crossed pair of read/write antidependencies —
which makes much of Table 4 decidable from the transaction programs' static
footprints alone.  :meth:`repro.engine.programs.Step.footprint` exposes
those footprints; this package builds a
level-aware **static dependency graph** (SDG) on top of them:

* :func:`build_sdg` enumerates every possible ww/wr/rw conflict edge between
  program pairs (:class:`ConflictEdge`), tracking the steps whose footprints
  are opaque (predicate selects, cursor fetches, computed inserts).
* :func:`analyze_scenario_programs` answers one Table 4 column for a program
  set under one semantics: an engine-backed level or any
  :class:`~repro.locking.policy.LockingPolicy` value.  The six
  pair-anchored columns are derived from their
  :data:`~repro.core.phenomena.PATTERNS` row and the policy
  (:data:`CLASS_RULES` maps each operation class to the lock rules it
  takes): the row's classes name the graph's edges, and the Table 2 lock
  durations of those classes decide the lock-scope argument.  A5A and A5B
  are written by hand, and the two multiversion levels share one
  argument (uncommitted writes are private, snapshot reads are pinned).
  Each yields one :class:`StaticVerdict` per scenario variant:
  ``IMPOSSIBLE`` (no schedule can make the scenario's ``manifests``
  predicate hold; sound, never witnessed dynamically), ``POSSIBLE`` (the
  pattern exists, with the witnessing edges as the explanation), or
  ``UNKNOWN`` (opaque footprints leave the question open).  Every reason
  names the row and the lock rules that decide it.
  :func:`~repro.explorer.scenarios.explore_scenario` and
  :func:`~repro.analysis.matrix.compute_table4_explored` skip every
  ``IMPOSSIBLE`` variant space by default.
* :mod:`repro.static_analysis.repolint` is the repo invariant linter
  (``python -m repro.static_analysis.repolint``): determinism, checkpoint
  completeness, workload picklability, and footprint coverage.

Soundness contract: ``IMPOSSIBLE`` is a proof sketch, and tier-1
(``tests/integration/test_static_dynamic_agreement.py``) holds it to the
executed Table 4 spaces: no statically impossible scope may ever be
witnessed.  ``POSSIBLE`` only means "not disproved" and carries the
candidate edges, never a guarantee of manifestation.
"""

from .sdg import ConflictEdge, StaticDependencyGraph, Verdict, build_sdg
from .verdicts import (CLASS_RULES, SCENARIO_RULES, StaticVerdict,
                       analyze_scenario_programs)

__all__ = [
    "Verdict",
    "ConflictEdge",
    "StaticDependencyGraph",
    "build_sdg",
    "CLASS_RULES",
    "StaticVerdict",
    "SCENARIO_RULES",
    "analyze_scenario_programs",
]
