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
* :func:`analyze_scenario_programs` applies one rule per Table 4 column to
  that graph, level by level — the same lock-scope rules the
  :class:`~repro.locking.policy` tables encode (long write locks kill P0
  edges, long read locks kill the P2/P4/A5A/A5B patterns) plus the
  multiversion semantics of the Section 4.2 engines (snapshot-stable reads,
  first-committer-wins) — and emits one :class:`StaticVerdict` per scenario
  variant: ``IMPOSSIBLE`` (no schedule can make the scenario's ``manifests``
  predicate hold; sound, never witnessed dynamically), ``POSSIBLE`` (the
  pattern exists, with the witnessing edges as the explanation), or
  ``UNKNOWN`` (opaque footprints leave the question open).
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

from .levels import LevelProfile, profile_for
from .sdg import ConflictEdge, StaticDependencyGraph, Verdict, build_sdg
from .verdicts import SCENARIO_RULES, StaticVerdict, analyze_scenario_programs

__all__ = [
    "Verdict",
    "ConflictEdge",
    "StaticDependencyGraph",
    "build_sdg",
    "LevelProfile",
    "profile_for",
    "StaticVerdict",
    "SCENARIO_RULES",
    "analyze_scenario_programs",
]
