"""Empirical verification of the isolation hierarchy (Figure 2 and Remarks 1–10).

The paper orders isolation levels by the non-serializable histories they
admit.  A level's *profile* is the set of anomaly-scenario variants whose bad
outcome it lets through anywhere in the variant's whole interleaving space,
read from the explored Table 4
(:func:`repro.analysis.matrix.compute_table4_explored`): a variant is in the
profile when its manifestation frequency is above zero.  A level that admits
a strict superset of another level's variants is strictly weaker.

A phenomenon-defined level (Table 1's ANOMALY SERIALIZABLE, Remark 10) has no
engine.  Its profile is the Degree 0 row of the same computation over the
scenarios with each ``manifests`` narrowed to the histories the definition
permits: the variant's wrong result is reachable by some history that
forbids none of the level's phenomena.

This reproduces the paper's qualitative results:

* Remark 1: Locking RU « RC « RR « SERIALIZABLE.
* Remark 7: READ COMMITTED « Cursor Stability « REPEATABLE READ.
* Remark 8: READ COMMITTED « Snapshot Isolation.
* Remark 9: REPEATABLE READ »« Snapshot Isolation (each admits a variant the
  other forbids: the reread phantom vs write skew).
* Remark 10: ANOMALY SERIALIZABLE « Snapshot Isolation (the Table 1
  definition, forbidding only A1–A3, admits far more than SI does).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..core.hierarchy import FIGURE_2_EDGES, REMARKS, Figure2Edge, Relation
from ..core.isolation import (
    ANSI_STRICT_LEVELS,
    IsolationLevelName,
    PhenomenonBasedLevel,
)
from ..testbed import ALL_ENGINE_LEVELS
from ..workloads.scenarios import ALL_SCENARIOS, AnomalyScenario
from .coverage import ExploredTable4
from .matrix import compute_table4_explored

__all__ = [
    "Profile",
    "profile_relation",
    "level_profiles",
    "EdgeCheck",
    "verify_figure2_edges",
    "RemarkCheck",
    "verify_remarks",
]

Profile = FrozenSet[Tuple[str, str]]


def profile_relation(first: Profile, second: Profile) -> Relation:
    """Order two levels by the anomaly variants they admit.

    Admitting *more* variants means being *weaker* (the level allows more
    non-serializable behaviour), so a strict superset on the first side means
    ``first « second``.
    """
    if first == second:
        return Relation.EQUIVALENT
    if first > second:
        return Relation.WEAKER
    if first < second:
        return Relation.STRONGER
    return Relation.INCOMPARABLE


def _explored_profiles(table: ExploredTable4) -> Dict[IsolationLevelName, Profile]:
    """Every row's variants that manifest somewhere in their space."""
    return {
        level: frozenset((code, variant)
                         for code, cell in row.items()
                         for variant, frequency in cell.variant_frequencies
                         if frequency > 0)
        for level, row in table.cells.items()
    }


def _permitted(scenario: AnomalyScenario,
               definition: PhenomenonBasedLevel) -> AnomalyScenario:
    """``scenario`` whose variants manifest only in histories ``definition``
    permits."""
    def narrowed(manifests):
        return lambda outcome: (manifests(outcome)
                                and definition.permits(outcome.history))
    return replace(scenario, variants=[
        replace(variant, manifests=narrowed(variant.manifests))
        for variant in scenario.variants])


def level_profiles(levels: Sequence[IsolationLevelName],
                   scenarios: Sequence[AnomalyScenario] = ALL_SCENARIOS,
                   ) -> Dict[IsolationLevelName, Profile]:
    """The whole-space variant profile of every requested level.

    Engine levels read their row of the explored Table 4; a level without an
    engine is one of Table 1's phenomenon definitions
    (:data:`~repro.core.isolation.ANSI_STRICT_LEVELS`) and reads the Degree 0
    row over the scenarios narrowed to the histories it permits.
    """
    engine_levels = [level for level in levels if level in ALL_ENGINE_LEVELS]
    profiles = _explored_profiles(
        compute_table4_explored(engine_levels, scenarios))
    for level in levels:
        if level not in profiles:
            definition = ANSI_STRICT_LEVELS[level]
            table = compute_table4_explored(
                (IsolationLevelName.DEGREE_0,),
                [_permitted(scenario, definition) for scenario in scenarios])
            profiles[level] = _explored_profiles(table)[
                IsolationLevelName.DEGREE_0]
    return {level: profiles[level] for level in levels}


@dataclass(frozen=True)
class EdgeCheck:
    """The empirical verdict for one Figure 2 edge."""

    edge: Figure2Edge
    observed: Relation
    holds: bool
    lower_only: Profile
    higher_only: Profile


def verify_figure2_edges(profiles: Optional[Mapping[IsolationLevelName, Profile]] = None,
                         ) -> List[EdgeCheck]:
    """Check every ``lower « higher`` edge of Figure 2 against engine behaviour."""
    needed = {edge.lower for edge in FIGURE_2_EDGES} | {edge.higher for edge in FIGURE_2_EDGES}
    if profiles is None:
        profiles = level_profiles(sorted(needed, key=lambda level: level.value))
    checks: List[EdgeCheck] = []
    for edge in FIGURE_2_EDGES:
        lower = profiles[edge.lower]
        higher = profiles[edge.higher]
        observed = profile_relation(lower, higher)
        checks.append(EdgeCheck(
            edge=edge,
            observed=observed,
            holds=observed is Relation.WEAKER,
            lower_only=frozenset(lower - higher),
            higher_only=frozenset(higher - lower),
        ))
    return checks


@dataclass(frozen=True)
class RemarkCheck:
    """The empirical verdict for one of the paper's numbered remarks."""

    remark: int
    first: IsolationLevelName
    second: IsolationLevelName
    expected: Relation
    observed: Relation

    @property
    def holds(self) -> bool:
        return self.observed is self.expected

    def describe(self) -> str:
        return (
            f"Remark {self.remark}: {self.first.value} {self.expected.value} "
            f"{self.second.value} — observed {self.observed.value}"
        )


def verify_remarks(remarks=REMARKS) -> List[RemarkCheck]:
    """Verify every ordering remark of the paper empirically."""
    needed = {level for _, first, _, second in remarks for level in (first, second)}
    profiles = level_profiles(sorted(needed, key=lambda level: level.value))
    checks: List[RemarkCheck] = []
    for remark, first, expected, second in remarks:
        observed = profile_relation(profiles[first], profiles[second])
        checks.append(RemarkCheck(
            remark=remark,
            first=first,
            second=second,
            expected=expected,
            observed=observed,
        ))
    return checks
