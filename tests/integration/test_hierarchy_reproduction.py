"""Integration test: Figure 2 and the paper's ordering remarks.

Every ``lower « higher`` edge of Figure 2 must come out WEAKER when the two
levels' whole-space variant profiles are compared (the variants whose anomaly
manifests anywhere in their interleaving space), and every numbered remark
(1, 7, 8, 9, 10) must hold — including the incomparability of REPEATABLE
READ and Snapshot Isolation (Remark 9).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.hierarchy_check import (
    level_profiles,
    profile_relation,
    verify_figure2_edges,
    verify_remarks,
)
from repro.core.hierarchy import FIGURE_2_EDGES, Relation
from repro.core.history import parse_history
from repro.core.isolation import ANSI_STRICT_LEVELS, IsolationLevelName
from repro.core.phenomena import by_code
from repro.explorer.scenarios import explore_variant
from repro.testbed import engine_factory
from repro.workloads.scenarios import ALL_SCENARIOS, run_variant, scenario_by_code

L = IsolationLevelName

_RC_PROFILE = frozenset({
    ("A5A", "audit-across-transfer"),
    ("A5B", "cursors-on-both-items"), ("A5B", "plain-reads"),
    ("P2", "cursor-stabilized-reread"), ("P2", "plain-reread"),
    ("P3", "disjoint-inserts-task-hours"), ("P3", "employee-count-H3"),
    ("P4", "both-through-cursors"), ("P4", "plain-read-modify-write"),
    ("P4C", "cursor-vs-plain-writer"),
})
_RU_PROFILE = _RC_PROFILE | {("P1", "inconsistent-analysis-H1"),
                             ("P1", "read-of-rolled-back-write")}

#: Every engine level's whole-space profile: Degree 0 admits all 13
#: variants, then 12, 10, 6, 8, 2, 3 and 0.
ENGINE_PROFILES = {
    L.DEGREE_0: _RU_PROFILE | {("P0", "interleaved-writes")},
    L.READ_UNCOMMITTED: _RU_PROFILE,
    L.READ_COMMITTED: _RC_PROFILE,
    L.CURSOR_STABILITY: frozenset({
        ("A5A", "audit-across-transfer"), ("A5B", "plain-reads"),
        ("P2", "plain-reread"),
        ("P3", "disjoint-inserts-task-hours"), ("P3", "employee-count-H3"),
        ("P4", "plain-read-modify-write"),
    }),
    L.ORACLE_READ_CONSISTENCY: _RC_PROFILE - {
        ("P4", "both-through-cursors"), ("P4C", "cursor-vs-plain-writer")},
    L.REPEATABLE_READ: frozenset({("P3", "disjoint-inserts-task-hours"),
                                  ("P3", "employee-count-H3")}),
    L.SNAPSHOT_ISOLATION: frozenset({
        ("A5B", "cursors-on-both-items"), ("A5B", "plain-reads"),
        ("P3", "disjoint-inserts-task-hours"),
    }),
    L.SERIALIZABLE: frozenset(),
}


@pytest.fixture(scope="module")
def profiles():
    levels = sorted(
        {edge.lower for edge in FIGURE_2_EDGES} | {edge.higher for edge in FIGURE_2_EDGES},
        key=lambda level: level.value,
    )
    return level_profiles(levels)


@pytest.mark.parametrize("level", ENGINE_PROFILES, ids=lambda level: level.value)
def test_engine_level_profile_is_pinned(profiles, level):
    assert profiles[level] == ENGINE_PROFILES[level]


@pytest.mark.parametrize("level", ENGINE_PROFILES, ids=lambda level: level.value)
def test_printed_interleavings_give_the_whole_space_profile(profiles, level):
    """At every engine level, ``run_variant`` on each variant's printed
    interleaving (the paper's own history) admits exactly the variants whose
    whole space manifests: no engine lets a variant through only in a
    history the paper did not print.  (ANOMALY SERIALIZABLE differs: see
    :func:`test_the_h1_style_reread_is_found_by_search`.)"""
    factory = engine_factory(level)
    printed = {(scenario.code, variant.name)
               for scenario in ALL_SCENARIOS for variant in scenario.variants
               if run_variant(variant, factory, scenario.code).manifested}
    assert printed == profiles[level]


def test_every_figure2_edge_holds(profiles):
    checks = verify_figure2_edges(profiles)
    failing = [check for check in checks if not check.holds]
    assert not failing, [
        (check.edge.lower.value, check.edge.higher.value, check.observed.value)
        for check in failing
    ]


def test_edges_are_strict_not_equivalences(profiles):
    for check in verify_figure2_edges(profiles):
        assert check.lower_only, (
            f"{check.edge.lower.value} should admit something "
            f"{check.edge.higher.value} forbids"
        )


def test_remark9_repeatable_read_incomparable_with_snapshot(profiles):
    rr = profiles[IsolationLevelName.REPEATABLE_READ]
    si = profiles[IsolationLevelName.SNAPSHOT_ISOLATION]
    assert profile_relation(rr, si) is Relation.INCOMPARABLE
    # The differentiators are exactly the ones the paper names: phantoms for
    # REPEATABLE READ, write skew for Snapshot Isolation.
    assert any(code == "P3" for code, _ in rr - si)
    assert any(code == "A5B" for code, _ in si - rr)


def test_all_numbered_remarks_hold():
    checks = verify_remarks()
    failing = [check.describe() for check in checks if not check.holds]
    assert not failing, failing


def test_remark8_snapshot_is_strictly_stronger_than_read_committed(profiles):
    rc = profiles[IsolationLevelName.READ_COMMITTED]
    si = profiles[IsolationLevelName.SNAPSHOT_ISOLATION]
    assert profile_relation(rc, si) is Relation.WEAKER
    assert si < rc


def test_remarks_9_and_10_on_whole_spaces(profiles):
    """The numbers behind Remarks 9 and 10, read from whole spaces."""
    rr, si = profiles[L.REPEATABLE_READ], profiles[L.SNAPSHOT_ISOLATION]
    assert rr - si == {("P3", "employee-count-H3")}
    assert si - rr == {("A5B", "plain-reads"), ("A5B", "cursors-on-both-items")}
    # Table 1's ANOMALY SERIALIZABLE admits every Degree 0 variant but the
    # rolled-back read (A1 in every history of its space)...
    anomaly_serializable = level_profiles((L.ANOMALY_SERIALIZABLE,))[
        L.ANOMALY_SERIALIZABLE]
    assert len(anomaly_serializable) == 12
    assert si < anomaly_serializable                # Remark 10
    assert profiles[L.DEGREE_0] - anomaly_serializable == {
        ("P1", "read-of-rolled-back-write")}
    # ...including both rereads: their printed interleavings show A2, but
    # another history of the same space rereads a dirty value instead.
    assert {("P2", "plain-reread"),
            ("P2", "cursor-stabilized-reread")} <= anomaly_serializable


def test_the_h1_style_reread_is_found_by_search():
    """The Degree 0 history that puts ``plain-reread`` in ANOMALY
    SERIALIZABLE: broad P1 and P2, but none of the strict A1, A2, A3 that
    Table 1's definition forbids — the paper's H1 critique, found by search
    rather than printed."""
    definition = ANSI_STRICT_LEVELS[L.ANOMALY_SERIALIZABLE]
    variant = scenario_by_code("P2").variant("plain-reread")
    permitted = replace(variant, manifests=lambda outcome: (
        variant.manifests(outcome) and definition.permits(outcome.history)))
    exploration = explore_variant(permitted, L.DEGREE_0, "P2")
    assert exploration.witness == (1, 2, 2, 1, 1, 2)
    assert exploration.witness_history == \
        "r1[x=100] r2[x=100] w2[x=110] r1[x=110] c1 c2"
    history = parse_history(exploration.witness_history)
    assert {code: by_code(code).occurs_in(history)
            for code in ("P1", "P2", "A1", "A2", "A3")} == {
        "P1": True, "P2": True, "A1": False, "A2": False, "A3": False}
