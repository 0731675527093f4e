"""Unit tests for the level-aware verdict rules (repro.static_analysis.verdicts)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.isolation import IsolationLevelName
from repro.core.phenomena import PATTERNS
from repro.engine.programs import Commit, ReadItem, TransactionProgram, WriteItem
from repro.analysis.matrix import TABLE_4_COLUMNS
from repro.locking.modes import LockDuration, LockMode
from repro.locking.policy import POLICIES, LockingPolicy, LockRule
from repro.static_analysis import (CLASS_RULES, SCENARIO_RULES, Verdict,
                                   analyze_scenario_programs)
from repro.workloads.scenarios import ALL_SCENARIOS, scenario_by_code

D0 = IsolationLevelName.DEGREE_0
RU = IsolationLevelName.READ_UNCOMMITTED
RC = IsolationLevelName.READ_COMMITTED
CS = IsolationLevelName.CURSOR_STABILITY
RR = IsolationLevelName.REPEATABLE_READ
SI = IsolationLevelName.SNAPSHOT_ISOLATION
SER = IsolationLevelName.SERIALIZABLE


def _program(txn, *steps):
    return TransactionProgram(txn=txn, steps=list(steps))


def _lost_update_programs():
    return [
        _program(1, ReadItem("x"), WriteItem("x", 1), Commit()),
        _program(2, ReadItem("x"), WriteItem("x", 2), Commit()),
    ]


def _scenario_verdict(code, variant_name, level):
    variant = scenario_by_code(code).variant(variant_name)
    return analyze_scenario_programs(variant.build_programs(), code, level)


_HELD = {
    "P0": "write X long",
    "P1": "write X long",
    "P4C": "cursor read S long",
    "P4": "item read S long and cursor read S long",
    "P2": "item read S long and cursor read S long",
    "P3": "predicate read S long",
    "A5A": "item read S long and cursor read S long",
    "A5B": "item read S long and cursor read S long",
}


class TestLockReasons:
    """Each IMPOSSIBLE verdict at a Table 2 level names the rule that
    decides it: the lock a's class holds to the terminal."""

    @pytest.mark.parametrize("level, codes", [
        (D0, ()),
        (RU, ("P0",)),
        (RC, ("P0", "P1")),
        (CS, ("P0", "P1")),
        (RR, ("P0", "P1", "P4C", "P4", "P2", "A5A", "A5B")),
        (SER, ("P0", "P1", "P4C", "P4", "P2", "P3", "A5A", "A5B")),
    ], ids=lambda value: getattr(value, "name", ""))
    def test_impossible_reasons_name_the_held_rule(self, level, codes):
        held = {}
        for scenario in ALL_SCENARIOS:
            for variant in scenario.variants:
                verdict = analyze_scenario_programs(
                    variant.build_programs(), scenario.code, level)
                if verdict.verdict is Verdict.IMPOSSIBLE:
                    pattern, argument = verdict.reason.split(": ", 1)
                    assert pattern.split()[0] in (scenario.code, "A2")
                    rule, _, waits = argument.partition(
                        " held to T1's terminal; ")
                    assert waits.endswith(" must wait for it"), verdict.reason
                    held.setdefault(scenario.code, set()).add(rule)
        assert held == {code: {_HELD[code]} for code in codes}

    def test_p1_names_the_waiting_reads(self):
        reason = _scenario_verdict("P1", "read-of-rolled-back-write",
                                   RC).reason
        assert reason == ("P1 w1[x]...r2[x]...(c1 or a1): write X long held "
                          "to T1's terminal; item read S short and cursor "
                          "read S short must wait for it")

    def test_only_snapshot_isolation_names_first_committer_wins(self):
        orc = IsolationLevelName.ORACLE_READ_CONSISTENCY
        for level in tuple(POLICIES) + (SI, orc):
            verdict = _scenario_verdict("A5B", "plain-reads", level)
            assert ("first-committer-wins" in verdict.reason) is (level is SI), \
                (level, verdict.reason)


class TestClassRules:
    """The operation class -> lock rule map cannot drift from its two
    sides: a new PATTERNS class or a new policy lock slot fails here."""

    def test_every_pattern_class_takes_some_rule(self):
        classes = {row.a for row in PATTERNS} | {row.b for row in PATTERNS}
        assert classes <= set(CLASS_RULES)
        assert all(CLASS_RULES[cls] for cls in classes)

    def test_every_policy_rule_is_read_by_some_class(self):
        slots = {f.name for f in dataclasses.fields(LockingPolicy)
                 if "LockRule" in str(f.type)}
        read = {name for names in CLASS_RULES.values() for name in names}
        assert slots == read


class TestPolicyValues:
    """A policy value is analysed like the level it names, or any other."""

    def test_a_table_2_policy_matches_its_level(self):
        for level, policy in POLICIES.items():
            for code in TABLE_4_COLUMNS:
                by_level = analyze_scenario_programs(_lost_update_programs(),
                                                     code, level)
                by_policy = analyze_scenario_programs(_lost_update_programs(),
                                                      code, policy)
                assert by_policy == by_level

    def test_a_long_read_lock_alone_kills_the_lost_update(self):
        policy = dataclasses.replace(
            POLICIES[RC], item_read=LockRule(LockMode.SHARED, LockDuration.LONG),
            cursor_read=LockRule(LockMode.SHARED, LockDuration.LONG))
        verdict = analyze_scenario_programs(_lost_update_programs(), "P4",
                                            policy)
        assert verdict.verdict is Verdict.IMPOSSIBLE
        assert verdict.level is RC


class TestPatternAnalysis:
    """Each rule's conflict-pattern argument on plain hand-built programs."""

    def test_covers_every_pattern_code(self):
        assert tuple(SCENARIO_RULES) == TABLE_4_COLUMNS
        for code in TABLE_4_COLUMNS:
            verdict = analyze_scenario_programs(_lost_update_programs(), code, RC)
            assert verdict.code == code
            assert verdict.level is RC
            assert verdict.reason

    def test_structural_impossibility_without_candidate_edges(self):
        # Two pure readers: no writes at all, so every write-involved
        # phenomenon is structurally impossible even at Degree 0.
        readers = [
            _program(1, ReadItem("x"), Commit()),
            _program(2, ReadItem("x"), Commit()),
        ]
        for code in ("P0", "P1", "P2", "P4", "A5A", "A5B"):
            verdict = analyze_scenario_programs(readers, code, D0)
            assert verdict.verdict is Verdict.IMPOSSIBLE, code

    def test_long_write_locks_kill_p0(self):
        assert analyze_scenario_programs(_lost_update_programs(), "P0", RU) \
            .verdict is Verdict.IMPOSSIBLE
        # ...but not at Degree 0, whose write locks are short.
        assert analyze_scenario_programs(_lost_update_programs(), "P0", D0) \
            .verdict is not Verdict.IMPOSSIBLE

    def test_possible_verdicts_carry_witnessing_edges(self):
        p4 = analyze_scenario_programs(_lost_update_programs(), "P4", RC)
        assert p4.verdict is Verdict.POSSIBLE
        assert p4.edges
        assert any("x" in edge.describe() for edge in p4.edges)

    def test_serializable_kills_every_pattern_here(self):
        for code in TABLE_4_COLUMNS:
            verdict = analyze_scenario_programs(_lost_update_programs(), code, SER)
            assert verdict.verdict is Verdict.IMPOSSIBLE, code

    def test_unprofiled_level_raises(self):
        with pytest.raises(KeyError):
            analyze_scenario_programs(_lost_update_programs(), "P0",
                                      IsolationLevelName.ANOMALY_SERIALIZABLE)

    def test_codes_outside_table_4_have_no_rule(self):
        for code in ("A1", "A2", "A3", "P5"):
            with pytest.raises(KeyError, match="no static rule"):
                analyze_scenario_programs(_lost_update_programs(), code, RC)


class TestScenarioVerdicts:
    """Spot checks against the paper's Table 4 rows (scenario semantics)."""

    def test_read_uncommitted_only_kills_p0(self):
        assert _scenario_verdict("P0", "interleaved-writes", RU).verdict \
            is Verdict.IMPOSSIBLE
        assert _scenario_verdict("P1", "read-of-rolled-back-write", RU).verdict \
            is Verdict.POSSIBLE

    def test_read_committed_kills_dirty_reads(self):
        assert _scenario_verdict("P1", "read-of-rolled-back-write", RC).verdict \
            is Verdict.IMPOSSIBLE
        assert _scenario_verdict("P4", "plain-read-modify-write", RC).verdict \
            is Verdict.POSSIBLE

    def test_repeatable_read_kills_item_phenomena(self):
        for code, variant_name in (("P4", "plain-read-modify-write"),
                                   ("P2", "plain-reread"),
                                   ("A5A", "audit-across-transfer"),
                                   ("A5B", "plain-reads")):
            verdict = _scenario_verdict(code, variant_name, RR)
            assert verdict.verdict is Verdict.IMPOSSIBLE, (code, verdict.reason)

    def test_snapshot_isolation_splits_the_skews(self):
        # The paper's SI headline: read skew dies (single-snapshot reads),
        # write skew survives (first-committer-wins only checks ww).
        assert _scenario_verdict("A5A", "audit-across-transfer", SI).verdict \
            is Verdict.IMPOSSIBLE
        assert _scenario_verdict("A5B", "plain-reads", SI).verdict \
            is Verdict.POSSIBLE

    def test_serializable_kills_everything_statically_visible(self):
        for code, variant_name in (("P0", "interleaved-writes"),
                                   ("P4", "plain-read-modify-write"),
                                   ("A5B", "plain-reads")):
            assert _scenario_verdict(code, variant_name, SER).verdict \
                is Verdict.IMPOSSIBLE, code

    def test_degree_0_claims_nothing_impossible(self):
        for scenario_code, variant_name in (("P0", "interleaved-writes"),
                                            ("P4", "plain-read-modify-write"),
                                            ("A5A", "audit-across-transfer")):
            verdict = _scenario_verdict(scenario_code, variant_name, D0)
            assert verdict.verdict is not Verdict.IMPOSSIBLE, scenario_code

    def test_opaque_variants_never_claim_impossible_from_structure(self):
        # Phantom scenarios go through predicate selects (opaque footprints):
        # no structural IMPOSSIBLE may fire below SERIALIZABLE's predicate
        # locks... and even there the rule must rest on lock scope, not on an
        # (empty) edge set.
        verdict = _scenario_verdict("P3", "employee-count-H3", RR)
        assert verdict.verdict is Verdict.UNKNOWN

    def test_describe_renders_code_level_and_verdict(self):
        verdict = _scenario_verdict("P0", "interleaved-writes", RU)
        text = verdict.describe()
        assert "P0" in text and "impossible" in text.lower()
