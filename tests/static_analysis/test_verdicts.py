"""Unit tests for the level-aware verdict rules (repro.static_analysis.verdicts)."""

from __future__ import annotations

import pytest

from repro.core.isolation import IsolationLevelName
from repro.engine.programs import Commit, ReadItem, TransactionProgram, WriteItem
from repro.analysis.matrix import TABLE_4_COLUMNS
from repro.static_analysis import SCENARIO_RULES, Verdict, analyze_scenario_programs
from repro.static_analysis.levels import PROFILED_LEVELS, profile_for
from repro.workloads.scenarios import scenario_by_code

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


class TestProfiles:
    def test_every_profiled_level_resolves(self):
        for level in PROFILED_LEVELS:
            profile_for(level)

    def test_phenomenon_defined_levels_have_no_profile(self):
        with pytest.raises(KeyError):
            profile_for(IsolationLevelName.ANSI_READ_COMMITTED)

    def test_lock_scope_booleans_follow_table_2(self):
        assert not profile_for(RU).all_reads_locked
        assert profile_for(RU).write_locks_long
        assert not profile_for(D0).write_locks_long
        assert profile_for(RC).all_reads_locked
        assert not profile_for(RC).read_locks_long
        assert profile_for(RR).read_locks_long
        assert not profile_for(RR).predicate_read_locks_long
        assert profile_for(SER).predicate_read_locks_long
        assert profile_for(SI).snapshot_reads
        assert not profile_for(SI).single_version


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
