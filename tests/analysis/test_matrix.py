"""Unit tests for the anomaly-matrix machinery (repro.analysis.matrix)."""

from __future__ import annotations


from repro.analysis.hierarchy_check import level_profiles
from repro.analysis.matrix import (
    EXPECTED_TABLE_4,
    TABLE_4_COLUMNS,
    TABLE_4_LEVELS,
    compute_phenomenon_table,
    compute_table4_explored,
    default_history_corpus,
)
from repro.core.isolation import (
    CORRECTED_LEVELS,
    IsolationLevelName,
    Possibility,
    TABLE_1,
    TABLE_3,
)


class TestExpectedTable4:
    def test_shape_matches_the_paper(self):
        assert set(EXPECTED_TABLE_4) == set(TABLE_4_LEVELS)
        for row in EXPECTED_TABLE_4.values():
            assert set(row) == set(TABLE_4_COLUMNS)

    def test_p0_not_possible_everywhere(self):
        for row in EXPECTED_TABLE_4.values():
            assert row["P0"] is Possibility.NOT_POSSIBLE

    def test_serializable_row_is_all_not_possible(self):
        row = EXPECTED_TABLE_4[IsolationLevelName.SERIALIZABLE]
        assert all(value is Possibility.NOT_POSSIBLE for value in row.values())


class TestComputedRows:
    def test_read_committed_row_matches_the_paper(self):
        level = IsolationLevelName.READ_COMMITTED
        row = compute_table4_explored((level,)).possibilities()[level]
        assert row == EXPECTED_TABLE_4[level]

    def test_snapshot_isolation_row_matches_the_paper(self):
        level = IsolationLevelName.SNAPSHOT_ISOLATION
        row = compute_table4_explored((level,)).possibilities()[level]
        assert row == EXPECTED_TABLE_4[level]

    def test_variant_profile_is_finer_than_the_row(self):
        profiles = level_profiles((IsolationLevelName.REPEATABLE_READ,
                                   IsolationLevelName.SNAPSHOT_ISOLATION))
        rr = profiles[IsolationLevelName.REPEATABLE_READ]
        si = profiles[IsolationLevelName.SNAPSHOT_ISOLATION]
        # Both rows say "phantoms possible", but through different variants.
        assert ("P3", "employee-count-H3") in rr
        assert ("P3", "employee-count-H3") not in si
        assert ("P3", "disjoint-inserts-task-hours") in si
        assert ("A5B", "plain-reads") in si
        assert ("A5B", "plain-reads") not in rr

    def test_phenomenon_defined_profile_excludes_forbidden_patterns(self):
        level = IsolationLevelName.ANOMALY_SERIALIZABLE
        profile = level_profiles((level,))[level]
        # The strict definition forbids A1, and the rolled-back read is A1
        # in every history of its space, so that variant drops out...
        assert ("P1", "read-of-rolled-back-write") not in profile
        # ...but the inconsistent-analysis and write-skew variants remain.
        assert ("P1", "inconsistent-analysis-H1") in profile
        assert ("A5B", "plain-reads") in profile


class TestPhenomenonTables:
    def test_table3_possible_cells_are_achievable(self):
        corpus = default_history_corpus(seed=5, count=150)
        measured = compute_phenomenon_table(
            CORRECTED_LEVELS, ("P0", "P1", "P2", "P3"), corpus)
        assert measured == TABLE_3

    def test_table1_broad_interpretation_matches(self):
        from repro.core.isolation import ANSI_BROAD_LEVELS
        corpus = default_history_corpus(seed=5, count=150)
        measured = compute_phenomenon_table(
            ANSI_BROAD_LEVELS, ("P1", "P2", "P3"), corpus)
        assert measured == TABLE_1

    def test_forbidden_cells_are_never_possible_regardless_of_corpus(self):
        corpus = default_history_corpus(seed=1, count=30)
        measured = compute_phenomenon_table(CORRECTED_LEVELS, ("P0", "P1"), corpus)
        for row in measured.values():
            assert row["P0"] is Possibility.NOT_POSSIBLE

    def test_default_corpus_includes_the_catalogue(self):
        corpus = default_history_corpus(count=10)
        names = {history.name for history in corpus if history.name}
        assert {"H1", "H2", "H3", "H4", "H5"} <= names
