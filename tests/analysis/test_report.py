"""Unit tests for the ASCII table renderers (repro.analysis.report)."""

from __future__ import annotations

from repro.analysis.report import (
    matrix_matches,
    render_comparison,
    render_possibility_matrix,
    render_table,
)
from repro.core.isolation import IsolationLevelName, Possibility


class TestRenderTable:
    def test_columns_are_aligned(self):
        text = render_table(["a", "long header"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_title_is_prepended(self):
        text = render_table(["a"], [["1"]], title="My table")
        assert text.splitlines()[0] == "My table"

    def test_non_string_cells_are_stringified(self):
        text = render_table(["n"], [[42]])
        assert "42" in text


class TestPossibilityMatrix:
    MATRIX = {
        IsolationLevelName.READ_COMMITTED: {
            "P1": Possibility.NOT_POSSIBLE, "P2": Possibility.POSSIBLE,
        },
        IsolationLevelName.SERIALIZABLE: {
            "P1": Possibility.NOT_POSSIBLE, "P2": Possibility.NOT_POSSIBLE,
        },
    }

    def test_levels_and_cells_are_rendered(self):
        text = render_possibility_matrix(self.MATRIX, ["P1", "P2"])
        assert "READ COMMITTED" in text
        assert "Possible" in text

    def test_comparison_marks_mismatches(self):
        measured = {
            IsolationLevelName.READ_COMMITTED: {
                "P1": Possibility.POSSIBLE, "P2": Possibility.POSSIBLE,
            },
            IsolationLevelName.SERIALIZABLE: {
                "P1": Possibility.NOT_POSSIBLE, "P2": Possibility.NOT_POSSIBLE,
            },
        }
        text = render_comparison(self.MATRIX, measured, ["P1", "P2"])
        assert "!" in text and "(expected: " in text

    def test_comparison_without_mismatches_has_no_flags(self):
        text = render_comparison(self.MATRIX, self.MATRIX, ["P1", "P2"])
        assert "!" not in text


class TestMatrixMatches:
    def test_identical_matrices_match(self):
        ok, mismatches = matrix_matches(TestPossibilityMatrix.MATRIX,
                                        TestPossibilityMatrix.MATRIX)
        assert ok and not mismatches

    def test_cell_differences_are_reported(self):
        measured = {
            IsolationLevelName.READ_COMMITTED: {
                "P1": Possibility.POSSIBLE, "P2": Possibility.POSSIBLE,
            },
            IsolationLevelName.SERIALIZABLE: {
                "P1": Possibility.NOT_POSSIBLE, "P2": Possibility.NOT_POSSIBLE,
            },
        }
        ok, mismatches = matrix_matches(TestPossibilityMatrix.MATRIX, measured)
        assert not ok
        assert "READ COMMITTED / P1: expected Not Possible, measured Possible" \
            in mismatches

    def test_missing_rows_are_reported(self):
        ok, mismatches = matrix_matches(TestPossibilityMatrix.MATRIX, {})
        assert not ok and len(mismatches) == 2
