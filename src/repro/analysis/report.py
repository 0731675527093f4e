"""ASCII rendering of the paper's tables, for benchmarks and examples.

The benchmark harness prints the same rows the paper reports: a matrix of
isolation levels against phenomena with Possible / Not Possible /
Sometimes Possible cells, and a paper-vs-measured comparison.  The renderers
here are deliberately dependency-free (plain ``str.format``) so they work in
any terminal and diff cleanly in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from ..core.isolation import IsolationLevelName, Possibility

__all__ = [
    "render_table",
    "render_possibility_matrix",
    "render_comparison",
    "matrix_matches",
]


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render a simple ASCII table with column alignment."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(format_row(list(headers)))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(format_row(row) for row in str_rows)
    return "\n".join(lines)


def render_possibility_matrix(matrix: Mapping[IsolationLevelName, Mapping[str, Possibility]],
                              columns: Sequence[str],
                              title: Optional[str] = None) -> str:
    """Render a {level -> {phenomenon -> Possibility}} matrix as the paper prints it."""
    headers = ["Isolation level"] + list(columns)
    rows = []
    for level, row in matrix.items():
        rows.append([level.value] + [str(row.get(column, "")) for column in columns])
    return render_table(headers, rows, title=title)


def render_comparison(expected: Mapping[IsolationLevelName, Mapping[str, Possibility]],
                      measured: Mapping[IsolationLevelName, Mapping[str, Possibility]],
                      columns: Sequence[str],
                      title: Optional[str] = None) -> str:
    """Render expected-vs-measured cells side by side, flagging mismatches with '!'."""
    headers = ["Isolation level"] + list(columns)
    rows = []
    for level, expected_row in expected.items():
        measured_row = measured.get(level, {})
        cells: List[str] = [level.value]
        for column in columns:
            want = expected_row.get(column)
            got = measured_row.get(column)
            if want is None or got is None:
                cells.append("?")
            elif want is got:
                cells.append(str(got))
            else:
                cells.append(f"!{got} (expected: {want})")
        rows.append(cells)
    return render_table(headers, rows, title=title)


def matrix_matches(expected: Mapping[IsolationLevelName, Mapping[str, Possibility]],
                   measured: Mapping[IsolationLevelName, Mapping[str, Possibility]],
                   ) -> Tuple[bool, List[str]]:
    """Compare two matrices cell by cell; return (all-match, mismatch descriptions)."""
    mismatches: List[str] = []
    for level, expected_row in expected.items():
        measured_row = measured.get(level)
        if measured_row is None:
            mismatches.append(f"missing row for {level.value}")
            continue
        for column, want in expected_row.items():
            got = measured_row.get(column)
            if got is not want:
                mismatches.append(
                    f"{level.value} / {column}: expected {want}, measured {got}"
                )
    return (not mismatches, mismatches)
