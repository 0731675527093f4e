"""Explorer-driven Table 4: the paper's anomaly matrix as a measurement.

The paper establishes each Table 4 cell with ONE hand-picked adversarial
interleaving.  This walkthrough recomputes the whole table by exhausting the
*entire* interleaving space of every scenario variant under every isolation
level: each cell becomes a measured manifestation frequency backed by a
replayable witness interleaving, and the blocked / deadlocked / stalled
schedules that arbitrary interleavings produce under locking engines are
ordinary non-manifesting results along the way.  Two extension rows ride
along: GLPT Degree 0 and Oracle Read Consistency, which the paper discusses
but does not print in the table.

By default the sweep does not execute a variant space that the static
analyzer (``repro.static_analysis``) proves impossible at the level: such a
space cannot manifest, so it counts as non-manifesting unexecuted.  The
rendered table marks a cell with a skipped space ``*`` (``N*``, ``S*``), and
its footnote says how many variant spaces were skipped.  ``compute_table4_explored(
static_pruning=False)`` executes every space and gives the same cells.

The script exits 1 when any cell differs from the paper's table or from the
extension rows' documented expectations, or when the replayed witness does
not manifest.

Run with:  PYTHONPATH=src python examples/table4_explored.py
"""

from __future__ import annotations

import sys

from repro.analysis.matrix import (
    EXPECTED_TABLE_4,
    EXTENSION_EXPECTATIONS,
    TABLE_4_COLUMNS,
    TABLE_4_LEVELS,
    compute_table4_explored,
)
from repro.analysis.report import matrix_matches, render_comparison
from repro.core.isolation import IsolationLevelName
from repro.testbed import engine_factory
from repro.workloads.scenarios import run_variant, scenario_by_code


def main() -> int:
    # 1. Explore every variant space under the six Table 4 levels and the two
    #    extension levels, except the spaces the static rules close (the
    #    scenario spaces are small, so the default budget is exhaustive and
    #    the run takes well under a second).
    table = compute_table4_explored(TABLE_4_LEVELS + tuple(EXTENSION_EXPECTATIONS))
    print(table.render())

    # 2. Compare cell for cell: the paper's rows against its printed table,
    #    the extension rows against their documented expectations.
    expected = {**EXPECTED_TABLE_4, **EXTENSION_EXPECTATIONS}
    measured = table.possibilities()
    ok, mismatches = matrix_matches(expected, measured)
    print()
    print(render_comparison(expected, measured, TABLE_4_COLUMNS,
                            title="Expected vs. explored ('!' marks mismatches)"))
    print(f"\nmatches the paper and the extension rows: {ok}")
    for mismatch in mismatches:
        print(f"  - {mismatch}")

    # 3. Every witnessed cell carries a replayable exhibit.  Replay the
    #    Snapshot Isolation write-skew witness through run_variant to show
    #    the measured claim is independently checkable.
    level = IsolationLevelName.SNAPSHOT_ISOLATION
    variant_name, interleaving, history = table.witness(level, "A5B")
    print(f"\nA5B under {level.value}: witness variant {variant_name!r}")
    print(f"  interleaving: {interleaving}")
    print(f"  history:      {history}")
    replay = run_variant(scenario_by_code("A5B").variant(variant_name),
                         engine_factory(level), "A5B",
                         interleaving=interleaving)
    print(f"  replays to manifestation: {replay.manifested}")

    # 4. The frequencies behind a "Sometimes Possible" cell: Cursor Stability
    #    loses updates through plain reads but protects the cursor path.
    cell = table.cell(IsolationLevelName.CURSOR_STABILITY, "P4")
    print(f"\nP4 under Cursor Stability ({cell.possibility}):")
    for name, frequency in cell.variant_frequencies:
        print(f"  {name:28s} manifests in {frequency * 100:5.1f}% of schedules")
    return 0 if ok and replay.manifested else 1


if __name__ == "__main__":
    sys.exit(main())
