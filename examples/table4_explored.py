"""Explorer-driven Table 4: the paper's anomaly matrix as a measurement.

The paper establishes each Table 4 cell with ONE hand-picked adversarial
interleaving.  This walkthrough recomputes the whole table by exhausting the
*entire* interleaving space of every scenario variant under every isolation
level: each cell becomes a measured manifestation frequency backed by a
replayable witness interleaving, and the blocked / deadlocked / stalled
schedules that arbitrary interleavings produce under locking engines are
ordinary non-manifesting results along the way.

By default the sweep does not execute a variant space that the static
analyzer (``repro.static_analysis``) proves impossible at the level: such a
space cannot manifest, so it counts as non-manifesting unexecuted.  The
rendered table marks a cell with a skipped space ``*`` (``N*``, ``S*``), and
its footnote says how many variant spaces were skipped.  ``compute_table4_explored(
static_pruning=False)`` executes every space and gives the same cells.

Run with:  PYTHONPATH=src python examples/table4_explored.py
"""

from __future__ import annotations

from repro.analysis.matrix import (
    EXPECTED_TABLE_4,
    TABLE_4_COLUMNS,
    compute_table4_explored,
)
from repro.analysis.report import matrix_matches, render_comparison
from repro.core.isolation import IsolationLevelName
from repro.testbed import engine_factory
from repro.workloads.scenarios import run_variant, scenario_by_code


def main() -> None:
    # 1. Explore every variant space under every Table 4 level that the
    #    static rules leave open (the curated spaces are small — 5181 of the
    #    full sweep's 8202 schedules stay after pruning — so the default
    #    budget is exhaustive and the run takes well under a second).
    table = compute_table4_explored()
    print(table.render())

    # 2. Compare against the paper's printed table, cell for cell.
    ok, mismatches = matrix_matches(EXPECTED_TABLE_4, table.possibilities())
    print()
    print(render_comparison(EXPECTED_TABLE_4, table.possibilities(),
                            TABLE_4_COLUMNS,
                            title="Paper vs. explored ('!' marks mismatches)"))
    print(f"\nmatches the paper: {ok}"
          + (f" ({len(mismatches)} mismatches)" if mismatches else ""))

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


if __name__ == "__main__":
    main()
