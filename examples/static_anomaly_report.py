"""Static anomaly analysis: Table 4 verdicts from program structure alone.

Before running a single schedule, the level-aware static dependency graph
(``repro.static_analysis``) can already decide a large slice of Table 4: it
enumerates the ww/wr/rw conflict edges among a scenario's transaction
programs, applies the level's Table 2 lock scopes (or multiversion
semantics), and returns a per-(scenario, level) verdict — ``IMPOSSIBLE``
with a proof sketch, ``POSSIBLE`` with the witnessing edges, or ``UNKNOWN``
when opaque footprints (predicate selects, cursor operations) leave the
question undecidable.

This walkthrough prints the static verdict grid next to the paper's
expectations, shows the explaining edge sets, and then lets the explorer
confirm the headline: the default explored Table 4, which skips the
statically-impossible scopes unexecuted, still matches the paper.

Run with:  PYTHONPATH=src python examples/static_anomaly_report.py
"""

from __future__ import annotations

from repro.analysis.matrix import (
    EXPECTED_TABLE_4,
    TABLE_4_COLUMNS,
    TABLE_4_LEVELS,
    compute_table4_explored,
)
from repro.core.isolation import IsolationLevelName
from repro.static_analysis import Verdict, analyze_scenario_programs
from repro.workloads.scenarios import ALL_SCENARIOS, scenario_by_code

MARKS = {Verdict.IMPOSSIBLE: "--", Verdict.POSSIBLE: "P!", Verdict.UNKNOWN: "??"}


def scenario_verdicts(code, level):
    """The static verdict of every variant of one scenario at one level."""
    scenario = scenario_by_code(code)
    return [
        analyze_scenario_programs(variant.build_programs(), code, level)
        for variant in scenario.variants
    ]


def main() -> None:
    # 1. The static verdict grid.  A cell shows one mark per scenario
    #    variant: "--" statically impossible (sound, CI-gated), "P!" the
    #    defining edge pattern exists, "??" opaque footprints leave it open.
    width = max(len(level.value) for level in TABLE_4_LEVELS) + 2
    print("Static verdicts per variant ('--' impossible, 'P!' possible, "
          "'??' unknown):\n")
    print(" " * width + "  ".join(f"{code:<6}" for code in TABLE_4_COLUMNS))
    for level in TABLE_4_LEVELS:
        cells = []
        for code in TABLE_4_COLUMNS:
            marks = [MARKS[v.verdict] for v in scenario_verdicts(code, level)]
            cells.append(f"{','.join(marks):<6}")
        print(f"{level.value:<{width}}" + "  ".join(cells))

    # 2. The proof sketches.  IMPOSSIBLE verdicts explain which rule fired;
    #    POSSIBLE verdicts carry the witnessing conflict edges.
    print("\nWhy Snapshot Isolation splits the skews (the paper's headline):")
    for code in ("A5A", "A5B"):
        for verdict in scenario_verdicts(code, IsolationLevelName.SNAPSHOT_ISOLATION):
            print(f"  {verdict.describe()}")

    print("\nWhy READ COMMITTED still loses updates:")
    for verdict in scenario_verdicts("P4", IsolationLevelName.READ_COMMITTED):
        print(f"  {verdict.describe()}")

    # 3. Static vs dynamic: the explored Table 4, which prunes by default,
    #    must equal the fully-executed one — statically-impossible scopes
    #    count as non-manifesting, which is exactly what running them measures.
    table = compute_table4_explored()
    print("\n" + table.render())
    agrees = table.possibilities() == EXPECTED_TABLE_4
    scopes = sum(len(scenario.variants) for scenario in ALL_SCENARIOS) * \
        len(TABLE_4_LEVELS)
    print(f"\nmatches the paper's Table 4: {agrees}")
    print(f"variant scopes skipped statically: "
          f"{table.total_pruned_variants()} of {scopes}")


if __name__ == "__main__":
    main()
