"""Explore the schedule space of a contended workload across isolation levels.

The paper argues each isolation level by exhibiting ONE adversarial
interleaving per anomaly.  The explorer turns that into a measurement: it
enumerates (or samples) the whole interleaving space, executes every schedule
under every level, and reports how often each phenomenon was actually
witnessed — with a concrete witness interleaving for each cell.

Run with:  PYTHONPATH=src python examples/schedule_explorer.py
"""

from __future__ import annotations

from repro.analysis.coverage import build_coverage_report
from repro.core.isolation import IsolationLevelName
from repro.explorer import ExploreOptions, ProgramSetSpec, explore

LEVELS = (
    IsolationLevelName.READ_COMMITTED,
    IsolationLevelName.REPEATABLE_READ,
    IsolationLevelName.SNAPSHOT_ISOLATION,
    IsolationLevelName.SERIALIZABLE,
)


def main() -> None:
    # 1. Lost update: two increments of the same counter, all 20 interleavings.
    spec = ProgramSetSpec.make("increments", transactions=2)
    result = explore(spec, ExploreOptions(levels=LEVELS, mode="exhaustive",
                                      max_schedules=100))
    report = build_coverage_report(result, codes=("P0", "P1", "P2", "P4"))
    print(report.render("Lost update (P4): two read-modify-write increments"))
    witness = report.witness(IsolationLevelName.READ_COMMITTED, "P4")
    if witness:
        interleaving, history = witness
        print(f"\n  witness interleaving: {interleaving}")
        print(f"  realized history:     {history}\n")

    # 2. Write skew: the A5B scenario SI admits but REPEATABLE READ prevents.
    result = explore(ProgramSetSpec.make("write-skew"),
                 ExploreOptions(levels=LEVELS, mode="exhaustive",
                                max_schedules=100))
    print(build_coverage_report(result, codes=("P4", "A5A", "A5B")).render(
        "Write skew (A5B): disjoint writes after overlapping reads"))
    print()

    # 3. Commuting steps: a sharded workload where most interleavings differ
    #    only in the order of steps of disjoint transactions.  Every schedule
    #    executes; the classification memo's class tables see that the
    #    histories differ only across items and classify them once.
    result = explore(ProgramSetSpec.make("sharded-increments"),
                 ExploreOptions(levels=LEVELS, mode="exhaustive",
                                max_schedules=100))
    print(build_coverage_report(result, codes=("P0", "P1", "P4")).render(
        "Sharded increments: commuting steps of disjoint transactions"))
    stats = result.levels[IsolationLevelName.READ_COMMITTED].cache_stats
    print(f"\n  executed {result.executed_schedules() // len(LEVELS)} of "
          f"{result.space.total} schedules per level; at READ COMMITTED "
          f"{stats['misses']} distinct histories, "
          f"{stats['class_misses']} classification pass(es)\n")

    # 4. A large sampled space: seeded, deterministic, streamed chunk by
    #    chunk across every usable core (workers="auto").
    spec = ProgramSetSpec.make("contention", transactions=4, items=4,
                               hot_items=2, operations_per_transaction=2)
    result = explore(spec, ExploreOptions(
        levels=(IsolationLevelName.READ_COMMITTED,), mode="sample",
        max_schedules=2_000, seed=7, workers="auto"))
    report = build_coverage_report(result, codes=("P1", "P2", "P4", "A5A", "A5B"))
    print(report.render(
        f"Sampled contention: 2,000 of {result.space.total:,} interleavings "
        f"({result.workers} worker{'s' if result.workers > 1 else ''})"))
    print(f"\n  deterministic fingerprint: {result.fingerprint()[:16]}…")


if __name__ == "__main__":
    main()
