"""The static/dynamic cross-validation gate.

Two directions, both load-bearing for the soundness contract of
``repro.static_analysis``:

* **No false impossibility** — a (variant, level) scope the analyzer calls
  ``IMPOSSIBLE`` must never manifest its anomaly in the *exhaustively
  explored* schedule space.  One dynamic witness inside a statically-pruned
  scope would mean the pruning silently corrupts Table 4.
* **No lost witnesses** — every cell the paper's Table 4 (and our extension
  rows) marks possible must have at least one variant the analyzer leaves
  unpruned (``POSSIBLE`` or ``UNKNOWN``), so the explorer still gets to find
  the witness.

The gate also pins the headline end-to-end property: the explored Table 4,
which prunes by default, reproduces ``EXPECTED_TABLE_4`` exactly while
actually skipping a substantial share of the variant spaces.

The first direction executes every scope through ``explore_variant``, which
never prunes, so it cannot pass by skipping the spaces it checks.  It holds
at the named levels and at every policy of the Table 2 design space: the
72 combinations of item, predicate and cursor read locks with short or long
write locks, each executed by a locking engine that takes that policy.
"""

from __future__ import annotations

import itertools

from repro.analysis.matrix import (
    EXPECTED_TABLE_4,
    EXTENSION_EXPECTATIONS,
    TABLE_4_LEVELS,
    compute_table4_explored,
)
from repro.core.isolation import IsolationLevelName, Possibility
from repro.explorer.scenarios import DEFAULT_MAX_SCHEDULES, explore_variant
from repro.explorer.schedules import schedule_space
from repro.explorer.trie_executor import TrieExecutor
from repro.locking.modes import LockDuration, LockMode
from repro.locking.policy import LockingPolicy, LockRule
from repro.static_analysis import Verdict, analyze_scenario_programs
from repro.workloads.scenarios import ALL_SCENARIOS, scenario_by_code

EXTENSION_LEVELS = (IsolationLevelName.DEGREE_0,
                    IsolationLevelName.ORACLE_READ_CONSISTENCY)
ALL_EXPECTATIONS = {**EXPECTED_TABLE_4, **EXTENSION_EXPECTATIONS}
ALL_LEVELS = tuple(TABLE_4_LEVELS) + EXTENSION_LEVELS


def _static_verdict(scenario_code, variant, level):
    return analyze_scenario_programs(variant.build_programs(), scenario_code,
                                     level)


def _shared(duration):
    return LockRule(LockMode.SHARED, duration)


#: Every combination of item read (none, short, long), predicate read
#: (none, short, long), cursor read (none, short, cursor, long) and write
#: (X short, X long).  The level is a label: the engine follows the policy.
POLICY_SPACE = tuple(
    LockingPolicy(IsolationLevelName.SERIALIZABLE, item_read=item,
                  predicate_read=predicate, write=write, cursor_read=cursor)
    for item, predicate, cursor, write in itertools.product(
        (None, _shared(LockDuration.SHORT), _shared(LockDuration.LONG)),
        (None, _shared(LockDuration.SHORT), _shared(LockDuration.LONG)),
        (None, _shared(LockDuration.SHORT), _shared(LockDuration.CURSOR),
         _shared(LockDuration.LONG)),
        (LockRule(LockMode.EXCLUSIVE, LockDuration.SHORT),
         LockRule(LockMode.EXCLUSIVE, LockDuration.LONG))))


def _manifesting_schedules(variant, policy):
    """Execute ``variant``'s whole space under ``policy``: manifesting count."""
    programs = variant.build_programs()
    space = schedule_space(programs, max_schedules=DEFAULT_MAX_SCHEDULES)
    assert space.mode == "exhaustive"
    executor = TrieExecutor(variant.build_database(), programs,
                            IsolationLevelName.SERIALIZABLE, policy=policy)
    return sum(1 for _, outcome in executor.run_batch(space.schedules)
               if not outcome.stalled and variant.manifests(outcome))


class TestNoFalseImpossibility:
    def test_impossible_scopes_never_manifest_dynamically(self):
        """Exhaustively explore every statically-IMPOSSIBLE scope: 0 witnesses.

        This is the expensive direction done honestly: the unpruned explorer
        covers the *whole* interleaving space of each scope the analyzer
        claims impossible, so a single manifesting schedule anywhere would
        fail the gate.
        """
        checked = 0
        for level in ALL_LEVELS:
            for scenario in ALL_SCENARIOS:
                for variant in scenario.variants:
                    verdict = _static_verdict(scenario.code, variant, level)
                    if verdict.verdict is not Verdict.IMPOSSIBLE:
                        continue
                    explored = explore_variant(variant, level,
                                               scenario_code=scenario.code)
                    checked += 1
                    assert explored.schedules > 0 and not explored.pruned
                    assert explored.schedules == explored.space_size
                    assert explored.manifested == 0, (
                        f"{scenario.code}/{variant.name} at "
                        f"{level.value}: statically impossible "
                        f"({verdict.reason}) but dynamically witnessed")
        # The gate must actually exercise a large set of scopes, or a
        # regression that stops producing IMPOSSIBLE verdicts would pass
        # vacuously: 36 on the six Table 4 levels, 3 on Degree 0 and Oracle
        # Read Consistency.
        assert checked == 39

    def test_impossible_policies_never_manifest_dynamically(self):
        """Every IMPOSSIBLE (policy, variant) of the Table 2 design space
        executes its whole space under that policy: 0 witnesses."""
        assert len(POLICY_SPACE) == 72
        impossible = 0
        for policy in POLICY_SPACE:
            for scenario in ALL_SCENARIOS:
                for variant in scenario.variants:
                    verdict = analyze_scenario_programs(
                        variant.build_programs(), scenario.code, policy)
                    if verdict.verdict is not Verdict.IMPOSSIBLE:
                        continue
                    impossible += 1
                    assert _manifesting_schedules(variant, policy) == 0, (
                        f"{scenario.code}/{variant.name} under "
                        f"{policy.describe()}: statically impossible "
                        f"({verdict.reason}) but dynamically witnessed")
        # 144 under the rules this derivation replaced, plus P1 where item
        # and cursor reads are locked and predicate reads are not.
        assert impossible == 156

    def test_a_short_write_lock_opens_the_phantom(self):
        """A long predicate lock alone does not rule out P3: T2's short X
        lock is released, and T1's predicate read sees the uncommitted
        insert (a dirty predicate read, which no PATTERNS row names)."""
        variant = scenario_by_code("P3").variant("employee-count-H3")
        trapped = [policy for policy in POLICY_SPACE
                   if policy.predicate_read is not None
                   and policy.predicate_read.duration is LockDuration.LONG
                   and policy.write.duration is LockDuration.SHORT]
        assert len(trapped) == 12
        for policy in trapped:
            verdict = analyze_scenario_programs(variant.build_programs(),
                                                "P3", policy)
            assert verdict.verdict is not Verdict.IMPOSSIBLE, verdict.reason
            assert _manifesting_schedules(variant, policy) == 10

    def test_witnessed_cells_are_statically_reachable(self):
        """Every expected-possible cell keeps at least one unpruned variant."""
        for level, row in ALL_EXPECTATIONS.items():
            for code, expected in row.items():
                if expected is Possibility.NOT_POSSIBLE:
                    continue
                scenario = scenario_by_code(code)
                verdicts = [
                    _static_verdict(code, variant, level)
                    for variant in scenario.variants
                ]
                unpruned = [v for v in verdicts
                            if v.verdict is not Verdict.IMPOSSIBLE]
                assert unpruned, (
                    f"{code} at {level.value}: expected {expected} but every "
                    f"variant is statically pruned")
                if expected is Possibility.POSSIBLE:
                    # POSSIBLE means *every* variant manifests, so none may
                    # be pruned.
                    assert len(unpruned) == len(verdicts), (
                        f"{code} at {level.value}: expected POSSIBLE but some "
                        f"variant is statically pruned")


class TestPrunedTable4:
    def test_pruned_table_reproduces_the_paper_and_skips_work(self):
        pruned = compute_table4_explored()
        assert pruned.possibilities() == EXPECTED_TABLE_4
        assert pruned.static_pruning
        assert pruned.total_pruned_variants() > 0
        # Pruned scopes execute nothing, so the pruned table must cover
        # strictly fewer schedules than the seed's full count.
        assert pruned.total_schedules() < 1367 * len(TABLE_4_LEVELS)
        # Pruned cells surface their static proof sketches.
        rendered = pruned.render()
        assert "statically impossible" in rendered
        for row in pruned.cells.values():
            for cell in row.values():
                if cell.pruned_variants:
                    assert len(cell.static_reasons) == cell.pruned_variants
                    assert all(reason for _, reason in cell.static_reasons)
