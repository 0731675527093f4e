"""Partial-order reduction: commutation analysis, canonicalization, soundness.

The load-bearing property is the *soundness gate*: for every registered
program set whose exhaustive space fits a test-friendly budget, exploring with
``reduction="sleep-set"`` must report exactly the same per-level anomaly
coverage — schedule counts, serializable counts, per-phenomenon witness
counts, and witness interleavings — as full enumeration, while executing
fewer (or equal) schedules.
"""

from __future__ import annotations

import pytest

from repro.analysis.coverage import coverage_mismatches
from repro.core.isolation import IsolationLevelName
from repro.explorer import (
    CommutationOracle,
    ExploreOptions,
    ProgramSetSpec,
    build_execution_plan,
    build_program_set,
    explore,
    schedule_space,
)
from repro.explorer.schedules import count_interleavings
from repro.workloads.program_sets import available_program_sets

#: Keep the gate exhaustive but fast: every registered set whose space fits.
GATE_SPACE_LIMIT = 5000

GATE_LEVELS = (
    IsolationLevelName.READ_UNCOMMITTED,
    IsolationLevelName.READ_COMMITTED,
    IsolationLevelName.REPEATABLE_READ,
    IsolationLevelName.SNAPSHOT_ISOLATION,
    IsolationLevelName.SERIALIZABLE,
)


def _gate_specs():
    """Every registered program set (default parameters) with a small space."""
    specs = [ProgramSetSpec.make(name) for name in available_program_sets()]
    # Stress shapes the defaults don't cover: a random contended set with
    # blocking and deadlocks, a multi-shard set, a three-way conflict.
    specs.append(ProgramSetSpec.make("contention", transactions=3, items=3,
                                     hot_items=1, operations_per_transaction=1))
    specs.append(ProgramSetSpec.make("increments", transactions=3))
    selected = []
    for spec in specs:
        _, programs = build_program_set(spec)
        if count_interleavings([len(p) for p in programs]) <= GATE_SPACE_LIMIT:
            selected.append(spec)
    return selected


def assert_identical_coverage(full, reduced, levels=GATE_LEVELS):
    """The reduced exploration must report exactly what full enumeration does."""
    assert coverage_mismatches(full, reduced, levels=levels) == []


class TestCommutationOracle:
    def _oracle(self, name, **params):
        _, programs = build_program_set(ProgramSetSpec.make(name, **params))
        return CommutationOracle(programs)

    def test_same_transaction_never_commutes(self):
        oracle = self._oracle("sharded-increments")
        assert not oracle.commutes(1, 0, 1, 1)

    def test_disjoint_shards_commute(self):
        oracle = self._oracle("sharded-increments", shards=2,
                              transactions_per_shard=1)
        # Transactions 1 and 2 touch x0 and x1 respectively: everything
        # commutes, including their terminals (different conflict components).
        for occ_a in range(3):
            for occ_b in range(3):
                assert oracle.commutes(1, occ_a, 2, occ_b)

    def test_conflicting_steps_do_not_commute(self):
        oracle = self._oracle("increments", transactions=2)
        # Both write x: occurrence 1 (the read-modify-write) must stay ordered.
        assert not oracle.commutes(1, 1, 2, 1)

    def test_terminals_are_ordered_within_a_conflict_component(self):
        oracle = self._oracle("write-skew")
        # T1 commits at occurrence 3; T2's first read touches only x, which
        # T1 never writes — but the commit is a visibility boundary for the
        # whole conflict component, so the pair must not swap.
        assert not oracle.commutes(1, 3, 2, 0)

    def test_footprint_scope_relaxes_terminals_for_locking_engines(self):
        """Locking engines have no snapshot boundaries: a terminal only
        matters to events that conflict with its transaction's accumulated
        footprint, so the write-skew commit/first-read pair above commutes."""
        _, programs = build_program_set(ProgramSetSpec.make("write-skew"))
        oracle = CommutationOracle(programs, terminal_scope="footprint")
        # c1's effective footprint is {r x, r y, w y}; r2[x] is read-only on
        # x — no write-involved overlap, so under footprint scope they swap.
        assert oracle.commutes(1, 3, 2, 0)
        # Conflicting pairs stay ordered regardless of scope: c1 vs w2[x]
        # (T2's write occurrence) overlaps on x.
        assert not oracle.commutes(1, 3, 2, 2)

    def test_unknown_terminal_scope_rejected(self):
        _, programs = build_program_set(ProgramSetSpec.make("write-skew"))
        with pytest.raises(ValueError, match="terminal scope"):
            CommutationOracle(programs, terminal_scope="magic")

    def test_canonical_key_is_a_class_invariant(self):
        _, programs = build_program_set(
            ProgramSetSpec.make("sharded-increments", shards=2,
                               transactions_per_shard=1))
        oracle = CommutationOracle(programs)
        # All interleavings of two fully disjoint transactions are equivalent.
        space = schedule_space(programs, max_schedules=100)
        keys = {oracle.canonical_key(schedule) for schedule in space}
        assert len(keys) == 1

    def test_canonical_key_separates_conflicting_orders(self):
        _, programs = build_program_set(
            ProgramSetSpec.make("increments", transactions=2))
        oracle = CommutationOracle(programs)
        assert oracle.canonical_key((1, 1, 1, 2, 2, 2)) != \
            oracle.canonical_key((2, 2, 2, 1, 1, 1))


class TestExecutionPlan:
    def test_plan_covers_every_schedule(self):
        _, programs = build_program_set(ProgramSetSpec.make("bank-transfer"))
        space = schedule_space(programs, max_schedules=500)
        plan = build_execution_plan(space, programs)
        assert plan.selected == space.selected == 252
        assert len(plan.executed) < plan.selected
        assert all(0 <= slot < len(plan.executed) for slot in plan.assignment)
        # Every representative covers itself.
        schedules = list(space)
        for slot, representative in enumerate(plan.executed):
            position = schedules.index(representative)
            assert plan.assignment[position] == slot

    def test_ratio_on_disjoint_structure(self):
        _, programs = build_program_set(
            ProgramSetSpec.make("sharded-increments", shards=2,
                               transactions_per_shard=1))
        space = schedule_space(programs, max_schedules=100)
        plan = build_execution_plan(space, programs)
        assert len(plan.executed) == 1
        assert plan.ratio == 20.0

    def test_footprint_scope_executes_no_more_than_component_scope(self):
        """The relaxed terminal rule can only coarsen equivalence classes."""
        for name in ("write-skew", "read-skew", "dirty-abort", "bank-transfer"):
            _, programs = build_program_set(ProgramSetSpec.make(name))
            space = schedule_space(programs, max_schedules=5000)
            component = build_execution_plan(space.schedules, programs,
                                             terminal_scope="component")
            footprint = build_execution_plan(space.schedules, programs,
                                             terminal_scope="footprint")
            assert component.terminal_scope == "component"
            assert footprint.terminal_scope == "footprint"
            assert len(footprint.executed) <= len(component.executed), name
            assert footprint.selected == component.selected == space.selected


class TestSoundnessGate:
    """DPOR-reduced coverage must equal exhaustive coverage, set by set."""

    @pytest.mark.parametrize(
        "spec", _gate_specs(), ids=lambda spec: spec.describe())
    def test_reduced_coverage_matches_exhaustive(self, spec):
        full = explore(spec, ExploreOptions(
            levels=GATE_LEVELS, mode="exhaustive",
            max_schedules=GATE_SPACE_LIMIT))
        reduced = explore(spec, ExploreOptions(
            levels=GATE_LEVELS, mode="exhaustive",
            max_schedules=GATE_SPACE_LIMIT,
            reduction="sleep-set"))
        assert reduced.executed_schedules() <= full.executed_schedules()
        assert reduced.total_schedules() == full.total_schedules()
        assert_identical_coverage(full, reduced)

    def test_reduction_achieves_at_least_2x_on_a_registered_set(self):
        result = explore(ProgramSetSpec.make("sharded-increments"),
                         ExploreOptions(levels=GATE_LEVELS, mode="exhaustive",
                                        max_schedules=100, reduction="sleep-set"))
        assert result.reduction_ratio() >= 2.0

    def test_reduction_is_deterministic_and_worker_independent(self):
        spec = ProgramSetSpec.make("bank-transfer")
        serial = explore(spec, ExploreOptions(
            levels=(IsolationLevelName.READ_COMMITTED,),
            mode="exhaustive", max_schedules=300,
            reduction="sleep-set", workers=1, chunk_size=16))
        parallel = explore(spec, ExploreOptions(
            levels=(IsolationLevelName.READ_COMMITTED,),
            mode="exhaustive", max_schedules=300,
            reduction="sleep-set", workers=2, chunk_size=7))
        assert serial.fingerprint() == parallel.fingerprint()
        assert serial.executed_schedules() == parallel.executed_schedules()

    def test_reduction_also_applies_to_sampled_streams(self):
        spec = ProgramSetSpec.make("contention", transactions=3,
                                   operations_per_transaction=2, seed=1)
        full = explore(spec, ExploreOptions(
            levels=(IsolationLevelName.READ_COMMITTED,),
            mode="sample", max_schedules=80, seed=3))
        reduced = explore(spec, ExploreOptions(
            levels=(IsolationLevelName.READ_COMMITTED,),
            mode="sample", max_schedules=80, seed=3,
            reduction="sleep-set"))
        assert reduced.total_schedules() == full.total_schedules() == 80
        assert reduced.executed_schedules() <= full.executed_schedules()
        assert_identical_coverage(full, reduced,
                                  levels=(IsolationLevelName.READ_COMMITTED,))


class TestStreamingReducer:
    """Chunk-wise canonicalization must equal the one-shot execution plan."""

    def test_chunked_reduction_equals_build_execution_plan(self):
        from repro.explorer.reduction import StreamingReducer

        _, programs = build_program_set(ProgramSetSpec.make(
            "contention", transactions=3, items=3, hot_items=1,
            operations_per_transaction=1))
        schedules = schedule_space(programs, mode="exhaustive",
                                   max_schedules=1000).schedules
        plan = build_execution_plan(schedules, programs)

        for chunk_size in (1, 7, 64, len(schedules)):
            reducer = StreamingReducer(programs)
            assignment = []
            fresh_stream = []
            for start in range(0, len(schedules), chunk_size):
                fresh, slots = reducer.reduce(schedules[start:start + chunk_size])
                assignment.extend(slots)
                fresh_stream.extend(fresh)
            assert tuple(reducer.executed) == plan.executed, chunk_size
            assert tuple(assignment) == plan.assignment, chunk_size
            # Fresh representatives, concatenated across chunks, are exactly
            # the executed list — the contiguous-suffix property the
            # explorer's streaming assembly relies on.
            assert fresh_stream == reducer.executed
            assert reducer.covered == len(schedules)

    def test_streaming_reduction_never_materializes_the_stream(self):
        """explore(reduction=...) on a sampled stream keeps the space lazy."""
        spec = ProgramSetSpec.make("contention", transactions=4, items=6,
                                   hot_items=2, operations_per_transaction=2)
        result = explore(spec, ExploreOptions(
            levels=(IsolationLevelName.READ_COMMITTED,
                          IsolationLevelName.SNAPSHOT_ISOLATION),
            mode="sample", max_schedules=300, seed=21,
            reduction="sleep-set", chunk_size=32))
        assert result.space._materialized is None
        assert result.total_schedules() == 600
        assert result.executed_schedules() <= 600

    def test_streamed_reduction_matches_unreduced_coverage_on_samples(self):
        spec = ProgramSetSpec.make("contention", transactions=3, items=3,
                                   hot_items=1, operations_per_transaction=2)
        levels = (IsolationLevelName.READ_COMMITTED,
                  IsolationLevelName.SNAPSHOT_ISOLATION)
        full = explore(spec, ExploreOptions(
            levels=levels, mode="sample", max_schedules=200, seed=3))
        reduced = explore(spec, ExploreOptions(
            levels=levels, mode="sample", max_schedules=200,
            seed=3, reduction="sleep-set"))
        assert coverage_mismatches(full, reduced, levels=levels) == []
