"""Integration test: explorer-driven Table 4.

The headline strengthening of the reproduction: instead of replaying one
curated adversarial interleaving per cell, every scenario variant's *entire*
interleaving space is executed under every Table 4 level, and the aggregated
manifestation sets must reproduce the paper's printed table cell for cell —
now with a measured manifestation frequency and a replayable witness
interleaving behind every Possible / Sometimes Possible cell, and with the
stalled and deadlocked schedules that arbitrary interleavings inevitably
produce under locking engines handled as first-class non-manifesting results
(no ``RuntimeError`` anywhere in the run).

``TABLE4_EXPLORE_BUDGET`` caps the per-variant schedule budget (the default
covers every curated variant space exhaustively).

The module's table executes every space (``static_pruning=False``); the
default, statically pruned table must agree with it cell for cell, witness
for witness.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.coverage import ExploredTable4
from repro.analysis.matrix import (
    EXPECTED_TABLE_4,
    TABLE_4_COLUMNS,
    TABLE_4_LEVELS,
    compute_table4_explored,
)
from repro.analysis.report import render_comparison
from repro.core.isolation import Possibility
from repro.testbed import engine_factory
from repro.workloads.scenarios import run_variant, scenario_by_code

BUDGET = int(os.environ.get("TABLE4_EXPLORE_BUDGET", "2000"))

#: The largest curated variant space (A5B through cursors) has 924
#: interleavings; at or above that every space is enumerated exhaustively and
#: the matrix *must* equal the paper's.  Below it, spaces switch to seeded
#: sampling, which can miss a cell's only witnesses — the strict cell-for-cell
#: assertion would then fail spuriously, so it only runs when exhaustive.
EXHAUSTIVE = BUDGET >= 924


@pytest.fixture(scope="module")
def explored() -> ExploredTable4:
    return compute_table4_explored(max_schedules=BUDGET, static_pruning=False)


def test_explored_matrix_matches_the_paper_cell_for_cell(explored):
    if not EXHAUSTIVE:
        pytest.skip(f"budget {BUDGET} < 924 samples the larger spaces; "
                    f"cell-for-cell equality is only guaranteed exhaustively")
    measured = explored.possibilities()
    assert measured == EXPECTED_TABLE_4, render_comparison(
        EXPECTED_TABLE_4, measured, TABLE_4_COLUMNS)


def test_every_witnessed_cell_records_a_witness_interleaving(explored):
    for level in TABLE_4_LEVELS:
        for code in TABLE_4_COLUMNS:
            cell = explored.cell(level, code)
            if cell.possibility is Possibility.NOT_POSSIBLE:
                assert cell.witness is None
                assert cell.manifested == 0
            else:
                assert cell.witness is not None, (
                    f"{level.value}/{code} is {cell.possibility} without a "
                    f"witness interleaving")
                assert cell.manifested > 0
                assert 0.0 < cell.frequency <= 1.0


def test_witness_interleavings_replay_to_manifestation(explored):
    """Every recorded witness is a genuine, independently replayable exhibit:
    replayed through ``run_variant`` it manifests and realizes the recorded
    history."""
    for level in TABLE_4_LEVELS:
        factory = engine_factory(level)
        for code in TABLE_4_COLUMNS:
            witness = explored.witness(level, code)
            if witness is None:
                continue
            variant_name, interleaving, history = witness
            variant = scenario_by_code(code).variant(variant_name)
            replay = run_variant(variant, factory, code,
                                 interleaving=interleaving)
            assert replay.manifested, (
                f"witness for {level.value}/{code} ({variant_name}, "
                f"{interleaving}) does not manifest on replay")
            assert not replay.stalled
            assert replay.outcome.history.to_shorthand() == history


def test_exploration_covers_the_full_curated_spaces(explored):
    """With the default budget every variant space is explored exhaustively."""
    if not EXHAUSTIVE:
        pytest.skip("sampled smoke budget; exhaustiveness not expected")
    for level in TABLE_4_LEVELS:
        for code in TABLE_4_COLUMNS:
            cell = explored.cell(level, code)
            assert cell.schedules > 0
    # The curated scenario spaces total 1367 schedules per level.
    assert explored.total_schedules() == 1367 * len(TABLE_4_LEVELS)


def test_default_pruned_table_keeps_every_cell_and_witness(explored):
    """Pruning skips only spaces that never manifest, so nothing observable moves."""
    pruned = compute_table4_explored(max_schedules=BUDGET)
    assert pruned.static_pruning and not explored.static_pruning
    assert pruned.possibilities() == explored.possibilities()
    assert pruned.total_pruned_variants() > 0
    assert pruned.total_schedules() < explored.total_schedules()
    for level in TABLE_4_LEVELS:
        for code in TABLE_4_COLUMNS:
            kept, full = pruned.cell(level, code), explored.cell(level, code)
            assert kept.witness == full.witness
            assert kept.manifested == full.manifested
            assert kept.variant_frequencies == full.variant_frequencies
