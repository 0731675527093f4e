"""Integration test: the Table 4 reproduction, every cell a whole-space measurement.

The headline result: every scenario variant's *entire* interleaving space is
executed under every Table 4 level, and the aggregated manifestation sets
must reproduce the paper's printed table cell for cell — with a measured
manifestation frequency and a replayable witness interleaving behind every
Possible / Sometimes Possible cell, and with the stalled and deadlocked
schedules that arbitrary interleavings inevitably produce under locking
engines handled as first-class non-manifesting results (no ``RuntimeError``
anywhere in the run).  The two extension rows (Degree 0, Oracle Read
Consistency) must match their documented expectations.

``TABLE4_EXPLORE_BUDGET`` caps the per-variant schedule budget (the default
covers every variant space exhaustively).

The module's table executes every space (``static_pruning=False``) at the
six Table 4 levels and the two extension levels; the default, statically
pruned table must agree with it cell for cell, witness for witness.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
from pathlib import Path

import pytest

from repro.analysis.coverage import ExploredTable4
from repro.analysis.matrix import (
    EXPECTED_TABLE_4,
    EXTENSION_EXPECTATIONS,
    TABLE_4_COLUMNS,
    TABLE_4_LEVELS,
    compute_table4_explored,
)
from repro.analysis.report import render_comparison
from repro.core.isolation import IsolationLevelName, Possibility
from repro.testbed import engine_factory
from repro.workloads.scenarios import run_variant, scenario_by_code

BUDGET = int(os.environ.get("TABLE4_EXPLORE_BUDGET", "2000"))

#: The largest variant space (A5B through cursors) has 924
#: interleavings; at or above that every space is enumerated exhaustively and
#: the matrix *must* equal the paper's.  Below it, spaces switch to seeded
#: sampling, which can miss a cell's only witnesses — the strict cell-for-cell
#: assertion would then fail spuriously, so it only runs when exhaustive.
EXHAUSTIVE = BUDGET >= 924


#: The paper's six rows, then the two extension rows.
LEVELS = TABLE_4_LEVELS + tuple(EXTENSION_EXPECTATIONS)

#: SHA-256 of ``compute_table4_explored().render()``: the six paper rows,
#: statically pruned, at the default budget.  It moves only when a reported
#: cell, frequency or the pruned count moves.
DEFAULT_RENDER_SHA256 = (
    "dc55e4bcd987bc3e2d6f7bac00c3bb8ab305950302904b72904de72ce7284c40")
#: The same for ``compute_table4_explored(static_pruning=False).render()``,
#: which executes every space.
UNPRUNED_RENDER_SHA256 = (
    "85e9dc2dc2b8886c5c0f40d92c68caaeac3aeb6831b31f6bf4e3e6428f7024b3")

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "table4_explored.py"

exhaustive_only = pytest.mark.skipif(
    not EXHAUSTIVE, reason=f"budget {BUDGET} < 924 samples the larger spaces; "
                           f"cell-for-cell equality is only guaranteed "
                           f"exhaustively")


@pytest.fixture(scope="module")
def explored() -> ExploredTable4:
    return compute_table4_explored(LEVELS, max_schedules=BUDGET,
                                   static_pruning=False)


@exhaustive_only
@pytest.mark.parametrize("level", TABLE_4_LEVELS, ids=lambda level: level.value)
def test_table4_row_matches_the_paper(explored, level):
    measured = explored.possibilities()[level]
    expected = EXPECTED_TABLE_4[level]
    assert measured == expected, render_comparison(
        {level: expected}, {level: measured}, TABLE_4_COLUMNS)


@exhaustive_only
@pytest.mark.parametrize("level", sorted(EXTENSION_EXPECTATIONS, key=lambda lvl: lvl.value),
                         ids=lambda level: level.value)
def test_extension_rows_match_their_documented_expectations(explored, level):
    assert explored.possibilities()[level] == EXTENSION_EXPECTATIONS[level]


@exhaustive_only
def test_explored_matrix_matches_the_paper_cell_for_cell(explored):
    measured = {level: explored.possibilities()[level]
                for level in TABLE_4_LEVELS}
    assert measured == EXPECTED_TABLE_4, render_comparison(
        EXPECTED_TABLE_4, measured, TABLE_4_COLUMNS)


def test_every_witnessed_cell_records_a_witness_interleaving(explored):
    for level in LEVELS:
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
    for level in LEVELS:
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


@exhaustive_only
def test_exploration_covers_the_full_curated_spaces(explored):
    """With the default budget every variant space is explored exhaustively."""
    for level in LEVELS:
        for code in TABLE_4_COLUMNS:
            cell = explored.cell(level, code)
            assert cell.schedules > 0
    # The scenario spaces total 1367 schedules per level.
    assert explored.total_schedules() == 1367 * len(LEVELS)


def test_default_pruned_table_keeps_every_cell_and_witness(explored):
    """Pruning skips only spaces that never manifest, so nothing observable moves."""
    pruned = compute_table4_explored(LEVELS, max_schedules=BUDGET)
    assert pruned.static_pruning and not explored.static_pruning
    assert pruned.possibilities() == explored.possibilities()
    assert pruned.total_pruned_variants() > 0
    assert pruned.total_schedules() < explored.total_schedules()
    for level in LEVELS:
        for code in TABLE_4_COLUMNS:
            kept, full = pruned.cell(level, code), explored.cell(level, code)
            assert kept.witness == full.witness
            assert kept.manifested == full.manifested
            assert kept.variant_frequencies == full.variant_frequencies


def test_default_render_is_pinned():
    render = compute_table4_explored().render()
    assert hashlib.sha256(render.encode()).hexdigest() == \
        DEFAULT_RENDER_SHA256, render


def test_unpruned_render_is_pinned():
    render = compute_table4_explored(static_pruning=False).render()
    assert hashlib.sha256(render.encode()).hexdigest() == \
        UNPRUNED_RENDER_SHA256, render


def test_a_budget_covering_the_largest_space_changes_no_cell():
    """1024 schedules cover every space (the largest holds 924), so the
    table equals the default one, and the static rules skip 36 of the 78
    variant spaces (13 variants at 6 levels)."""
    table = compute_table4_explored(max_schedules=1024)
    assert table.cells == compute_table4_explored().cells
    spaces = sum(len(scenario_by_code(code).variants)
                 for code in TABLE_4_COLUMNS) * len(TABLE_4_LEVELS)
    assert (table.total_pruned_variants(), spaces) == (36, 78)


@pytest.fixture
def example():
    """``examples/table4_explored.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location("table4_explored_example",
                                                  EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_example_exits_0_on_the_reproduced_table(example, capsys):
    assert example.main() == 0
    assert "matches the paper and the extension rows: True" in \
        capsys.readouterr().out


@pytest.mark.parametrize("expectations, level", [
    ("EXPECTED_TABLE_4", IsolationLevelName.READ_COMMITTED),
    ("EXTENSION_EXPECTATIONS", IsolationLevelName.DEGREE_0),
], ids=["paper-row", "extension-row"])
def test_the_example_exits_1_on_a_wrong_expected_cell(example, monkeypatch,
                                                      capsys, expectations,
                                                      level):
    """One flipped expected cell, in a paper row or an extension row, turns
    the example's exit code to 1."""
    expected = getattr(example, expectations)
    row = dict(expected[level])
    row["P0"] = (Possibility.POSSIBLE if row["P0"] is Possibility.NOT_POSSIBLE
                 else Possibility.NOT_POSSIBLE)
    monkeypatch.setattr(example, expectations, {**expected, level: row})
    assert example.main() == 1
    out = capsys.readouterr().out
    assert "matches the paper and the extension rows: False" in out
    assert f"{level.value}" in out.split("False", 1)[1]
    # An extension row is no row of the paper's: the mismatch names the
    # expected side, not the paper, in the line and in the comparison cell.
    mismatch = next(line for line in out.splitlines()
                    if line.startswith(f"  - {level.value} / P0: "))
    assert "expected" in mismatch and "paper" not in mismatch
    assert "(expected: " in out and "(paper: " not in out
