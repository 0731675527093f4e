"""Anomaly matrices: computing Tables 1, 3, and 4 from the executable artifacts.

Two different kinds of matrix appear in the paper:

* Tables 1 and 3 are *definitional*: a cell says whether a phenomenon is
  possible under an isolation level **defined by forbidding phenomena**.  We
  recompute them by searching a corpus of histories (the paper's catalogue
  plus randomly generated ones) for a history that the level admits and in
  which the phenomenon occurs.
* Table 4 is *behavioural*: a cell says whether an anomaly can actually be
  produced by an engine implementing the level.  We recompute it two ways:
  :func:`compute_table4` replays the paper's hand-picked adversarial
  interleavings; :func:`compute_table4_explored` exhausts each scenario
  variant's *entire* interleaving space through the schedule explorer, so
  every cell becomes a measured manifestation frequency with a replayable
  witness interleaving instead of a single curated anecdote.

The declared ``EXPECTED_TABLE_4`` constant is the paper's Table 4, used by the
benchmark and the integration tests as the ground truth to compare against.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.catalog import CATALOG
from ..core.history import History
from ..core.isolation import IsolationLevelName, PhenomenonBasedLevel, Possibility
from ..core.phenomena import by_code
from ..explorer.options import ExploreOptions
from ..explorer.scenarios import DEFAULT_MAX_SCHEDULES, explore_scenario
from ..testbed import engine_factory
from ..workloads.generators import history_corpus
from ..workloads.scenarios import (
    ALL_SCENARIOS,
    AnomalyScenario,
    EngineFactory,
    evaluate_scenario,
    run_variant,
)
from .coverage import ExploredTable4, build_explored_cell

__all__ = [
    "TABLE_4_LEVELS",
    "TABLE_4_COLUMNS",
    "EXPECTED_TABLE_4",
    "EXTENSION_EXPECTATIONS",
    "compute_table4_row",
    "compute_table4",
    "compute_table4_explored",
    "table4_explored_from_store",
    "variant_manifestation_profile",
    "phenomenon_level_profile",
    "compute_phenomenon_table",
    "default_history_corpus",
]

#: The rows of Table 4, in the paper's order.
TABLE_4_LEVELS: Tuple[IsolationLevelName, ...] = (
    IsolationLevelName.READ_UNCOMMITTED,
    IsolationLevelName.READ_COMMITTED,
    IsolationLevelName.CURSOR_STABILITY,
    IsolationLevelName.REPEATABLE_READ,
    IsolationLevelName.SNAPSHOT_ISOLATION,
    IsolationLevelName.SERIALIZABLE,
)

#: The columns of Table 4, in the paper's order.
TABLE_4_COLUMNS: Tuple[str, ...] = ("P0", "P1", "P4C", "P4", "P2", "P3", "A5A", "A5B")

_P = Possibility.POSSIBLE
_N = Possibility.NOT_POSSIBLE
_S = Possibility.SOMETIMES_POSSIBLE

#: Table 4 exactly as printed in the paper.
EXPECTED_TABLE_4: Dict[IsolationLevelName, Dict[str, Possibility]] = {
    IsolationLevelName.READ_UNCOMMITTED: {
        "P0": _N, "P1": _P, "P4C": _P, "P4": _P, "P2": _P, "P3": _P, "A5A": _P, "A5B": _P,
    },
    IsolationLevelName.READ_COMMITTED: {
        "P0": _N, "P1": _N, "P4C": _P, "P4": _P, "P2": _P, "P3": _P, "A5A": _P, "A5B": _P,
    },
    IsolationLevelName.CURSOR_STABILITY: {
        "P0": _N, "P1": _N, "P4C": _N, "P4": _S, "P2": _S, "P3": _P, "A5A": _P, "A5B": _S,
    },
    IsolationLevelName.REPEATABLE_READ: {
        "P0": _N, "P1": _N, "P4C": _N, "P4": _N, "P2": _N, "P3": _P, "A5A": _N, "A5B": _N,
    },
    IsolationLevelName.SNAPSHOT_ISOLATION: {
        "P0": _N, "P1": _N, "P4C": _N, "P4": _N, "P2": _N, "P3": _S, "A5A": _N, "A5B": _P,
    },
    IsolationLevelName.SERIALIZABLE: {
        "P0": _N, "P1": _N, "P4C": _N, "P4": _N, "P2": _N, "P3": _N, "A5A": _N, "A5B": _N,
    },
}

#: Expectations for the two extension rows this reproduction adds (GLPT Degree 0
#: and Oracle Read Consistency, Section 4.3).  These are *our* derivations from
#: the paper's prose, not cells printed in Table 4.
EXTENSION_EXPECTATIONS: Dict[IsolationLevelName, Dict[str, Possibility]] = {
    IsolationLevelName.DEGREE_0: {
        "P0": _P, "P1": _P, "P4C": _P, "P4": _P, "P2": _P, "P3": _P, "A5A": _P, "A5B": _P,
    },
    IsolationLevelName.ORACLE_READ_CONSISTENCY: {
        # "Read Consistency ... disallows cursor lost updates (P4C) but allows
        # non-repeatable reads, general lost updates (P4), and read skew (A5A)."
        # The lost update through *two* cursors is prevented by the cursor
        # conflict check, hence "sometimes" for P4 at variant granularity.
        "P0": _N, "P1": _N, "P4C": _N, "P4": _S, "P2": _P, "P3": _P, "A5A": _P, "A5B": _P,
    },
}


def compute_table4_row(factory: EngineFactory,
                       scenarios: Sequence[AnomalyScenario] = ALL_SCENARIOS,
                       ) -> Dict[str, Possibility]:
    """One Table 4 row: run every scenario against one engine factory."""
    return {scenario.code: evaluate_scenario(scenario, factory) for scenario in scenarios}


def compute_table4(levels: Sequence[IsolationLevelName] = TABLE_4_LEVELS,
                   scenarios: Sequence[AnomalyScenario] = ALL_SCENARIOS,
                   ) -> Dict[IsolationLevelName, Dict[str, Possibility]]:
    """The full behavioural anomaly matrix for the requested levels."""
    return {
        level: compute_table4_row(engine_factory(level), scenarios)
        for level in levels
    }


def _table4_campaign_config(levels: Sequence[IsolationLevelName],
                            scenarios: Sequence[AnomalyScenario],
                            mode: str, max_schedules: int, seed: int,
                            static_pruning: bool) -> Dict[str, object]:
    """The persisted identity of a Table 4 campaign: its cell-affecting inputs.

    ``"reduction": "none"`` keeps the key every stored Table 4 config has; a
    stored campaign with another value (the default of earlier builds) never
    matches, so reopening it raises
    :class:`~repro.persist.store.CampaignConfigMismatch`, and
    :func:`table4_explored_from_store` still reads it.
    """
    return {
        "kind": "table4-explored",
        "levels": [level.value for level in levels],
        "scenarios": [scenario.code for scenario in scenarios],
        "mode": mode,
        "max_schedules": max_schedules,
        "seed": seed,
        "reduction": "none",
        "static_pruning": static_pruning,
    }


def compute_table4_explored(levels: Sequence[IsolationLevelName] = TABLE_4_LEVELS,
                            scenarios: Sequence[AnomalyScenario] = ALL_SCENARIOS,
                            mode: str = "auto",
                            max_schedules: int = DEFAULT_MAX_SCHEDULES,
                            seed: int = 0,
                            static_pruning: bool = True,
                            store=None,
                            campaign_id: Optional[str] = None,
                            options: Optional[ExploreOptions] = None,
                            ) -> ExploredTable4:
    """The explorer-driven behavioural anomaly matrix.

    Each cell exhausts (or, above ``max_schedules``, samples) the full
    interleaving space of every scenario variant under the level's engine and
    aggregates the manifestation sets: the cell verdict is the same
    all/none/some rule as :func:`compute_table4`, but backed by the whole
    space — with the measured manifestation frequency and the first witness
    interleaving recorded alongside.  Stalled and deadlocked schedules are
    counted, not fatal.  The default budget covers every curated variant
    space exhaustively, so ``compute_table4_explored()`` is a strict
    strengthening of the curated table.

    By default (``static_pruning=True``) the static dependency graph
    (:mod:`repro.static_analysis`) is consulted first, and every variant
    space whose scenario is statically impossible at the level is skipped.
    The cell verdicts and witnesses are unchanged: a pruned variant counts
    as non-manifesting, which is exactly what executing it measures
    (``tests/integration/test_static_dynamic_agreement.py`` gates this).
    At the default budget that skips 36 of 78 variant spaces, 3,021 of
    8,202 schedules.  Pruned counts are reported per cell
    (``ExploredCell.pruned_variants``) and marked ``*`` in the rendered
    table.  ``static_pruning=False`` executes every space; it reproduces the
    unpruned table and resumes campaigns stored with it.

    With ``store`` (a :class:`~repro.persist.SqliteStore`), the matrix
    itself becomes a resumable campaign at (level, scenario)-cell granularity:
    each finished cell is committed as it completes, and a re-run — after a
    crash or on a later day — skips every stored cell and explores only the
    missing ones.  The campaign's identity is the cell-affecting inputs
    (levels, scenarios, mode, budget, seed, static pruning);
    reopening it with different inputs raises
    :class:`~repro.persist.CampaignConfigMismatch` rather than silently
    mixing incompatible cells.

    An :class:`~repro.explorer.options.ExploreOptions` may replace the loose
    exploration knobs (``mode``/``max_schedules``/``seed``);
    ``levels``, ``static_pruning``, ``store``, and ``campaign_id`` keep
    their own parameters because the matrix aggregates per level, prunes
    whole variant spaces (which :func:`~repro.explorer.explore` never does)
    and manages its own campaign identity.
    """
    if options is not None:
        mode = options.mode
        max_schedules = options.max_schedules
        seed = options.seed
    stored_cells: Dict[Tuple[str, str], str] = {}
    if store is not None:
        from ..persist.records import cell_to_payload, config_fingerprint
        config = _table4_campaign_config(levels, scenarios, mode, max_schedules,
                                         seed, static_pruning)
        if campaign_id is None:
            campaign_id = f"table4-{config_fingerprint(config)}"
        store.open_campaign(campaign_id, config)
        stored_cells = store.load_table4_cells(campaign_id)
    elif campaign_id is not None:
        raise ValueError("campaign_id requires a store")

    def cell(level: IsolationLevelName, scenario: AnomalyScenario):
        if store is not None:
            from ..persist.records import cell_from_payload
            payload = stored_cells.get((level.value, scenario.code))
            if payload is not None:
                return cell_from_payload(payload)
        built = build_explored_cell(
            explore_scenario(scenario, level, mode=mode,
                             max_schedules=max_schedules, seed=seed,
                             static_pruning=static_pruning)
        )
        if store is not None:
            store.save_table4_cell(campaign_id, level.value, scenario.code,
                                   cell_to_payload(built))
        return built

    cells = {
        level: {scenario.code: cell(level, scenario) for scenario in scenarios}
        for level in levels
    }
    return ExploredTable4(
        mode=mode,
        max_schedules=max_schedules,
        seed=seed,
        columns=tuple(scenario.code for scenario in scenarios),
        cells=cells,
        static_pruning=static_pruning,
    )


def table4_explored_from_store(store, campaign_id: str) -> ExploredTable4:
    """Rebuild a completed explored Table 4 purely from its stored cells.

    The campaign must have been produced by :func:`compute_table4_explored`
    with a ``store``; raises :class:`~repro.persist.store.StoreError` when
    any configured cell is missing (i.e. the campaign is unfinished — resume
    it by calling :func:`compute_table4_explored` with the same inputs).
    Campaigns of earlier builds read the same way, whatever their stored
    ``"reduction"``.
    """
    from ..persist.records import cell_from_payload
    from ..persist.store import StoreError
    info = store.get_campaign(campaign_id)
    if info is None:
        raise StoreError(f"unknown campaign {campaign_id!r}")
    config = info.config
    if config.get("kind") != "table4-explored":
        raise StoreError(f"campaign {campaign_id!r} is not a Table 4 campaign: "
                         f"{config}")
    payloads = store.load_table4_cells(campaign_id)
    levels = tuple(IsolationLevelName(value) for value in config["levels"])
    columns = tuple(config["scenarios"])
    missing = [(level.value, code) for level in levels for code in columns
               if (level.value, code) not in payloads]
    if missing:
        raise StoreError(f"campaign {campaign_id!r} is unfinished: "
                         f"{len(missing)} cells missing, e.g. {missing[0]}")
    cells = {
        level: {code: cell_from_payload(payloads[(level.value, code)])
                for code in columns}
        for level in levels
    }
    return ExploredTable4(
        mode=config["mode"],
        max_schedules=config["max_schedules"],
        seed=config["seed"],
        columns=columns,
        cells=cells,
        static_pruning=config["static_pruning"],
    )


def variant_manifestation_profile(level: IsolationLevelName,
                                  scenarios: Sequence[AnomalyScenario] = ALL_SCENARIOS,
                                  ) -> Set[Tuple[str, str]]:
    """The set of (scenario, variant) pairs whose anomaly manifests under a level.

    This finer-grained profile is what the hierarchy analysis compares: two
    levels can have identical Table 4 rows at the scenario granularity yet
    admit different *variants* (REPEATABLE READ vs Snapshot Isolation both
    show "phantoms possible", but for different variants — which is exactly
    why the paper calls them incomparable).
    """
    factory = engine_factory(level)
    profile: Set[Tuple[str, str]] = set()
    for scenario in scenarios:
        for variant in scenario.variants:
            result = run_variant(variant, factory, scenario.code)
            if result.manifested:
                profile.add((scenario.code, variant.name))
    return profile


def phenomenon_level_profile(level: PhenomenonBasedLevel,
                             scenarios: Sequence[AnomalyScenario] = ALL_SCENARIOS,
                             ) -> Set[Tuple[str, str]]:
    """The variant profile of a *phenomenon-defined* level (Table 1 / Table 3).

    A phenomenon-defined level has no engine; instead, a variant counts as
    admitted when (a) its anomaly manifests under the most permissive engine
    (Degree 0), and (b) the realized Degree 0 history contains none of the
    level's forbidden phenomena.  This is how the paper itself reasons: the
    level admits the history, and the history is anomalous.
    """
    permissive = engine_factory(IsolationLevelName.DEGREE_0)
    profile: Set[Tuple[str, str]] = set()
    for scenario in scenarios:
        for variant in scenario.variants:
            result = run_variant(variant, permissive, scenario.code)
            if not result.manifested:
                continue
            if level.permits(result.outcome.history):
                profile.add((scenario.code, variant.name))
    return profile


def default_history_corpus(seed: int = 7, count: int = 300) -> List[History]:
    """The corpus for the definitional tables: the catalogue plus random histories."""
    catalogue = [entry.history for entry in CATALOG.values() if not entry.multiversion]
    return catalogue + history_corpus(seed=seed, count=count)


def compute_phenomenon_table(levels: Mapping[IsolationLevelName, PhenomenonBasedLevel],
                             phenomena: Sequence[str],
                             corpus: Optional[Sequence[History]] = None,
                             ) -> Dict[IsolationLevelName, Dict[str, Possibility]]:
    """Recompute a definitional matrix (Table 1 or Table 3) over a history corpus.

    A cell is POSSIBLE when some corpus history is admitted by the level and
    exhibits the phenomenon; NOT_POSSIBLE when no such history exists (which,
    for the forbidden phenomena, is guaranteed by construction — the point of
    recomputing is to confirm the *possible* cells really are achievable).
    """
    corpus = list(corpus) if corpus is not None else default_history_corpus()
    table: Dict[IsolationLevelName, Dict[str, Possibility]] = {}
    for name, level in levels.items():
        row: Dict[str, Possibility] = {}
        for code in phenomena:
            detector = by_code(code)
            achievable = any(
                level.permits(history) and detector.occurs_in(history)
                for history in corpus
            )
            row[code] = Possibility.POSSIBLE if achievable else Possibility.NOT_POSSIBLE
        table[name] = row
    return table
