"""Workloads: the paper's anomaly scenarios and randomized generators."""

from .scenarios import (
    ALL_SCENARIOS,
    AnomalyScenario,
    ScenarioVariant,
    VariantResult,
    run_variant,
    scenario_by_code,
)
from .generators import (
    contention_workload,
    history_corpus,
    random_history,
    random_programs,
    uniform_database,
)

__all__ = [
    "ALL_SCENARIOS", "AnomalyScenario", "ScenarioVariant", "VariantResult",
    "run_variant", "scenario_by_code",
    "contention_workload", "history_corpus", "random_history",
    "random_programs", "uniform_database",
]
