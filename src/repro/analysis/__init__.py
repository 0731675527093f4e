"""Analysis: anomaly matrices (Tables 1/3/4), hierarchy verification, reporting."""

from .matrix import (
    EXPECTED_TABLE_4,
    EXTENSION_EXPECTATIONS,
    TABLE_4_COLUMNS,
    TABLE_4_LEVELS,
    compute_phenomenon_table,
    compute_table4_explored,
    default_history_corpus,
)
from .hierarchy_check import (
    EdgeCheck,
    RemarkCheck,
    level_profiles,
    profile_relation,
    verify_figure2_edges,
    verify_remarks,
)
from .report import (
    matrix_matches,
    render_comparison,
    render_possibility_matrix,
    render_table,
)

__all__ = [
    "EXPECTED_TABLE_4", "EXTENSION_EXPECTATIONS", "TABLE_4_COLUMNS",
    "TABLE_4_LEVELS", "compute_phenomenon_table", "compute_table4_explored",
    "default_history_corpus",
    "EdgeCheck", "RemarkCheck", "level_profiles", "profile_relation",
    "verify_figure2_edges", "verify_remarks",
    "matrix_matches", "render_comparison", "render_possibility_matrix",
    "render_table",
]
