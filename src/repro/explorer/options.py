"""`ExploreOptions` — the one configuration surface of :func:`explore`.

:class:`ExploreOptions` carries every knob, validates them eagerly in
``__post_init__``, and is immutable — pass it around, derive variants with
:meth:`ExploreOptions.replace`.  The command line (:mod:`repro.cli`) builds
one from its flags; nothing reads the environment.

``explore(spec, options)`` is the only call: loose keyword knobs raise
``TypeError``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Tuple, Union

from ..core.isolation import IsolationLevelName

__all__ = [
    "BATCH_KERNEL_MODES",
    "DEFAULT_LEVELS",
    "REDUCTIONS",
    "ExploreOptions",
    "distinct_levels",
]

#: The Table 4 rows the coverage report mirrors by default.
DEFAULT_LEVELS: Tuple[IsolationLevelName, ...] = (
    IsolationLevelName.READ_UNCOMMITTED,
    IsolationLevelName.READ_COMMITTED,
    IsolationLevelName.REPEATABLE_READ,
    IsolationLevelName.SNAPSHOT_ISOLATION,
    IsolationLevelName.SERIALIZABLE,
)

#: Accepted reduction strategies.
REDUCTIONS = ("none", "sleep-set")

#: Accepted batch-kernel modes.
BATCH_KERNEL_MODES = ("auto", "on", "off")


def distinct_levels(levels: Iterable[IsolationLevelName]
                    ) -> Tuple[IsolationLevelName, ...]:
    """``levels`` as a tuple; a level named twice is a :class:`ValueError`.

    Each level is one scope of a campaign, so a repeat would run (or, on a
    store, register) the same scope twice.
    """
    levels = tuple(levels)
    for index, level in enumerate(levels):
        if level in levels[:index]:
            raise ValueError(f"isolation level {level.value!r} given twice")
    return levels


@dataclass(frozen=True)
class ExploreOptions:
    """Every knob of :func:`repro.explorer.explore`, validated and frozen.

    Field semantics are documented on :func:`repro.explorer.explore` (this
    class is its parameter object).  Validation happens eagerly at
    construction, so ``ExploreOptions(workers=0)`` fails before any work.
    """

    levels: Tuple[IsolationLevelName, ...] = DEFAULT_LEVELS
    mode: str = "auto"
    max_schedules: int = 1000
    seed: int = 0
    workers: Union[int, str] = 1
    chunk_size: int = 64
    reduction: str = "none"
    batch_kernel: str = "auto"
    store: Any = field(default=None, compare=False)
    campaign_id: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", distinct_levels(self.levels))
        workers = self.workers
        if workers != "auto":
            if isinstance(workers, bool) or not isinstance(workers, int):
                raise ValueError(
                    f"workers must be an int or 'auto', got {workers!r}")
            if workers < 1:
                raise ValueError("workers must be >= 1")
        if self.max_schedules < 1:
            raise ValueError("max_schedules must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.batch_kernel not in BATCH_KERNEL_MODES:
            raise ValueError(
                f"batch_kernel must be 'auto', 'on', or 'off', "
                f"got {self.batch_kernel!r}")
        if self.reduction not in REDUCTIONS:
            raise ValueError(
                f"unknown reduction {self.reduction!r}; choose from {REDUCTIONS}")
        if self.campaign_id is not None and self.store is None:
            raise ValueError("campaign_id requires a store")

    def replace(self, **changes: Any) -> "ExploreOptions":
        """A copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)
