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
from ..testbed import ALL_ENGINE_LEVELS
from .schedules import MODES

__all__ = [
    "DEFAULT_LEVELS",
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


def distinct_levels(levels: Iterable[IsolationLevelName]
                    ) -> Tuple[IsolationLevelName, ...]:
    """``levels`` as a tuple; a level that is not an
    :class:`IsolationLevelName`, one no engine implements, or one named
    twice, is a :class:`ValueError`.

    Each level is one scope of a campaign, so a repeat would run (or, on a
    store, register) the same scope twice; a level without an engine would
    fail only once the scopes before it had run and committed.
    """
    levels = tuple(levels)
    for index, level in enumerate(levels):
        if not isinstance(level, IsolationLevelName):
            raise ValueError(
                f"levels must be IsolationLevelName members, got {level!r}")
        if level not in ALL_ENGINE_LEVELS:
            raise ValueError(
                f"no engine implements isolation level {level.value!r}")
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
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("max_schedules", "chunk_size", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.max_schedules < 1:
            raise ValueError("max_schedules must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.campaign_id is not None and self.store is None:
            raise ValueError("campaign_id requires a store")

    def replace(self, **changes: Any) -> "ExploreOptions":
        """A copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)
