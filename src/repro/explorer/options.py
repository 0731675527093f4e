"""`ExploreOptions` — the consolidated configuration surface of :func:`explore`.

Nine PRs grew :func:`repro.explorer.explore` to twelve loose keyword knobs
plus a handful of ``EXPLORER_*`` environment variables read deep inside the
workers.  This module consolidates them into one frozen dataclass:

* :class:`ExploreOptions` carries every knob, validates them eagerly in
  ``__post_init__`` (same error messages, same order as the historical
  inline checks), and is immutable — pass it around, derive variants with
  :meth:`ExploreOptions.replace`.
* :meth:`ExploreOptions.from_env` builds one from the ``EXPLORER_*``
  environment variables, so scripts and CI jobs configure a run without
  threading a dozen flags.

``explore(spec, options)`` is the only call: loose keyword knobs raise
``TypeError``.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence, Tuple, Union

from ..core.isolation import IsolationLevelName

__all__ = [
    "BATCH_KERNEL_MODES",
    "DEFAULT_LEVELS",
    "REDUCTIONS",
    "ExploreOptions",
    "env_choice",
    "env_int",
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

#: Accepted explicit batch-kernel modes (``None`` defers to the environment).
BATCH_KERNEL_MODES = ("auto", "on", "off")


def env_int(name: str, default: Optional[int] = None, minimum: Optional[int] = None,
            environ: Optional[Mapping[str, str]] = None) -> Optional[int]:
    """``$name`` as an int, or ``default`` when unset.

    This and its siblings are the one way ``EXPLORER_*`` variables are read:
    a malformed value raises :class:`ValueError` naming the variable, whether
    :meth:`ExploreOptions.from_env` or a worker deep in a pool reads it.
    """
    raw = (os.environ if environ is None else environ).get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {raw!r}")
    return value


def env_choice(name: str, choices: Sequence[str], default: Optional[str] = None,
               environ: Optional[Mapping[str, str]] = None) -> Optional[str]:
    """``$name`` as one of ``choices``, or ``default`` when unset."""
    raw = (os.environ if environ is None else environ).get(name)
    if raw is None:
        return default
    if raw not in choices:
        raise ValueError(f"{name} must be one of {tuple(choices)}, got {raw!r}")
    return raw


def _or_auto(reader: Any, name: str, environ: Mapping[str, str]) -> Any:
    """``reader``'s value for ``$name``, or the literal ``"auto"`` it also accepts."""
    if environ.get(name, "").strip() == "auto":
        return "auto"
    return reader(name, environ=environ)


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
    batch_kernel: Optional[str] = None
    store: Any = field(default=None, compare=False)
    campaign_id: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
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
        if self.batch_kernel not in (None,) + BATCH_KERNEL_MODES:
            raise ValueError(
                f"batch_kernel must be None, 'auto', 'on', or 'off', "
                f"got {self.batch_kernel!r}")
        if self.reduction not in REDUCTIONS:
            raise ValueError(
                f"unknown reduction {self.reduction!r}; choose from {REDUCTIONS}")
        if self.campaign_id is not None and self.store is None:
            raise ValueError("campaign_id requires a store")

    def replace(self, **changes: Any) -> "ExploreOptions":
        """A copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None,
                 **overrides: Any) -> "ExploreOptions":
        """Build options from the ``EXPLORER_*`` environment variables.

        Recognized variables (unset ones keep the dataclass default)::

            EXPLORER_LEVELS          comma-separated level names
            EXPLORER_MODE            auto | exhaustive | sample
            EXPLORER_MAX_SCHEDULES   int
            EXPLORER_SEED            int
            EXPLORER_WORKERS         int or "auto"
            EXPLORER_CHUNK_SIZE      int
            EXPLORER_REDUCTION       none | sleep-set
            EXPLORER_BATCH_KERNEL    auto | on | off

        Explicit ``overrides`` win over the environment.  Malformed values
        raise :class:`ValueError` naming the offending variable.
        """
        if environ is None:
            environ = os.environ
        values: dict = {
            "mode": environ.get("EXPLORER_MODE"),
            "max_schedules": env_int("EXPLORER_MAX_SCHEDULES", environ=environ,
                                     minimum=1),
            "seed": env_int("EXPLORER_SEED", environ=environ),
            "workers": _or_auto(env_int, "EXPLORER_WORKERS", environ),
            "chunk_size": env_int("EXPLORER_CHUNK_SIZE", environ=environ),
            "reduction": environ.get("EXPLORER_REDUCTION"),
            "batch_kernel": env_choice("EXPLORER_BATCH_KERNEL", BATCH_KERNEL_MODES,
                                       environ=environ),
        }
        raw = environ.get("EXPLORER_LEVELS")
        if raw is not None:
            values["levels"] = tuple(
                IsolationLevelName(part.strip())
                for part in raw.split(",") if part.strip())
        values = {knob: value for knob, value in values.items() if value is not None}
        values.update(overrides)
        return cls(**values)
