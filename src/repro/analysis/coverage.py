"""Anomaly-coverage reports over schedule-space exploration results.

Table 4's cells say whether an anomaly is Possible / Not Possible / Sometimes
Possible under each isolation level — established in the paper by exhibiting
one adversarial interleaving per cell.  Exploring the *space* of interleavings
strengthens that to a measurement: for every phenomenon, how many of the
realized schedules actually witnessed it, with a concrete witness interleaving
for each witnessed cell.  "Sometimes Possible" stops being an anecdote and
becomes a frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.isolation import IsolationLevelName, Possibility
from ..core.phenomena import ALL_PHENOMENA
from .report import render_table

__all__ = [
    "PhenomenonCoverage",
    "LevelCoverage",
    "CoverageReport",
    "build_coverage_report",
    "coverage_report_from_store",
    "ExploredCell",
    "ExploredTable4",
    "build_explored_cell",
]


@dataclass(frozen=True)
class PhenomenonCoverage:
    """How often one phenomenon was witnessed under one level."""

    code: str
    witnessed: int
    total: int
    witness_interleaving: Optional[Tuple[int, ...]]
    witness_history: Optional[str]

    @property
    def frequency(self) -> float:
        """Fraction of explored schedules that witnessed the phenomenon."""
        return self.witnessed / self.total if self.total else 0.0

    @property
    def possibility(self) -> Possibility:
        """The Table 4 verdict this measurement supports.

        A cell is POSSIBLE as soon as any schedule witnesses the phenomenon —
        every real space also contains serial schedules that witness nothing,
        so "witnessed by all schedules" would be unreachable.  The paper's
        SOMETIMES_POSSIBLE arises at scenario-*variant* granularity, not at
        schedule granularity; use :attr:`frequency` for the fine-grained
        signal.
        """
        return Possibility.POSSIBLE if self.witnessed else Possibility.NOT_POSSIBLE


@dataclass(frozen=True)
class LevelCoverage:
    """Coverage of every phenomenon under one isolation level."""

    level: IsolationLevelName
    schedules: int
    serializable: int
    stalled: int
    phenomena: Dict[str, PhenomenonCoverage]

    @property
    def non_serializable_fraction(self) -> float:
        """Fraction of explored schedules whose realized history is non-serializable."""
        if not self.schedules:
            return 0.0
        return (self.schedules - self.serializable) / self.schedules


@dataclass(frozen=True)
class CoverageReport:
    """The per-level anomaly-coverage matrix for one exploration."""

    spec: str
    mode: str
    space_size: int
    explored: int
    columns: Tuple[str, ...]
    levels: Dict[IsolationLevelName, LevelCoverage]
    #: Caveats that would otherwise hide in stats dicts: sampling truncation
    #: (the dedupe seen-set cap was exceeded, so the sample may repeat
    #: schedules).
    notes: Tuple[str, ...] = ()

    def witnessed(self, level: IsolationLevelName, code: str) -> int:
        """Witness count for one cell (0 when the level lacks the column)."""
        coverage = self.levels[level].phenomena.get(code)
        return coverage.witnessed if coverage else 0

    def witness(self, level: IsolationLevelName,
                code: str) -> Optional[Tuple[Tuple[int, ...], str]]:
        """The first witness (interleaving, history shorthand) for a cell, if any."""
        coverage = self.levels[level].phenomena.get(code)
        if coverage is None or coverage.witness_interleaving is None:
            return None
        return coverage.witness_interleaving, coverage.witness_history or ""

    def render(self, title: Optional[str] = None) -> str:
        """ASCII matrix: one row per level, witnessed-frequency per phenomenon."""
        headers = ["Isolation level", "schedules", "non-ser %"] + list(self.columns)
        rows: List[List[str]] = []
        for level, coverage in self.levels.items():
            cells = [level.value, str(coverage.schedules),
                     f"{coverage.non_serializable_fraction * 100:.1f}"]
            for code in self.columns:
                phenomenon = coverage.phenomena.get(code)
                if phenomenon is None or phenomenon.witnessed == 0:
                    cells.append("-")
                else:
                    cells.append(f"{phenomenon.frequency * 100:.1f}%")
            rows.append(cells)
        header = title or (
            f"Anomaly coverage: {self.spec} [{self.mode}] "
            f"{self.explored}/{self.space_size} schedules per level"
        )
        table = render_table(headers, rows, title=header)
        if self.notes:
            table += "".join(f"\nnote: {note}" for note in self.notes)
        return table


@dataclass(frozen=True)
class ExploredCell:
    """One measured Table 4 cell: a scenario's variant spaces under one level.

    Built structurally from a
    :class:`~repro.explorer.scenarios.ScenarioExploration` (anything with the
    same attributes works — ``analysis`` stays import-cycle-free of
    ``explorer``).  ``witness`` is ``(variant name, interleaving, history
    shorthand)`` for the first manifesting schedule, or ``None`` when the
    anomaly never manifested anywhere in the explored spaces.
    """

    code: str
    possibility: Possibility
    schedules: int
    manifested: int
    stalled: int
    witness: Optional[Tuple[str, Tuple[int, ...], str]]
    variant_frequencies: Tuple[Tuple[str, float], ...]
    #: Variant spaces skipped by the static-impossibility pass, with the
    #: static proof sketch per pruned variant.
    pruned_variants: int = 0
    static_reasons: Tuple[Tuple[str, str], ...] = ()

    @property
    def frequency(self) -> float:
        """Fraction of all explored schedules (across variants) that manifested."""
        return self.manifested / self.schedules if self.schedules else 0.0

    def render_cell(self) -> str:
        """Compact cell text: the verdict plus the measured frequency."""
        marks = {
            Possibility.POSSIBLE: "P",
            Possibility.NOT_POSSIBLE: "N",
            Possibility.SOMETIMES_POSSIBLE: "S",
        }
        mark = marks.get(self.possibility, str(self.possibility))
        if self.pruned_variants:
            mark += "*"
        if self.manifested == 0:
            return mark
        return f"{mark} {self.frequency * 100:.1f}%"


def build_explored_cell(exploration) -> ExploredCell:
    """Aggregate one scenario exploration into its measured Table 4 cell."""
    pruned = [variant for variant in exploration.variants
              if getattr(variant, "pruned", False)]
    return ExploredCell(
        code=exploration.scenario_code,
        possibility=exploration.possibility,
        schedules=exploration.schedules,
        manifested=sum(variant.manifested for variant in exploration.variants),
        stalled=exploration.stalled,
        witness=exploration.witness,
        variant_frequencies=tuple(
            (variant.variant_name, variant.frequency)
            for variant in exploration.variants
        ),
        pruned_variants=len(pruned),
        static_reasons=tuple(
            (variant.variant_name, variant.static_reason) for variant in pruned
        ),
    )


@dataclass(frozen=True)
class ExploredTable4:
    """The explorer-driven Table 4: every cell a measurement, not an anecdote."""

    mode: str
    max_schedules: int
    seed: int
    columns: Tuple[str, ...]
    cells: Dict[IsolationLevelName, Dict[str, ExploredCell]]
    #: Whether statically-impossible (cell, level) scopes were skipped.
    static_pruning: bool = False

    def possibilities(self) -> Dict[IsolationLevelName, Dict[str, Possibility]]:
        """The plain verdict matrix, comparable against ``EXPECTED_TABLE_4``."""
        return {
            level: {code: cell.possibility for code, cell in row.items()}
            for level, row in self.cells.items()
        }

    def cell(self, level: IsolationLevelName, code: str) -> ExploredCell:
        """One measured cell."""
        return self.cells[level][code]

    def witness(self, level: IsolationLevelName,
                code: str) -> Optional[Tuple[str, Tuple[int, ...], str]]:
        """The recorded witness for a cell, if its anomaly ever manifested."""
        return self.cells[level][code].witness

    def total_schedules(self) -> int:
        """Schedules covered across every cell."""
        return sum(cell.schedules for row in self.cells.values()
                   for cell in row.values())

    def total_stalled(self) -> int:
        """Stalled schedules across every cell (all first-class, none fatal)."""
        return sum(cell.stalled for row in self.cells.values()
                   for cell in row.values())

    def total_pruned_variants(self) -> int:
        """Variant spaces skipped by the static-impossibility pass."""
        return sum(cell.pruned_variants for row in self.cells.values()
                   for cell in row.values())

    def render(self, title: Optional[str] = None) -> str:
        """ASCII matrix: verdict + manifestation frequency per cell."""
        headers = ["Isolation level"] + list(self.columns)
        rows: List[List[str]] = []
        for level, row in self.cells.items():
            cells = [level.value]
            for code in self.columns:
                cell = row.get(code)
                cells.append(cell.render_cell() if cell is not None else "?")
            rows.append(cells)
        header = title or (
            f"Explored Table 4 [{self.mode}]: "
            f"{self.total_schedules()} schedules, "
            f"{self.total_stalled()} stalled (P/N/S + % of schedules manifesting)"
        )
        table = render_table(headers, rows, title=header)
        pruned = self.total_pruned_variants()
        if pruned:
            table += (f"\nnote: * = {pruned} variant space(s) skipped as "
                      f"statically impossible (counted not-manifesting)")
        return table


def _report(spec, space, codes: Optional[Sequence[str]], tallies) -> CoverageReport:
    """The report from ``{level: (groups, witness_at)}``: each group is
    ``(codes, schedules, serializable, stalled, first schedule index)`` and
    ``witness_at(index)`` gives that schedule's ``(interleaving, history)``."""
    columns = tuple(codes) if codes is not None else tuple(ALL_PHENOMENA)
    levels: Dict[IsolationLevelName, LevelCoverage] = {}
    for level, (groups, witness_at) in tallies.items():
        schedules = serializable = stalled = 0
        witnessed: Dict[str, int] = {code: 0 for code in columns}
        first: Dict[str, int] = {}
        for listed, count, serial, stall, index in groups:
            schedules += count
            serializable += serial
            stalled += stall
            for code in listed:
                if code in witnessed:
                    witnessed[code] += count
                    first[code] = min(first.get(code, index), index)
        witness = {code: witness_at(index) for code, index in first.items()}
        levels[level] = LevelCoverage(
            level=level, schedules=schedules, serializable=serializable,
            stalled=stalled,
            phenomena={
                code: PhenomenonCoverage(
                    code=code,
                    witnessed=witnessed[code],
                    total=schedules,
                    witness_interleaving=witness.get(code, (None, None))[0],
                    witness_history=witness.get(code, (None, None))[1],
                )
                for code in columns
            })
    notes: List[str] = []
    if space.mode == "sample" and not getattr(space, "dedupe", True):
        # _should_dedupe refused the seen-set (distinct-tracking would exceed
        # its memory cap), so the sample may repeat schedules — a caveat that
        # previously lived only in ``space.distinct is None``.
        notes.append(
            f"sampled {space.selected} of {space.total} schedules without "
            f"dedupe tracking (seen-set cap exceeded): counts may include "
            f"repeated schedules")
    return CoverageReport(
        spec=spec.describe(),
        mode=space.mode,
        space_size=space.total,
        explored=space.selected,
        columns=columns,
        levels=levels,
        notes=tuple(notes),
    )


def build_coverage_report(result, codes: Optional[Sequence[str]] = None) -> CoverageReport:
    """Aggregate an :class:`~repro.explorer.explorer.ExplorationResult` into a report.

    ``codes`` selects and orders the report columns (default: every detector,
    in catalogue order).  Accepts the result object structurally — anything
    with ``spec``, ``space``, and ``levels`` of records works, which keeps
    ``analysis`` free of an import cycle with ``explorer``.
    """
    return _report(result.spec, result.space, codes, {
        level: (_groups(exploration.records),
                lambda index, records=exploration.records:
                    (records[index].interleaving, records[index].history))
        for level, exploration in result.levels.items()})


def _groups(records) -> List[Tuple]:
    """In-memory :meth:`~repro.persist.SqliteStore.coverage_groups`."""
    groups: Dict[Tuple[str, ...], List[int]] = {}
    for index, record in enumerate(records):
        group = groups.get(record.phenomena)
        if group is None:
            groups[record.phenomena] = [1, int(record.serializable),
                                        int(record.stalled), index]
        else:
            group[0] += 1
            group[1] += record.serializable
            group[2] += record.stalled
    return [(codes, *group) for codes, group in groups.items()]


def coverage_report_from_store(store, campaign_id: str,
                               codes: Optional[Sequence[str]] = None,
                               levels: Optional[Sequence[IsolationLevelName]]
                               = None) -> CoverageReport:
    """Rebuild a campaign's coverage report from SQL aggregates of its rows.

    The cost is the report's size, not the data's: per level one ``GROUP BY
    phenomena`` (:meth:`~repro.persist.SqliteStore.coverage_groups`) and one
    row fetch per witness; no record is decoded.  The render is byte-equal
    to :func:`build_coverage_report` over the same records, and a cell of the
    wrong type raises :class:`~repro.persist.StoreError` naming the campaign
    and scope.  The schedule space is re-derived from the stored config.

    ``levels`` fixes the report's row order (matching the ``levels`` the
    campaign was explored with); by default the explorer's
    ``DEFAULT_LEVELS`` order is used for the scopes present, any others
    following in enum declaration order.
    """
    # Imported lazily: analysis must stay import-cycle-free of explorer and
    # persist at module scope (both import this module).
    from ..explorer.explorer import DEFAULT_LEVELS
    from ..explorer.schedules import schedule_space
    from ..workloads.program_sets import ProgramSetSpec, resolve_program_set

    info = store.get_campaign(campaign_id)
    if info is None:
        raise KeyError(f"campaign {campaign_id!r} is not in the store")
    config = dict(info.config)
    spec = ProgramSetSpec.make(config["spec_name"],
                               **{key: value
                                  for key, value in config["spec_params"]})
    _, programs = resolve_program_set(spec)(**spec.kwargs())
    space = schedule_space(programs, mode=config["mode"],
                           max_schedules=config["max_schedules"],
                           seed=config["seed"])
    progress = store.scope_progress(campaign_id)
    if levels is None:
        ordered = [level for level in DEFAULT_LEVELS if level.value in progress]
        ordered += [level for level in IsolationLevelName
                    if level.value in progress and level not in ordered]
    else:
        ordered = [level for level in levels if level.value in progress]
    return _report(spec, space, codes, {
        level: (store.coverage_groups(campaign_id, level.value),
                partial(store.witness_at, campaign_id, level.value))
        for level in ordered})
