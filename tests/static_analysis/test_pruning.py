"""The coverage report's notes on how much of a space was explored.

Pruning whole variant spaces is the Table 4 bridge's business
(``tests/integration/test_static_dynamic_agreement.py``); ``explore()``
prunes nothing.
"""

from __future__ import annotations

from repro.core.isolation import IsolationLevelName
from repro.explorer.explorer import ExploreOptions, explore
from repro.workloads.program_sets import ProgramSetSpec

RC = IsolationLevelName.READ_COMMITTED

SPEC = ProgramSetSpec.make("increments")


class TestCoverageReportNotes:
    def test_sampling_truncation_note(self):
        """A sample the seen-set cap refused to dedupe gets a report caveat.

        ``_should_dedupe`` only refuses tracking when the sample itself
        exceeds ``_DEDUPE_TRACK_MAX`` draws — too big to execute in a unit
        test — so this builds the report from a structural stand-in (the
        documented contract of ``build_coverage_report``) with the exact
        space shape such a run produces: ``mode="sample"``, huge total,
        ``dedupe=False``.
        """
        from types import SimpleNamespace

        from repro.analysis.coverage import build_coverage_report
        from repro.explorer.schedules import _DEDUPE_TRACK_MAX

        selected = _DEDUPE_TRACK_MAX + 1
        result = SimpleNamespace(
            spec=SimpleNamespace(describe=lambda: "huge-contention"),
            space=SimpleNamespace(mode="sample", total=10**18,
                                  selected=selected, dedupe=False),
            levels={RC: SimpleNamespace(records=[], cache_stats={})},
        )
        report = build_coverage_report(result)
        note = next(note for note in report.notes
                    if "without dedupe tracking" in note)
        assert "repeated schedules" in note
        assert str(selected) in note
        assert note in report.render()

    def test_whole_space_sample_carries_no_truncation_note(self):
        from repro.analysis.coverage import build_coverage_report

        result = explore(SPEC, ExploreOptions(
            levels=(RC,), mode="sample", max_schedules=32))
        assert result.space.dedupe
        report = build_coverage_report(result)
        assert not any("dedupe" in note for note in report.notes)
