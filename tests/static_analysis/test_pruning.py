"""Detector pruning through the explorer: identical results, less detection work."""

from __future__ import annotations

from repro.core.isolation import IsolationLevelName
from repro.explorer.explorer import ExploreOptions, explore
from repro.static_analysis import Verdict
from repro.workloads.program_sets import ProgramSetSpec

RC = IsolationLevelName.READ_COMMITTED
RR = IsolationLevelName.REPEATABLE_READ
SER = IsolationLevelName.SERIALIZABLE

SPEC = ProgramSetSpec.make("increments")
LEVELS = (RC, RR, SER)


class TestStaticPruning:
    def test_pruned_run_is_bit_identical_to_unpruned(self):
        """The empirical soundness gate for detector pruning.

        Classification records (and hence the result fingerprint) must be
        byte-for-byte identical with pruning on and off: pruning may only
        skip detectors that can never fire, never change what is recorded.
        """
        baseline = explore(SPEC, ExploreOptions(levels=LEVELS))
        pruned = explore(SPEC, ExploreOptions(levels=LEVELS, static_pruning=True))
        assert pruned.fingerprint() == baseline.fingerprint()

    def test_verdicts_are_recorded_either_way(self):
        result = explore(SPEC, ExploreOptions(levels=(RC,)))
        assert not result.static_pruning
        assert result.static_verdicts[RC]
        codes = result.pruned_detectors(RC)
        assert codes  # increments statically rules out several phenomena at RC
        for code in codes:
            assert result.static_verdicts[RC][code].verdict is Verdict.IMPOSSIBLE

    def test_pruned_counts_surface_in_cache_stats(self):
        pruned = explore(SPEC, ExploreOptions(levels=(RC, SER), static_pruning=True))
        assert pruned.static_pruning
        for level in (RC, SER):
            stats = pruned.levels[level].cache_stats
            assert stats["static_pruned_detectors"] == \
                len(pruned.pruned_detectors(level))
            assert stats["static_pruned_detectors"] > 0

    def test_unpruned_run_reports_zero_pruned_detectors(self):
        baseline = explore(SPEC, ExploreOptions(levels=(RC,)))
        assert baseline.levels[RC].cache_stats[
            "static_pruned_detectors"] == 0

    def test_pruning_composes_with_parallel_workers(self):
        pruned = explore(SPEC, ExploreOptions(
            levels=(RC,), static_pruning=True, workers=2))
        baseline = explore(SPEC, ExploreOptions(levels=(RC,)))
        assert pruned.fingerprint() == baseline.fingerprint()


class TestCoverageReportNotes:
    def test_pruned_detector_counts_surface_in_the_rendered_report(self):
        from repro.analysis.coverage import build_coverage_report

        pruned = explore(SPEC, ExploreOptions(levels=(RC, RR), static_pruning=True))
        report = build_coverage_report(pruned)
        assert any("statically pruned detectors" in note
                   for note in report.notes)
        rendered = report.render()
        assert "statically pruned detectors" in rendered
        assert RC.value in rendered

    def test_unpruned_report_carries_no_pruning_note(self):
        from repro.analysis.coverage import build_coverage_report

        report = build_coverage_report(explore(SPEC, ExploreOptions(levels=(RC,))))
        assert not any("statically pruned" in note for note in report.notes)

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
