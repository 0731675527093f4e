"""The one-pass sweep equals the paper definitions on realized histories.

Every distinct history an exhaustive exploration of a registered program set
realizes at the five default levels — and, for the multiversion ones, their
``mv_to_sv`` mappings, which is what the classifier sweeps — must get the
same flags as each detector's ``find`` and the same verdict as
``build_dependency_graph``.
"""

from __future__ import annotations

from repro.core.dependency import build_dependency_graph
from repro.core.history import parse_history
from repro.core.isolation import IsolationLevelName
from repro.core.mv_analysis import assign_write_versions, mv_to_sv
from repro.core.phenomena import ALL_PHENOMENA, sweep
from repro.explorer import ExploreOptions, ProgramSetSpec, explore
from repro.explorer.options import DEFAULT_LEVELS
from repro.explorer.worker import _initial_items
from repro.workloads.program_sets import build_program_set


def _definitions(history):
    return (build_dependency_graph(history).is_acyclic(),
            {code: bool(detector.find(history))
             for code, detector in ALL_PHENOMENA.items()})


def test_sweep_matches_definitions_on_every_realized_history():
    spec = ProgramSetSpec.make("bank-transfer")
    result = explore(spec, ExploreOptions(mode="exhaustive"))
    assert tuple(result.levels) == DEFAULT_LEVELS
    items = _initial_items(build_program_set(spec)[0])
    distinct = {}
    for level, exploration in result.levels.items():
        multiversion = level is IsolationLevelName.SNAPSHOT_ISOLATION
        for record in exploration.records:
            distinct[record.history, multiversion] = record
    checked = mapped_checked = 0
    fired = set()
    for (text, multiversion), record in distinct.items():
        history = parse_history(text, multiversion=multiversion)
        serializable, flags = sweep(history)
        assert (serializable, flags) == _definitions(history), text
        checked += 1
        if history.is_multiversion():
            mapped = mv_to_sv(assign_write_versions(history, items))
            swept = sweep(mapped)
            assert swept == _definitions(mapped), text
            mapped_checked += 1
            flags = swept[1]
        else:
            assert serializable == record.serializable, text
        assert tuple(sorted(c for c, f in flags.items() if f)) == \
            record.phenomena, text
        fired.update(code for code, found in flags.items() if found)
    assert (checked, mapped_checked) == (306, 252)
    assert fired == {"A1", "A5A", "A5B", "P1", "P2", "P4"}
