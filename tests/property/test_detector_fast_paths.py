"""Property-based gate: the one-pass :func:`sweep` agrees with every
detector's occurrence enumerator (``find``) and the conflict-graph verdict
of ``build_dependency_graph`` on random histories that use every operation
kind and may leave transactions unterminated; pinned digests hold both
detectors to their outputs before they shared the ``PATTERNS`` rows."""

from __future__ import annotations

import hashlib
from functools import lru_cache

from hypothesis import given, settings

from repro.core.catalog import CATALOG
from repro.core.dependency import build_dependency_graph
from repro.core.phenomena import ALL_PHENOMENA, detect_all, sweep

from .strategies import histories, seeded_histories


def _definitions(history):
    return (build_dependency_graph(history).is_acyclic(),
            {code: bool(detector.find(history))
             for code, detector in ALL_PHENOMENA.items()})


@settings(max_examples=300, deadline=None)
@given(histories(every_kind=True))
def test_sweep_agrees_with_the_definitions(history):
    assert sweep(history) == _definitions(history)


@lru_cache(maxsize=None)
def _corpus():
    return tuple(seeded_histories(seed=42, count=1500))


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def test_seeded_corpus_fires_every_code():
    fired = set()
    verdicts = set()
    for history in _corpus():
        serializable, flags = sweep(history)
        assert (serializable, flags) == _definitions(history), \
            history.to_shorthand()
        fired.update(code for code, found in flags.items() if found)
        verdicts.add(serializable)
    assert fired == set(ALL_PHENOMENA)
    assert verdicts == {True, False}


# Pinned outputs of the detectors as they stood when ``find`` and ``sweep``
# were separate hand-written definitions.  Both now read the same pattern
# rows, so the agreement tests above cannot catch an edit to a row; these
# digests can.

def test_detect_all_digest_on_seeded_corpus():
    reports = [detect_all(history) for history in _corpus()]
    assert sum(len(found) for report in reports
               for found in report.values()) == 1805
    assert _digest(reports) == (
        "89a6f193509353087a759035f1131898a7a02a618d4b0ce5e245023dac077642")


def test_sweep_digest_on_seeded_corpus():
    assert _digest([sweep(history) for history in _corpus()]) == (
        "55c52e6162cdf48ef1c215f39f073442e288e80e9f4065ee400371c060b8834e")


def test_detect_all_digest_on_single_version_catalog():
    histories = [entry.history for entry in CATALOG.values()
                 if not entry.multiversion]
    assert len(histories) == 8
    assert _digest([detect_all(history) for history in histories]) == (
        "989b463fc923711d443d640325afe348fd08ee0f947cd636ae51841696f0b9ef")
