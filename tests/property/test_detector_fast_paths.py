"""Property-based gate: every detector's boolean fast path (``occurs_in``)
agrees with its occurrence enumerator (``find``) on random histories."""

from __future__ import annotations

from hypothesis import given, settings

from repro.core.phenomena import ALL_PHENOMENA, HistoryIndex

from .strategies import histories


@settings(max_examples=120, deadline=None)
@given(histories())
def test_occurs_in_fast_paths_agree_with_find(history):
    index = HistoryIndex(history)
    for code, detector in ALL_PHENOMENA.items():
        assert detector.occurs_in(history, index) == bool(
            detector.find(history, index)), code
