"""Property-based gate: the one-pass :func:`sweep` agrees with the paper
definitions — every detector's occurrence enumerator (``find``) and the
conflict-graph verdict of ``build_dependency_graph`` — on random histories
that use every operation kind and may leave transactions unterminated."""

from __future__ import annotations

from hypothesis import given, settings

from repro.core.dependency import build_dependency_graph
from repro.core.phenomena import ALL_PHENOMENA, sweep

from .strategies import histories, seeded_histories


def _definitions(history):
    return (build_dependency_graph(history).is_acyclic(),
            {code: bool(detector.find(history))
             for code, detector in ALL_PHENOMENA.items()})


@settings(max_examples=300, deadline=None)
@given(histories(every_kind=True))
def test_sweep_agrees_with_the_definitions(history):
    assert sweep(history) == _definitions(history)


def test_seeded_corpus_fires_every_code():
    fired = set()
    verdicts = set()
    for history in seeded_histories(seed=42, count=1500):
        serializable, flags = sweep(history)
        assert (serializable, flags) == _definitions(history), \
            history.to_shorthand()
        fired.update(code for code, found in flags.items() if found)
        verdicts.add(serializable)
    assert fired == set(ALL_PHENOMENA)
    assert verdicts == {True, False}
