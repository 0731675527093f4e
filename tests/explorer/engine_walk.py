"""The real engines behind the transition table, walked as ``run_batch`` would.

``TrieExecutor.run_batch`` takes the batch kernel whenever the executor built
one; ``TrieExecutor.run_one`` always takes the real engines.  Fed in sorted
order with the next schedule as lookahead, ``run_one`` is the walk
``run_batch`` takes when no kernel is built, so the tests that gate the
engines on item-only program sets drive it through :func:`engine_batch`.
"""

from __future__ import annotations


def engine_batch(executor, schedules):
    """Yield ``(original_index, outcome)`` pairs of the executor's engine walk."""
    order = sorted(range(len(schedules)), key=schedules.__getitem__)
    for position, index in enumerate(order):
        following = (schedules[order[position + 1]]
                     if position + 1 < len(order) else None)
        yield index, executor.run_one(schedules[index], following)
