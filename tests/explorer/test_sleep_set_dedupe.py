"""Sleep-set reduction is the explorer's one equivalence-class dedupe.

The retired schedule-outcome memo executed the canonical member of each
commutation-equivalence class (``CommutationOracle.canonical_key``, the
lexicographically least linearization) and handed its outcome to every member.
The sleep-set plan executes the *first* member its stream meets.  An
exhaustive stream is lexicographic, so the first member is the least one:
both executed the same schedule for every class and wrote the same records.

Pinned here, per space, from the last build that still had the memo:

* ``MEMO_FINGERPRINTS`` — ``explore(spec, ExploreOptions(mode="exhaustive",
  max_schedules=10_000, outcome_memo=True)).fingerprint()``, which
  ``reduction="sleep-set"`` must reproduce;
* ``COVERAGE_RENDERS`` — the SHA-256 of ``build_coverage_report(explore(spec))
  .render()`` under default options (the memo was on by default for all of
  these spaces).  Coverage counts are class invariants, so executing every
  schedule instead renders the same text, sampled space included.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.coverage import build_coverage_report
from repro.explorer import (
    CommutationOracle,
    ExploreOptions,
    ProgramSetSpec,
    build_execution_plan,
    build_program_set,
    explore,
    schedule_space,
)
from repro.explorer.reduction import TERMINAL_SCOPES

SPACES = (
    ProgramSetSpec.make("increments"),
    ProgramSetSpec.make("bank-transfer"),
    ProgramSetSpec.make("write-skew"),
    ProgramSetSpec.make("read-skew"),
    ProgramSetSpec.make("dirty-abort"),
    ProgramSetSpec.make("sharded-increments"),
    ProgramSetSpec.make("contention", transactions=3, items=3, hot_items=2,
                        operations_per_transaction=1),
    ProgramSetSpec.make("sharded-increments", shards=3),
)

MEMO_FINGERPRINTS = {
    "increments()":
        "a66931659a2d351b438e729f342f1da7b6d9327d98b6a585eea38bdd1c288ed8",
    "bank-transfer()":
        "e6f864525c9175aa5e1bea9d55746b6682c9d6b4b8a98afdde61a9b8a6d04e7c",
    "write-skew()":
        "c88d3285cc39c4d42e1b7acc075a63a446f191a92ad551f7d2495c88976e71fc",
    "read-skew()":
        "b326c3b7ce5a432398c48fc30d8f1d2c66c0e2b23023223944c786f0280b0aff",
    "dirty-abort()":
        "87266535ca63e307414dde8ae76a1590dc9ba595c43522d8bb6ca01d2be3dd22",
    "sharded-increments()":
        "063f1eb423c5e2e3825f6245576e8ec84b1ff878da6028372b6cf34d84b0e2de",
    "contention(hot_items=2, items=3, operations_per_transaction=1, "
    "transactions=3)":
        "9f6108eb9b74ceb35335125817ce76af227555f02f4df266b478b6ea29888c97",
    "sharded-increments(shards=3)":
        "568dcc762c0c31d1bb1ad2b6711b88f130ce7aba3f7875d3b8b3c702cfddb1b5",
}

COVERAGE_RENDERS = {
    "increments()":
        "45f409bff2ae91e42bd0c68e443a1bd0a9b42519e57535e51b3e6e1144b6bfa7",
    "bank-transfer()":
        "18ef9903497701ca1996a6b41e40c30970772a3e4b903ea338f828b68315f445",
    "write-skew()":
        "11a75d027a707a8d8274e6e07ee232249389a404cf43c84a67bfe20594a55e5b",
    "read-skew()":
        "10c3d2a6981e4fb00f6cbcf8abf74c90f53ec925f0862cb66eb9e4a5d22fe50a",
    "dirty-abort()":
        "b5d402a8f2f98ed24a87c99e6b4c85a97247e609d0d6ce449befc36db04f9b0d",
    "sharded-increments()":
        "868dde0db0d1ee9c1eb30e636c6c72b82f5c49f73a58c3795e7628c8ae59df40",
    "contention(hot_items=2, items=3, operations_per_transaction=1, "
    "transactions=3)":
        "39203f20635719b0ef2f2c92d6ef163ab4638e494084c779d9684fef92ce0779",
    "sharded-increments(shards=3)":
        "fc9ab7cc0ae59c40a93a5a53be57207428e7e6e3d0d693c7cae10b88e4d6ca0f",
}

EXHAUSTIVE = dict(mode="exhaustive", max_schedules=10_000)


@pytest.mark.parametrize("spec", SPACES, ids=ProgramSetSpec.describe)
def test_sleep_set_reproduces_the_memo_fingerprint(spec):
    reduced = explore(spec, ExploreOptions(reduction="sleep-set", **EXHAUSTIVE))
    assert reduced.fingerprint() == MEMO_FINGERPRINTS[spec.describe()]
    assert reduced.executed_schedules() < reduced.total_schedules()


@pytest.mark.parametrize("scope", TERMINAL_SCOPES)
@pytest.mark.parametrize("spec", SPACES, ids=ProgramSetSpec.describe)
def test_representatives_are_canonical_on_exhaustive_streams(spec, scope):
    """Why the two dedupes agree: each executed representative is its own
    class's canonical key, under either terminal scope."""
    _, programs = build_program_set(spec)
    schedules = schedule_space(programs, **EXHAUSTIVE).schedules
    plan = build_execution_plan(schedules, programs, terminal_scope=scope)
    oracle = CommutationOracle(programs, terminal_scope=scope)
    assert len(plan.executed) < len(schedules)
    for representative in plan.executed:
        assert oracle.canonical_key(representative) == representative
    # Every schedule is covered by the representative of its own class.
    for schedule, slot in zip(schedules, plan.assignment):
        assert oracle.canonical_key(schedule) == plan.executed[slot]


@pytest.mark.parametrize("spec", SPACES, ids=ProgramSetSpec.describe)
def test_default_coverage_render_is_unchanged(spec):
    result = explore(spec)
    assert result.executed_schedules() == result.total_schedules()
    render = build_coverage_report(result).render()
    assert hashlib.sha256(render.encode()).hexdigest() == \
        COVERAGE_RENDERS[spec.describe()]
