"""Golden explorations: fingerprints and coverage renders pinned per space.

Every exploration executes every schedule of its stream, and the records it
writes are a pure function of ``(spec, levels, mode, max_schedules, seed)``.
Pinned here, per space:

* ``EXHAUSTIVE_FINGERPRINTS`` — ``explore(spec, ExploreOptions(mode=
  "exhaustive", max_schedules=10_000)).fingerprint()``;
* ``COVERAGE_RENDERS`` — the SHA-256 of ``build_coverage_report(explore(spec))
  .render()`` under default options;
* ``SAMPLED`` — for every registered program set, the fingerprint and the
  render's SHA-256 of a sampled campaign (``mode="sample"``,
  ``max_schedules=200``, ``seed=9``, ``chunk_size=16``).

A change to an engine, the scheduler, the stream or the classifier that moves
one of these moves a reported result; update a pin only with the reason.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.coverage import build_coverage_report
from repro.explorer import ExploreOptions, ProgramSetSpec, explore
from repro.workloads.program_sets import available_program_sets

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

EXHAUSTIVE_FINGERPRINTS = {
    "increments()":
        "22200bf10c92da3e74cc40f5438ffddbb7e326eb7615117a3bb2816cb34a14f7",
    "bank-transfer()":
        "b5de0455849393784fde5bef93995b2f0f50f83aa002381b26f8144f921e756d",
    "write-skew()":
        "984ab08b56f523782e3a0b6bfd373402c07d6569a5364d2d65e70ab46b5c3a19",
    "read-skew()":
        "5dad5d1a3bc47fce678cf8a26b3fd6a8df817b055e55912a56be7bde7b7d0919",
    "dirty-abort()":
        "de866b275addf055f5ad99d7073a1ebc65aeec2495ed2117c34d19b434d214f6",
    "sharded-increments()":
        "a018fc923d8cfb8431e80032a66d00048519bfb29d8474178edb1e7232335d39",
    "contention(hot_items=2, items=3, "
    "operations_per_transaction=1, transactions=3)":
        "5df878b536ee57fbe4fff742e8db834b63484b5dc0f00b9b0da776ecae0af1aa",
    "sharded-increments(shards=3)":
        "cb9f6af0cd5afe3cab01ff0325b98e110fcbcddbf614a2ba12baf58f4f7ef4bf",
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
    "contention(hot_items=2, items=3, "
    "operations_per_transaction=1, transactions=3)":
        "39203f20635719b0ef2f2c92d6ef163ab4638e494084c779d9684fef92ce0779",
    "sharded-increments(shards=3)":
        "fc9ab7cc0ae59c40a93a5a53be57207428e7e6e3d0d693c7cae10b88e4d6ca0f",
}

#: name -> (fingerprint, SHA-256 of the coverage render).
SAMPLED = {
    "bank-transfer": (
        "a9562bd27b5b60f5ee68dcbd8a2581a5e436c150bb2f538e9bc81a95d98abc3b",
        "19f0cd6b18bb470734c8df80041aa6d378682672f3db46c82ab2eea1dcb5ebec"),
    "contention": (
        "441fc736bcbd573fb6e7d1d079e3926e0de83649fb613548abbb538e89b88198",
        "81208864c585eabbbd0188c776772bf73dc2ac1d604e69d4589b6efec5c5b734"),
    "dirty-abort": (
        "de866b275addf055f5ad99d7073a1ebc65aeec2495ed2117c34d19b434d214f6",
        "906d0be4745d42b08db677ed43d5fef41630a03b1150dcec9b4b7b30e5c9704e"),
    "increments": (
        "22200bf10c92da3e74cc40f5438ffddbb7e326eb7615117a3bb2816cb34a14f7",
        "b833f6436d33961a53a0ab81c943f663bffee678b0748a0ed561aa0e128e811c"),
    "read-skew": (
        "5dad5d1a3bc47fce678cf8a26b3fd6a8df817b055e55912a56be7bde7b7d0919",
        "36e61b414af25e8ecb3f2a5714a4cc55867d0c3e2a0cbe557297e814c3bf1045"),
    "sharded-increments": (
        "a018fc923d8cfb8431e80032a66d00048519bfb29d8474178edb1e7232335d39",
        "2eaebbe21ea405ad42da4762a8418fd8f359fc06a8a517051452f0c667e3a757"),
    "write-skew": (
        "984ab08b56f523782e3a0b6bfd373402c07d6569a5364d2d65e70ab46b5c3a19",
        "05b354aa58f8bcd1e57b2c22db2e6aaced0bb511826da6b83e1e79415101762a"),
}

EXHAUSTIVE = dict(mode="exhaustive", max_schedules=10_000)
SAMPLE = dict(mode="sample", max_schedules=200, seed=9, chunk_size=16)


def render_digest(result) -> str:
    render = build_coverage_report(result).render()
    return hashlib.sha256(render.encode()).hexdigest()


@pytest.mark.parametrize("spec", SPACES, ids=ProgramSetSpec.describe)
def test_exhaustive_fingerprint_is_pinned(spec):
    result = explore(spec, ExploreOptions(**EXHAUSTIVE))
    assert result.executed_schedules() == result.total_schedules()
    assert result.fingerprint() == EXHAUSTIVE_FINGERPRINTS[spec.describe()]


@pytest.mark.parametrize("spec", SPACES, ids=ProgramSetSpec.describe)
def test_default_coverage_render_is_unchanged(spec):
    result = explore(spec)
    assert result.executed_schedules() == result.total_schedules()
    assert render_digest(result) == COVERAGE_RENDERS[spec.describe()]


def test_every_registered_program_set_is_pinned():
    assert sorted(SAMPLED) == sorted(available_program_sets())


@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_sampled_campaign_is_pinned(name):
    result = explore(ProgramSetSpec.make(name), ExploreOptions(**SAMPLE))
    assert result.executed_schedules() == result.total_schedules()
    assert (result.fingerprint(), render_digest(result)) == SAMPLED[name]
