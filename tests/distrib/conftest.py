"""Shared fixtures: an in-memory and an on-disk store, plus a controllable clock."""

from __future__ import annotations

import pytest

from repro.persist import SqliteStore


class FakeClock:
    """A monotonic clock the test advances by hand."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    """``:memory:`` and a file; lease-machine tests run on both."""
    if request.param == "memory":
        backing = SqliteStore(":memory:")
    else:
        backing = SqliteStore(tmp_path / "campaign.sqlite")
    yield backing
    backing.close()


@pytest.fixture
def clock():
    return FakeClock()
