"""Shared fixtures: an in-memory and an on-disk store behind one fixture."""

from __future__ import annotations

import pytest

from repro.persist import SqliteStore


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    """``:memory:`` and a file; every test in this package runs on both."""
    if request.param == "memory":
        backing = SqliteStore(":memory:")
    else:
        backing = SqliteStore(tmp_path / "campaign.sqlite")
    yield backing
    backing.close()
