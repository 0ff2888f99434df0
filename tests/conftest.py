"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
import logging

import pytest

from repro.core.store import ReplicaStore
from repro.core.timestamps import SequenceClock, Timestamp


@pytest.fixture
def store() -> ReplicaStore:
    """A store for site 0 with a deterministic sequence clock."""
    return ReplicaStore(site_id=0, clock=SequenceClock(site=0))


def make_store(site_id: int, start: float = 0.0) -> ReplicaStore:
    return ReplicaStore(site_id=site_id, clock=SequenceClock(site=site_id, start=start))


def ts(time: float, site: int = 0, seq: int = 0) -> Timestamp:
    return Timestamp(time=time, site=site, sequence=seq)


@pytest.fixture(autouse=True)
def no_asyncio_errors():
    """Fail any test during which the ``asyncio`` logger records an
    ERROR: an unhandled exception in a server callback, a task exception
    nobody retrieved.  Such damage is silent — the loop logs and carries
    on — so without this a suite can be green over a crashing server."""
    records = []
    handler = logging.Handler(level=logging.ERROR)
    handler.emit = records.append
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield
        # A dropped task reports its exception when collected; one made
        # by this test is young, and a full collection per test would
        # double the suite's run time.
        gc.collect(1)
    finally:
        logger.removeHandler(handler)
    if records:
        pytest.fail(
            "asyncio logged errors during this test:\n"
            + "\n".join(record.getMessage() for record in records)
        )
