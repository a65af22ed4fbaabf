"""Shared test fixtures."""

from __future__ import annotations

import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a thread running, such as a noise draw's helper."""

    before = set(threading.enumerate())
    yield
    leaked = [thread.name for thread in threading.enumerate() if thread not in before]
    assert not leaked, f"threads left running: {', '.join(leaked)}"
