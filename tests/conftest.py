import os

import pytest

from blocksim import montecarlo


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs this process may use, as montecarlo sees them."""
    def pin(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    pin(8)
    return pin


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    def __init__(self, sizes, max_workers=None):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.fixture
def recording_pool(monkeypatch, cpus):
    """The max_workers of every pool montecarlo asks for; none is started."""
    sizes = []
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor",
                        lambda max_workers=None: RecordingPool(sizes, max_workers))
    return sizes
