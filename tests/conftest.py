import os

import pytest

from blocksim import montecarlo


def checked(out):
    """``out``, a network run with its tree recorded, after checking its
    height series against the tree: the origin is at height 1, every
    block's height is its parent's plus one, and the highest is the
    outcome's.
    """
    series = out.height_series
    assert series[0] == 1
    assert all(series[k] == series[p] + 1 for k, p in enumerate(out.tree.parents, 1))
    assert max(series) == out.height
    return out


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
