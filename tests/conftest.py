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


class PoolLog(list):
    """The max_workers of every pool asked for, in order, and the chunks
    in flight (submitted, neither read nor cancelled): now and at most."""

    in_flight = most_in_flight = 0


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and the
    chunks in flight, and runs each chunk in-process when its result is read."""

    def __init__(self, log, max_workers=None):
        log.append(max_workers)
        self.log, self.chunks = log, []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.log.in_flight += 1
        self.log.most_in_flight = max(self.log.most_in_flight, self.log.in_flight)
        self.chunks.append(LazyChunk(self.log, fn, args))
        return self.chunks[-1]

    def shutdown(self, wait=True, *, cancel_futures=False):
        if cancel_futures:
            for chunk in self.chunks:
                chunk.cancel()


class LazyChunk:
    """A chunk submitted to a RecordingPool: it runs when its result is
    first read, and never once cancelled."""

    def __init__(self, log, fn, args):
        self.log, self.fn, self.args, self.pending = log, fn, args, True

    def result(self):
        assert self.pending, "a chunk's result is read once, and never after a cancel"
        self.pending = False
        self.log.in_flight -= 1
        return self.fn(*self.args)

    def cancel(self):
        cancelled, self.pending = self.pending, False
        self.log.in_flight -= cancelled
        return cancelled


@pytest.fixture
def recording_pool(monkeypatch, cpus):
    """A PoolLog of the pools montecarlo asks for; none is started."""
    log = PoolLog()
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor",
                        lambda max_workers=None: RecordingPool(log, max_workers))
    return log
