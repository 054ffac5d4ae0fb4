"""Event-driven simulation of block production over a delaying network.

A fixed pool of m workers extends a shared tree.  Global production is a
renewal process: successive inter-block times are drawn from the
production distribution, and each block's producer is chosen uniformly.
A new block is announced to every other worker with an independent
per-recipient delay, and a worker adopts an announced tip only if it is
strictly higher than the one it is already working on.  Messages still
in flight when a block is created are delivered first if they arrive
strictly before its creation time; a message arriving exactly at the
creation instant is not yet visible.

Production times and producers are drawn in bulk up front, so every
creation time is known before the first delivery; creation_times makes
the times strictly increasing.  Delays are drawn in blocks of rows, one
row of m-1 per block.  Each message waits under the row block it
arrives in; a row block's messages are stably sorted by arrival from
send order (block, then recipient) and cut at each block's creation
time.  A message carries only the announced block; its height, all
the adoption rule compares, is read when it applies.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .blocktree import BlockTree
from .distributions import (DistributionSpec, creation_times, require_production_role,
                            sample_many)
from .errors import ConfigError
from .rng import StreamBundle

# Delay values per row block, of max(1, ROW_VALUES // (m-1)) rows.  2**16
# values per block run as fast at short delays and file fewer pieces at
# long ones, but cost about 11 MB more peak memory at m=1000.
ROW_VALUES = 2**12

# The largest worker or block count a config accepts: one array of that
# many float64 values is 16 GiB, and larger counts overflow inside a run.
MAX_COUNT = 2**31 - 1


def check_count(name: str, count: int) -> None:
    """Raise ConfigError unless 1 <= count <= MAX_COUNT."""
    if count < 1:
        raise ConfigError(f"{name} must be >= 1")
    if count > MAX_COUNT:
        raise ConfigError(f"{name} must be <= {MAX_COUNT}, got {count}")


@dataclass(frozen=True, kw_only=True)
class NetSimConfig:
    """Run parameters for every engine.

    n counts every block including the origin, so n=1 produces nothing.
    m is the worker count the bounded engines need and the unbounded
    engine ignores.  record_tree keeps parent/producer/time records for
    the full tree; only the event-driven engine builds one.
    """

    m: int | None = None
    n: int
    alpha: DistributionSpec
    beta: DistributionSpec
    seed: int
    record_tree: bool = True

    def __post_init__(self):
        if self.m is not None:
            check_count("worker count m", self.m)
        check_count("block count n", self.n)
        require_production_role(self.alpha, self.n)


@dataclass(frozen=True)
class SimOutcome:
    """Result of one simulated run, the same record from every engine.

    height is the highest block's height and height_series[k] block k's,
    origin included.  tree is present only when the run was asked to
    record it; positions, the block at each worker's tip when the run
    ends, only for the engine that tracks individual workers.
    """

    height: int
    n: int
    height_series: tuple[int, ...]
    tree: BlockTree | None = None
    positions: tuple[int, ...] | None = None
    seed_echo: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    @property
    def proportion(self) -> float:
        """p_n: final height over total block count, origin included in both."""
        return self.height / self.n


def draw_schedule(config: NetSimConfig, streams: StreamBundle):
    """Creation times and producers of every block, drawn in bulk.

    Returns ``(t, producers)`` as numpy arrays: t[k] is block k's
    creation time with the origin's 0.0 first (strictly increasing, see
    creation_times), producers[k-1] the worker that made block k.
    """
    m, n = config.m, config.n
    if m is None:
        raise ConfigError("the network and matrix engines need a worker count --m")
    t = creation_times(config.alpha, streams.production, n)
    producer_u = streams.producer.uniforms(n - 1)
    producers = np.minimum((producer_u * m).astype(np.int64), m - 1)
    return t, producers


def delivery_sweep(recipients, blocks, heights, tip_block, tip_height):
    """Apply messages in order: ``recipients[i]`` hears of ``blocks[i]``.

    A recipient adopts the announced block when its height, read from
    ``heights``, is strictly higher than the recipient's current tip; on
    equal height the incumbent is kept.  Mutates ``tip_block``/``tip_height``.
    """
    for r, b in zip(recipients, blocks):
        h = heights[b]
        if h > tip_height[r]:
            tip_block[r] = b
            tip_height[r] = h


def _file_by_arrival(due, ends, arrivals, ids):
    """Append each message to ``due[i]`` for the first row block i that
    ends after it arrives; return how many arrive after the last one ends.
    """
    where = np.searchsorted(ends, arrivals, side="right")
    order = np.argsort(where, kind="stable")
    where = where[order]
    starts = np.flatnonzero(np.diff(where, prepend=-1)).tolist()
    for i, lo, hi in zip(where[starts].tolist(), starts, starts[1:] + [len(where)]):
        if i == len(ends):
            return hi - lo
        due[i][0].append(arrivals[order[lo:hi]])
        due[i][1].append(ids[order[lo:hi]])
    return 0


def simulate_network(config: NetSimConfig, streams: StreamBundle | None = None) -> SimOutcome:
    """Run the event-driven engine and return the resulting outcome.

    ``streams`` overrides the bundle derived from ``config.seed``; tests
    inject scripted draws through it.  Each draw kind comes from its own
    substream: one production draw and one producer draw per block, and
    m-1 delay draws per block in ascending recipient order skipping the
    producer.  A closed-form engine can therefore consume the identical
    sequences.  Before creating block k the engine hands
    ``delivery_sweep`` every message not yet delivered that arrives
    strictly before t[k], in (arrival, block, recipient) order.
    """
    if streams is None:
        streams = StreamBundle.for_run(config.seed)
    m, n = config.m, config.n

    t, producer_array = draw_schedule(config, streams)
    producers = producer_array.tolist()

    tip_block = [0] * m
    tip_height = [1] * m
    parents: list[int] = []
    heights = [1] * n

    # A message's id is block * m + recipient, so ascending ids are send
    # order.  Row block i holds blocks first+1 .. last and ends at
    # ends[i] = t[last]; due[i] collects the messages that arrive in it.
    rows = max(1, ROW_VALUES // max(1, m - 1))
    ends = t[np.r_[rows:n - 1:rows, n - 1]]
    due = defaultdict(lambda: ([], []))
    undelivered = 0
    others = np.arange(m - 1)
    for i, first in enumerate(range(0, n - 1, rows)):
        last = min(first + rows, n - 1)
        created = t[first + 1:last + 1]
        d = sample_many(config.beta, streams.delay, (last - first) * (m - 1))
        arrivals = (created[:, None] + d.reshape(last - first, m - 1)).ravel()
        ids = (np.arange(first + 1, last + 1)[:, None] * m + others
               + (others >= producer_array[first:last, None])).ravel()
        # Most messages arrive within their own row block: file only the rest.
        now = arrivals < ends[i]
        undelivered += _file_by_arrival(due, ends, arrivals[~now], ids[~now])
        due[i][0].append(arrivals[now])
        due[i][1].append(ids[now])
        arrivals, ids = map(np.concatenate, due.pop(i))
        order = np.argsort(arrivals)
        if np.any(np.diff(arrivals[order]) == 0):  # ties apply in send order
            order = np.argsort(arrivals, kind="stable")
        cuts = np.searchsorted(arrivals[order], created).tolist()
        blocks, recipients = (part.tolist() for part in np.divmod(ids[order], m))
        for block, lo, hi in zip(range(first + 1, last + 1), [0] + cuts, cuts):
            delivery_sweep(recipients[lo:hi], blocks[lo:hi], heights, tip_block, tip_height)
            w = producers[block - 1]
            parents.append(tip_block[w])
            h = tip_height[w] + 1
            heights[block] = h
            tip_block[w] = block
            tip_height[w] = h

    tree = (BlockTree(parents=parents, times=t.tolist(), producers=producers)
            if config.record_tree else None)
    return SimOutcome(
        height=max(heights),
        n=n,
        height_series=tuple(heights),
        tree=tree,
        positions=tuple(tip_block),
        seed_echo=streams.seed_echo(),
        stats={"messages_sent": (n - 1) * (m - 1),
               "undelivered": undelivered},
    )
