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

Production times and producers are drawn in bulk up front.  Delays are
drawn in blocks of rows, one row of m-1 per block, and each row is
turned into that block's messages sorted by arrival time.  The priority
queue holds one entry per block in flight, keyed by the arrival of its
next message and then by block id; together with the stable sort within
each row this applies simultaneous arrivals in send order (block, then
recipient).  Messages carry only the announced tip id and its height,
which is all the adoption rule compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import heapq

import numpy as np

from .blocktree import BlockTree, WorkerPositions, height, proportion_valid
from .distributions import DistributionSpec, require_production_role, sample_many
from .errors import ConfigError, InvariantError
from .rng import StreamBundle

# Delay values per row block.  A block holds max(1, ROW_VALUES // (m-1))
# rows.  Its sorted messages stay alive as Python lists until delivered,
# so blocks of 2**16 values (the matrix engine's size) cost about 8 MB
# more peak memory than blocks of 2**12, which run just as fast.
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


@dataclass(frozen=True)
class NetSimConfig:
    """Run parameters for the bounded-worker engines.

    n counts every block including the origin, so n=1 produces nothing.
    record_tree keeps parent/producer/time records for the full tree;
    record_series keeps the per-block height sequence.
    """

    m: int
    n: int
    alpha: DistributionSpec
    beta: DistributionSpec
    seed: int
    record_tree: bool = True
    record_series: bool = False

    def __post_init__(self):
        check_count("worker count m", self.m)
        check_count("block count n", self.n)
        require_production_role(self.alpha)


@dataclass(frozen=True)
class SimOutcome:
    """Result of one simulated run.

    proportion is final height over total block count, origin included
    in both.  tree and height_series are present only when the run was
    asked to record them; positions only for the engine that tracks
    individual workers.
    """

    proportion: float
    height: int
    n: int
    tree: BlockTree | None = None
    height_series: tuple[int, ...] | None = None
    positions: WorkerPositions | None = None
    seed_echo: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.height * 1.0 / self.n != self.proportion:
            raise InvariantError(
                f"proportion {self.proportion!r} is not height/n = {self.height}/{self.n}")


def draw_schedule(config: NetSimConfig, streams: StreamBundle):
    """Creation times and producers of every block, drawn in bulk.

    Returns ``(t, producers)`` as numpy arrays: t[k] is block k's
    creation time with the origin's 0.0 first, producers[k-1] the worker
    that made block k.  The cumulative sum adds in sequence, so t holds
    the same bits as a running ``now += draw``.
    """
    m, n = config.m, config.n
    alphas = sample_many(config.alpha, streams.production, n - 1)
    t = np.concatenate(([0.0], np.cumsum(alphas)))
    producer_u = streams.producer.uniforms(n - 1)
    producers = np.minimum((producer_u * m).astype(np.int64), m - 1)
    return t, producers


def _sorted_messages(t, producers, first, rows, m, spec, stream):
    """Messages of blocks first+1 .. first+rows, each row sorted by arrival.

    Draws the rows' (m-1) delays per block in recipient order skipping
    the producer and returns ``(arrivals, recipients)`` as lists of
    per-block lists.  The sort is stable, so equal arrivals within a
    block keep ascending recipient order.
    """
    d = sample_many(spec, stream, rows * (m - 1)).reshape(rows, m - 1)
    a = t[first + 1:first + 1 + rows, None] + d
    order = np.argsort(a, axis=1, kind="stable")
    arrivals = np.take_along_axis(a, order, axis=1)
    recipients = order + (order >= producers[first:first + rows, None])
    return arrivals.tolist(), recipients.tolist()


def delivery_sweep(pending, now, tip_block, tip_height):
    """Apply every queued message arriving strictly before ``now``.

    ``pending`` is a heap of entries (arrival, block, index, arrivals,
    recipients, height), one per block with messages in flight: the
    block's messages sorted by arrival, and the index of the next one
    undelivered, whose arrival leads the entry.  Messages apply in
    (arrival, block, index) order; each lets its recipient adopt the
    announced tip when it is strictly higher than the recipient's
    current one, and on equal height the incumbent is kept.  An entry
    moves on to its block's next message, or leaves the heap once the
    block is fully delivered.  Mutates ``tip_block``/``tip_height``.
    """
    while pending and pending[0][0] < now:
        _, block, i, arrivals, recipients, h = pending[0]
        r = recipients[i]
        if h > tip_height[r]:
            tip_block[r] = block
            tip_height[r] = h
        i += 1
        if i < len(arrivals):
            heapq.heapreplace(pending, (arrivals[i], block, i, arrivals, recipients, h))
        else:
            heapq.heappop(pending)


def simulate_network(config: NetSimConfig, streams: StreamBundle | None = None,
                     *, check_invariants: bool = False) -> SimOutcome:
    """Run the event-driven engine and return the resulting outcome.

    ``streams`` overrides the bundle derived from ``config.seed``; tests
    inject scripted draws through it.  Each draw kind comes from its own
    substream: one production draw and one producer draw per block, and
    m-1 delay draws per block in ascending recipient order skipping the
    producer.  A closed-form engine can therefore consume the identical
    sequences.

    With ``check_invariants`` the final worker state is cross-checked
    against metrics recomputed from the tree alone.
    """
    if streams is None:
        streams = StreamBundle.for_run(config.seed)
    m, n = config.m, config.n

    t, producer_array = draw_schedule(config, streams)
    times = t.tolist()
    producers = producer_array.tolist()

    tip_block = [0] * m
    tip_height = [1] * m
    parents: list[int] = []
    heights: list[int] = [1]
    pending: list = []
    best_height = 1

    rows = max(1, ROW_VALUES // max(1, m - 1))
    for first in range(0, n - 1, rows):
        last = min(first + rows, n - 1)
        arrivals, recipients = _sorted_messages(t, producer_array, first, last - first,
                                                m, config.beta, streams.delay)
        for block in range(first + 1, last + 1):
            delivery_sweep(pending, times[block], tip_block, tip_height)

            w = producers[block - 1]
            parents.append(tip_block[w])
            h = tip_height[w] + 1
            heights.append(h)
            tip_block[w] = block
            tip_height[w] = h
            if h > best_height:
                best_height = h

            if m > 1:
                row = arrivals[block - 1 - first]
                heapq.heappush(pending, (row[0], block, 0, row,
                                         recipients[block - 1 - first], h))

    tree = None
    if config.record_tree:
        tree = BlockTree(parents=tuple(parents), times=tuple(times),
                         producers=tuple(producers))
    outcome = SimOutcome(
        proportion=best_height / n,
        height=best_height,
        n=n,
        tree=tree,
        height_series=tuple(heights) if config.record_series else None,
        positions=WorkerPositions(tuple(tip_block)),
        seed_echo=streams.seed_echo(),
        stats={"messages_sent": (n - 1) * (m - 1),
               "undelivered": sum(len(entry[3]) - entry[2] for entry in pending)},
    )
    if check_invariants:
        _check_outcome(outcome, tip_height, m, n)
    return outcome


def _check_outcome(outcome: SimOutcome, tip_height, m, n):
    tree = outcome.tree
    if tree is None:
        raise ValueError("invariant checks need record_tree")
    if tree.n_blocks != n:
        raise InvariantError(f"tree holds {tree.n_blocks} blocks, expected {n}")
    outcome.positions.validate_against(tree)
    depths = tree.depths()
    for w in range(m):
        tip = tip_height[w]
        if tip != depths[outcome.positions.positions[w]] or tip > outcome.height:
            raise InvariantError(f"worker {w}: tip height {tip} disagrees with "
                                 "its tree depth or exceeds the chain height")
    if outcome.height != height(tree) or outcome.proportion != proportion_valid(tree):
        raise InvariantError("outcome height or proportion disagrees with the tree")
