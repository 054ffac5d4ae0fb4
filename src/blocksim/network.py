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

Pending messages live in a priority queue keyed by arrival time, with a
monotone sequence number as tie-breaker so simultaneous arrivals apply
in send order.  Messages carry only the announced tip id and its
height, which is all the adoption rule compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import heapq

from .blocktree import BlockTree, WorkerPositions, height, proportion_valid
from .distributions import BufferedSampler, DistributionSpec, require_production_role
from .errors import ConfigError, InvariantError
from .rng import StreamBundle


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
        if self.m < 1:
            raise ConfigError("worker count m must be >= 1")
        if self.n < 1:
            raise ConfigError("block count n must be >= 1")
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


def delivery_sweep(pending, now, tip_block, tip_height):
    """Apply every queued message arriving strictly before ``now``.

    Pops messages (arrival, seq, recipient, block, height) in arrival
    order and lets each recipient adopt the announced tip when it is
    strictly higher than the recipient's current one; on equal height
    the incumbent is kept.  Mutates ``tip_block``/``tip_height``.
    """
    while pending and pending[0][0] < now:
        _, _, recipient, block, h = heapq.heappop(pending)
        if h > tip_height[recipient]:
            tip_block[recipient] = block
            tip_height[recipient] = h


def simulate_network(config: NetSimConfig, streams: StreamBundle | None = None,
                     *, check_invariants: bool = False) -> SimOutcome:
    """Run the event-driven engine and return the resulting outcome.

    ``streams`` overrides the bundle derived from ``config.seed``; tests
    inject scripted draws through it.  Draw order per step is fixed:
    one production draw, one producer draw, then one delay draw per
    recipient in ascending worker order skipping the producer.  Each
    draw kind comes from its own substream, so a closed-form engine can
    consume the identical sequences.

    With ``check_invariants`` the final worker state is cross-checked
    against metrics recomputed from the tree alone.
    """
    if streams is None:
        streams = StreamBundle.for_run(config.seed)
    m, n = config.m, config.n

    production = BufferedSampler(config.alpha, streams.production)
    delays = BufferedSampler(config.beta, streams.delay)

    tip_block = [0] * m
    tip_height = [1] * m
    parents: list[int] = []
    producers: list[int] = []
    times: list[float] = [0.0]
    heights: list[int] = [1]
    pending: list[tuple[float, int, int, int, int]] = []
    seq = 0
    best_height = 1

    now = 0.0
    for _ in range(n - 1):
        now += production.next()
        u = streams.producer.uniforms(1)[0]
        w = min(int(u * m), m - 1)

        delivery_sweep(pending, now, tip_block, tip_height)

        parent = tip_block[w]
        h = tip_height[w] + 1
        block = len(times)
        parents.append(parent)
        producers.append(w)
        times.append(now)
        heights.append(h)
        tip_block[w] = block
        tip_height[w] = h
        if h > best_height:
            best_height = h

        for j in range(m):
            if j == w:
                continue
            arrival = now + delays.next()
            heapq.heappush(pending, (arrival, seq, j, block, h))
            seq += 1

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
        stats={"messages_sent": seq, "undelivered": len(pending)},
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
