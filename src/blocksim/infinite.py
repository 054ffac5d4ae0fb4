"""Approximation of the model's unbounded-worker limit.

With infinitely many workers every block has a distinct producer, so no
delay is ever reused: whether an earlier block was visible when block k
appeared is decided by a fresh delay draw per tested pair.  That drops
the worker count and the delay matrix entirely, at the cost of ignoring
the hysteresis of real fixed delays; the bias is negligible outside
chaotic regimes (delay mean far above production mean) and is reported,
not corrected, there.

The visibility scan supports the same pruning as the matrix engine.
Draw contract: pairs (i, k) are scanned in descending i and every
scanned pair consumes exactly one delay draw.  Pruning stops the scan
early and so consumes fewer draws; pass ``align_draws=True`` to consume
a full block of k-1 draws per step regardless, which makes pruned and
unpruned runs read the identical draw for every pair and return
identical results.

The pruned scan reads delays by index from a buffer of consecutive
delay-stream values that starts at 1,024 values and doubles up to
16,384, so a short run transforms few values it never reads.  Under the
full-block contract each step moves the buffer index past the draws its
scan did not reach, and a refill seeks the stream to the first draw
still wanted, so skipped draws past the buffer's end are never
transformed; the scan reads the draws it reaches straight from the
transformed array, so the skipped ones are not converted to Python
floats either.  The unpruned scan shares no code with it: it tests each
step's pairs at once in numpy, so comparing the two checks the pruning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (DistributionSpec, creation_times, require_production_role,
                            sample_many)
from .network import SimOutcome, check_count
from .rng import StreamBundle

# Size of the first delay buffer of a run and the cap its doubling stops at.
FIRST_BUFFER = 1 << 10
MAX_BUFFER = 1 << 14


@dataclass(frozen=True)
class InfSimConfig:
    """Run parameters for the unbounded-worker engine."""

    n: int
    alpha: DistributionSpec
    beta: DistributionSpec
    seed: int
    use_pruning: bool = True

    def __post_init__(self):
        check_count("block count n", self.n)
        require_production_role(self.alpha, self.n)


def simulate_infinite(config: InfSimConfig, streams: StreamBundle | None = None,
                      *, align_draws: bool = False) -> SimOutcome:
    """Run the unbounded-worker engine and return the resulting outcome.

    Creation times come from the production substream through
    creation_times, as in the bounded engines, and visibility
    draws from the delay substream; the producer substream is unused
    since producers are all distinct by assumption.
    """
    if streams is None:
        streams = StreamBundle.for_run(config.seed)
    n = config.n

    t = creation_times(config.alpha, streams.production, n)
    full_block = (n - 1) * (n - 2) // 2
    if config.use_pruning:
        h, final, scanned = _pruned_scan(config.beta, streams.delay, t.tolist(), align_draws)
    else:
        (h, final), scanned = _full_scan(config.beta, streams.delay, t), full_block
    consumed = full_block if align_draws or not config.use_pruning else scanned

    return SimOutcome(
        height=final,
        n=n,
        height_series=tuple(h),
        seed_echo=streams.seed_echo(),
        stats={"mean_scan_window": scanned / (n - 1) if n > 1 else 0.0,
               "pairs_tested": scanned,
               "delay_draws": consumed},
    )


def _pruned_scan(beta: DistributionSpec, delay, t: list[float], align_draws: bool):
    """Heights of the pruned scan, the highest, and the number of pairs tested."""
    n = len(t)
    h = [1]
    z = [1]
    delays: list[float] | memoryview = []
    j = 0  # index in delays of the draw for the next pair
    start = delay.position  # delay-stream position of delays[0]
    size = FIRST_BUFFER
    scanned = 0
    for k in range(1, n):
        t_k = t[k]
        x = 1
        i = k - 1
        while True:
            try:
                # z[0] is 1 and x starts at 1, so the scan stops at the origin.
                while x < z[i]:
                    if t[i] + delays[j] < t_k and h[i] > x:
                        x = h[i]
                    i -= 1
                    j += 1
                break
            except IndexError:
                # delays[j] ran past the buffer: refill from its position on.
                # Catching this, instead of testing j on every pair, keeps
                # the scan's per-pair work to the bound test and the read.
                start += j
                j = 0
                delay.seek(start)
                delays = sample_many(beta, delay, size)
                # An aligned run skips most of each refill, so it reads the
                # draws it reaches from the array instead of converting all.
                delays = memoryview(delays) if align_draws else delays.tolist()
                size = min(2 * size, MAX_BUFFER)
        scanned += k - 1 - i
        if align_draws:
            j += i  # skip the draws of the i pairs the scan did not reach
        x += 1
        h.append(x)
        z.append(x if x > z[-1] else z[-1])
    return h, z[-1], scanned


def _full_scan(beta: DistributionSpec, delay, t: np.ndarray) -> tuple[list[int], int]:
    """Heights of the unpruned scan, and the highest of them.

    Draws are read in sequence, about MAX_BUFFER values at a time: step
    k's k-1 draws, for pairs i = k-1 down to 1, start (k-1)(k-2)/2
    values into the run's draws.
    """
    h = np.ones(len(t), dtype=np.int64)
    k0 = 1
    while k0 < len(t):
        k1 = min(len(t), k0 + max(1, MAX_BUFFER // (k0 + 128)))
        first = (k0 - 1) * (k0 - 2) // 2
        d = sample_many(beta, delay, (k1 - 1) * (k1 - 2) // 2 - first)
        for k in range(k0, k1):
            b = (k - 1) * (k - 2) // 2 - first
            seen = t[k - 1:0:-1] + d[b:b + k - 1] < t[k]
            h[k] = 1 + h[k - 1:0:-1][seen].max(initial=1)
        k0 = k1
    return h.tolist(), int(h.max())
