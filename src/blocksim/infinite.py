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
scanned pair consumes exactly one delay draw, so pruning consumes fewer
draws.  A run with ``check_pruning`` consumes a full block of k-1 draws
per step regardless, which puts the draw of every pair at a fixed place
(so its series differs from an unchecked run's), and afterwards checks
every step's height against the full scan of those draws.

The pruned scan reads delays by index from a buffer of consecutive
delay-stream values that starts at 1,024 values and doubles up to
16,384, so a short run transforms few values it never reads.  Under the
full-block contract each step moves the buffer index past the draws its
scan did not reach, and a refill seeks the stream to the first draw
still wanted, so skipped draws past the buffer's end are never
transformed; the scan reads the draws it reaches straight from the
transformed array, so the skipped ones are not converted to Python
floats either.
"""

from __future__ import annotations

import numpy as np

from .distributions import DistributionSpec, creation_times, sample_many
from .errors import InvariantError
from .network import NetSimConfig, SimOutcome
from .rng import StreamBundle

# Size of the first delay buffer of a run and the cap its doubling stops at.
FIRST_BUFFER = 1 << 10
MAX_BUFFER = 1 << 14


def simulate_infinite(config: NetSimConfig, streams: StreamBundle | None = None,
                      *, check_pruning: bool = False) -> SimOutcome:
    """Run the unbounded-worker engine and return the resulting outcome.

    Creation times come from the production substream through
    creation_times, as in the bounded engines, and visibility
    draws from the delay substream; the producer substream is unused
    since producers are all distinct by assumption.  config.m and
    config.record_tree are ignored.  ``check_pruning`` runs the pruned
    scan under the full-block draw contract, then raises InvariantError
    at the first step where it differs from the full scan (_check_scan).
    """
    if streams is None:
        streams = StreamBundle.for_run(config.seed)
    n = config.n

    t = creation_times(config.alpha, streams.production, n)
    start = streams.delay.position
    h, final, scanned = _pruned_scan(config.beta, streams.delay, t.tolist(), check_pruning)
    if check_pruning:
        _check_scan(config.beta, streams.delay, start, t, h)

    return SimOutcome(
        height=final,
        n=n,
        height_series=tuple(h),
        seed_echo=streams.seed_echo(),
        stats={"mean_scan_window": scanned / (n - 1) if n > 1 else 0.0,
               "pairs_tested": scanned,
               "delay_draws": (n - 1) * (n - 2) // 2 if check_pruning else scanned},
    )


def _pruned_scan(beta: DistributionSpec, delay, t: list[float], aligned: bool):
    """Heights of the pruned scan, the highest, and the number of pairs tested."""
    h = [1]
    z = [1]
    delays: list[float] | memoryview = []
    j = 0  # index in delays of the draw for the next pair
    start = delay.position  # delay-stream position of delays[0]
    size = FIRST_BUFFER
    scanned = 0
    for k in range(1, len(t)):
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
                delays = memoryview(delays) if aligned else delays.tolist()
                size = min(2 * size, MAX_BUFFER)
        scanned += k - 1 - i
        if aligned:
            j += i  # skip the draws of the i pairs the scan did not reach
        x += 1
        h.append(x)
        z.append(x if x > z[-1] else z[-1])
    return h, z[-1], scanned


def _check_scan(beta: DistributionSpec, delay, start: int, t: np.ndarray, h) -> None:
    """Raise InvariantError at the first step whose height is not the full scan's.

    The full scan gives step k the height 1 + max(1, max{h[i] : 1 <= i < k,
    t[i] + d(i, k) < t[k]}) from the run's own heights, with d(i, k) the
    full-block draw of pair (i, k) counted from delay position start.  It
    shares no code with _pruned_scan: given the heights, steps are
    independent, so each chunk of about MAX_BUFFER pairs is one expression.
    """
    h = np.asarray(h, dtype=np.int64)
    best = np.ones(len(h), dtype=np.int64)
    delay.seek(start)
    k0 = 2  # step 1 tests no pair
    while k0 < len(h):
        k1 = min(len(h), k0 + max(1, MAX_BUFFER // (k0 + 128)))
        # Step k tests pairs i = k-1 down to 1, from heads[k - k0] on.
        widths = np.arange(k0 - 1, k1 - 1)
        heads = np.cumsum(widths) - widths
        d = sample_many(beta, delay, int(widths.sum()))
        i = np.repeat(widths + heads, widths) - np.arange(len(d))
        seen = t[i] + d < np.repeat(t[k0:k1], widths)
        best[k0:k1] = np.maximum.reduceat(np.where(seen, h[i], 1), heads)
        k0 = k1
    bad = np.flatnonzero(best[1:] + 1 != h[1:])
    if bad.size:
        k = bad[0] + 1
        raise InvariantError(f"scan mismatch at block {k}: {h[k]} != {best[k] + 1}")
