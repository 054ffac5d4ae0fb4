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
scanned pair consumes exactly one delay draw, so pair p of a run reads
the draw p places after the run's start and pruning consumes fewer
draws.  A run with ``check_pruning`` is the same run, checked afterwards
by pruning.check_scan, which reads the tested pairs' draws again from
the run's start.

The pruned scan reads delays from a buffer of consecutive delay-stream
values that starts at 1,024 values and doubles up to 16,384, so a short
run transforms few values it never reads.
"""

from __future__ import annotations

from .distributions import DistributionSpec, creation_times, sample_many
from .network import NetSimConfig, SimOutcome
from .pruning import check_scan
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
    config.record_tree are ignored.  ``check_pruning`` checks the
    finished run (pruning.check_scan) and raises InvariantError at the
    first step whose height the tested pairs do not prove to be the full
    scan's; the outcome and the streams' positions are an unchecked run's.
    """
    if streams is None:
        streams = StreamBundle.for_run(config.seed)
    n = config.n

    t = creation_times(config.alpha, streams.production, n)
    delay, start = streams.delay, streams.delay.position
    h, final, widths = _pruned_scan(config.beta, delay, t.tolist())
    if check_pruning:
        end = delay.position
        delay.seek(start)
        check_scan(t, h, widths, lambda i, k: sample_many(config.beta, delay, len(i)))
        delay.seek(end)

    scanned = sum(widths)
    return SimOutcome(
        height=final,
        n=n,
        height_series=tuple(h),
        seed_echo=streams.seed_echo(),
        stats={"mean_scan_window": scanned / (n - 1) if n > 1 else 0.0,
               "pairs_tested": scanned,
               "delay_draws": scanned},
    )


def _pruned_scan(beta: DistributionSpec, delay, t: list[float]):
    """Heights of the pruned scan, the highest, and each step's width (pairs tested)."""
    h = [1]
    z = [1]
    widths = [0]
    delays: list[float] = []
    j = 0  # index in delays of the draw for the next pair
    size = FIRST_BUFFER
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
                # delays[j] ran past the buffer: the next draws refill it.
                # Catching this, instead of testing j on every pair, keeps
                # the scan's per-pair work to the bound test and the read.
                j = 0
                delays = sample_many(beta, delay, size).tolist()
                size = min(2 * size, MAX_BUFFER)
        widths.append(k - 1 - i)
        x += 1
        h.append(x)
        z.append(x if x > z[-1] else z[-1])
    return h, z[-1], widths
