"""Closed-form simulation of the bounded-worker model via a delay matrix.

Instead of routing messages, this engine reads a delay matrix: entry
d(i, j) is the lag before worker j learns of block i, with a zero at the
producer's own column.  Block k's height is then a one-liner: one plus
the best height among blocks already visible to k's producer, where
block 0 (the origin) is visible from the start.  The engine tracks
heights only; use the event-driven engine to materialize trees.

The matrix is never held whole.  Each step gets a band of arrivals
t[i] + d(i, producer) from the blocks just before it (see DelayMatrix):
only those entries are transformed.  A band much narrower than a row
reads its cells from the delay substream by position, so a run's time
and memory follow the cells it reads, not n*m; other bands come from
rows drawn on demand, and memory is bounded by a chunk of rows.

One loop (_pruned_scan) places the whole run, as in the unbounded
engine: each step scans backward and stops as soon as the running best
reaches the cumulative height maximum, after which no earlier block can
improve it.  An arrival counts when it is below the step's limit, the
creation time t[k]; the lenient fault hook (strict=False) raises the
limit to the next double above t[k], so the pair test is one comparison
either way.  check_pruning certifies the stop after the run with a full
scan (visible_height_naive) that sorts each chunk of rows' arrivals
together with the steps they can reach and makes its own < or <=
comparison through the sort's tie order: every step's height must equal
the full scan of the run's own history.  It draws every row once, O(n*m)
draws, and tests no pair one by one.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import DistributionSpec, _transform, sample_many
from .errors import InvariantError
from .network import NetSimConfig, SimOutcome, draw_schedule
from .rng import StreamBundle

# A chunk of bands W arrivals wide covers max(1, BAND_CELLS // W) steps,
# so it holds at most BAND_CELLS arrivals.  Read from rows, it draws about
# that many new rows, at most BY_POSITION * BAND_CELLS uniforms (under
# 1 MB), and keeps the rows from 2W blocks before it on.  A step's band
# starts BAND_WIDTH arrivals wide.
BAND_WIDTH, BAND_CELLS = 8, 2**14

# A band W arrivals wide reads its cells by stream position when
# BY_POSITION * W < m-1 (at 1, every band narrower than a row does), and
# from rows drawn in bulk otherwise.  Building the bands of a run with
# n=4,000 on one core of a 2-core Xeon VM cost, in ns per cell from bulk
# rows and by position: 99 and 116 at W=8, m-1=24; 111 and 82 at W=8,
# m-1=48; 51 and 55 at W=16, m-1=64; 62 and 52 at W=16, m-1=96; 58 and
# 51 at W=32, m-1=256; 1116 and 136 at W=8, m-1=999.
BY_POSITION = 6

# Cells per chunk of rows the full-scan check draws, about 128 kB; the
# chunk's sort holds its rows' cells at the workers of the steps inside
# its delay window, plus those steps, a few such arrays at a time.
CHECK_CELLS = 2**14


class DelayMatrix:
    """The delay matrix as per-step bands of arrivals, drawn on demand.

    Row i-1 holds block i's m-1 delays in recipient order skipping the
    producer, the event-driven engine's draw order, so entry (i, j) of a
    non-producer column sits at stream position (i-1)(m-1) + j -
    [j > producer_i]; the producer's own entry is 0.

    arrivals(k) serves step k a band a holding t[i] + d(i, producer_k)
    at a[i - k] for i = k-1 down to k-W or further; a read past it
    raises IndexError, and arrivals(k, widen=True) doubles W.  Bands are
    built a chunk of steps at a time, in numpy, and the chunks are the
    same whichever way the cells are read:
    - while BY_POSITION * W < m-1, each cell is read from the stream by
      its position (stream.at) and transformed, and no row is kept;
    - otherwise, while W < m-1, rows are drawn in bulk and only the
      bands' cells are transformed;
    - from then on, whole rows are, and a band is a slice of its
      worker's arrivals.
    Each value holds the bits of the whole row's transform.  Memory is at
    most BAND_CELLS arrivals and, for bands read from rows, the rows from
    2W blocks before them on, never n*m.  rows() draws rows afresh for
    the check.
    """

    def __init__(self, spec: DistributionSpec, stream, producers: list[int], m: int, t):
        self._spec, self._stream, self._width = spec, stream, m - 1
        self._p, self._t = np.asarray(producers, dtype=np.int64), np.asarray(t)
        self.band_width, self.transformed = BAND_WIDTH, 0
        self._k0, self._band = 0, []
        self._kept = (0, np.empty((0, self._width)))  # first row, uniforms from it on

    def rows(self, first: int, count: int) -> np.ndarray:
        """Rows first .. first+count-1 (blocks first+1 on), drawn afresh."""
        self._stream.seek(first * self._width)
        return sample_many(self._spec, self._stream, count * self._width)

    def arrivals(self, k: int, widen: bool = False) -> memoryview:
        """Step k's band; with widen, twice as wide (the chunk is rebuilt from k)."""
        if widen:
            self.band_width *= 2
        elif 0 <= k - self._k0 < len(self._band):
            return self._band[k - self._k0]
        return self._build(k)

    def _build(self, k: int) -> memoryview:
        W, m1, p = self.band_width, self._width, self._p
        by_position = BY_POSITION * W < m1
        k1 = min(len(p) + 1, k + max(1, BAND_CELLS // W))
        q = p[k - 1:k1 - 1]
        if not by_position:
            # Rows need .. end-1 hold blocks k-W .. k1-2.  Rows from block k-2W
            # on stay kept, so a band widened to twice its width needs no redraw.
            need, end = max(0, k - W - 1), max(k1 - 2, k - W, 1)
            first, u = self._kept
            if not first <= need <= first + len(u):
                first, u = need, u[:0]
            lo, drawn = max(first, k - 2 * W - 1), first + len(u)
            u = u[lo - first:]
            if end > drawn:
                self._stream.seek(drawn * m1)
                new = self._stream.uniforms((end - drawn) * m1).reshape(end - drawn, -1)
                u = np.concatenate((u, new)) if len(u) else new
            self._kept = (lo, u)
        if W >= m1:  # worker q's arrivals, blocks need+1 .. end, are one run
            u, t = u[need - lo:end - lo], self._t[need + 1:end + 1, None]
            pr, j = p[need:end, None], np.arange(m1 + 1)
            a = np.pad(_transform(self._spec, u), ((0, 0), (0, 1)))[
                np.arange(len(u))[:, None], np.where(j == pr, m1, j - (j > pr))]
            a, start = memoryview((a + t).T.ravel()), q * len(u)
            stop = start + np.arange(k - 1 - need, k1 - 1 - need)
            band = [a[b:e] for b, e in zip(start.tolist(), stop.tolist())]
            self.transformed += u.size
        else:  # the row of each cell a[w] (clamped at block 1) and its column
            rows = np.maximum(np.arange(k - W - 1, k1 - W - 1)[:, None] + np.arange(W), 0)
            q, pr = q[:, None], p[rows]
            cols = np.minimum(q - (q > pr), m1 - 1)
            u = self._stream.at(rows * m1 + cols) if by_position else u[rows - lo, cols]
            d = _transform(self._spec, u)
            a = memoryview((self._t[rows + 1] + np.where(q == pr, 0.0, d)).ravel())
            band = [a[w:w + W] for w in range(0, len(a), W)]
            self.transformed += d.size
        self._k0, self._band = k, band
        return band[0]


def visible_height_naive(t, h, delays: DelayMatrix, strict: bool = True) -> None:
    """Raise InvariantError at the first step whose height is not the full scan's.

    The full scan gives step k the height 1 + max(1, max{h[i] : 1 <= i < k,
    t[i] + d(i, producer_k) < t[k]}) from the run's own history, so a run
    that passes took the full scan's value at every step.  It shares no
    code with _pruned_scan.  Rows are drawn afresh, each once, about
    CHECK_CELLS cells at a time; for each chunk of rows:
    - the steps made after the chunk's last arrival see the whole chunk,
      so they get its best height, spread with one running max at the end;
    - the steps in between are merged with the chunk's arrivals at their
      producers in one lexsort by worker, time and a tie key, and a
      running max per worker gives each step the best height its
      producer has seen.
    The cost is O(n*m) draws plus a sort of each chunk's cells in the
    columns of the steps inside its delay window, not O(n^2) pair tests.
    """
    t, h = np.asarray(t), np.asarray(h, dtype=np.int64)
    n, m = len(h), delays._width + 1
    p = delays._p
    step = max(1, CHECK_CELLS // m)
    # late[k]: the best height of a chunk that every step from k on sees whole.
    best, late = np.ones(n, dtype=np.int64), np.ones(n + 1, dtype=np.int64)
    for i0 in range(1, n, step):
        p_i = p[i0 - 1:i0 - 1 + step, None]
        i1 = i0 + len(p_i)
        # A zero column appended at m-1 serves each producer's own entry.
        rows = np.pad(delays.rows(i0 - 1, len(p_i)).reshape(len(p_i), m - 1),
                      ((0, 0), (0, 1)))
        ti, hi = t[i0:i1], h[i0:i1]
        last = (ti + rows.max(1)).max()
        k1 = max(i1, int(np.searchsorted(t, last, "right" if strict else "left")))
        late[k1] = max(late[k1], hi.max())
        if k1 == i0 + 1:
            continue
        # Steps i0+1 .. k1-1, against the chunk's arrivals at their producers.
        ks = np.arange(i0 + 1, k1)
        workers, col = np.unique(p[i0:k1 - 1], return_inverse=True)
        arrival = rows[np.arange(len(p_i))[:, None],
                       np.where(workers == p_i, m - 1, workers - (workers > p_i))]
        arrival += ti[:, None]
        # Ties with t[k]: queries have tie key 2k, arrivals 2i+1 when lenient
        # (seen by step k iff i < k) and 2n+1 when strict (never seen).
        tie = 2 * np.arange(i0, i1) + 1 if not strict else np.full(len(hi), 2 * n + 1)
        cells, w = arrival.size, len(workers)
        order = np.lexsort((np.concatenate((np.repeat(tie, w), 2 * ks)),
                            np.concatenate((arrival.ravel(), t[ks])),
                            np.concatenate((np.tile(np.arange(w), len(hi)), col))))
        # The worker in the high 32 bits keeps each worker's running max apart.
        key = np.concatenate((np.add.outer(hi, np.arange(w) << 32).ravel(),
                              col.astype(np.int64) << 32))
        seen = np.maximum.accumulate(key[order])
        q = np.flatnonzero(order >= cells)
        found = np.empty(len(ks), dtype=np.int64)
        found[order[q] - cells] = seen[q] & 0xFFFFFFFF
        best[ks] = np.maximum(best[ks], found)
    best = np.maximum(best, np.maximum.accumulate(late[:n]))
    bad = np.flatnonzero(best[1:] + 1 != h[1:])
    if bad.size:
        k = bad[0] + 1
        raise InvariantError(f"scan mismatch at block {k}: {h[k]} != {best[k] + 1}")


def _pruned_scan(t: list[float], delays: DelayMatrix, strict: bool):
    """Heights of the pruned scan, the highest, and the number of pairs tested.

    Step k scans i = k-1 downward and stops once the running best x
    reaches z_i: every block at or before i has height at most z_i, so
    none can beat x.  Skipped blocks therefore never change the result;
    the origin is always visible, so every height is at least 2.
    Arrivals come from step k's band; block i counts when its arrival is
    below limit[k], which is t[k], or with strict False the next double up.
    """
    limit = t if strict else [math.nextafter(c, math.inf) for c in t]
    h = [1]
    z = [1]
    scanned = 0
    for k in range(1, len(t)):
        t_k = limit[k]
        a = delays.arrivals(k)
        x = 1
        i = k - 1
        while True:
            try:
                # z[0] is 1 and x starts at 1, so the scan stops at the origin.
                while x < z[i]:
                    if h[i] > x and a[i - k] < t_k:
                        x = h[i]
                    i -= 1
                break
            except IndexError:
                # a[i - k] ran past the band: widen it and go on from block i.
                # Catching this keeps the per-pair work to the test and the read.
                a = delays.arrivals(k, widen=True)
        scanned += k - 1 - i
        x += 1
        h.append(x)
        z.append(x if x > z[-1] else z[-1])
    return h, z[-1], scanned


def simulate_matrix(config: NetSimConfig, streams: StreamBundle | None = None,
                    *, check_pruning: bool = False,
                    strict_visibility: bool = True) -> SimOutcome:
    """Run the delay-matrix engine and return the resulting outcome.

    Consumes the same three substreams as the event-driven engine
    (production, producer, then delays for recipients in ascending
    worker order skipping the producer), so the two agree exactly under
    a shared seed or injected bundle.  Production times and producers
    come in bulk from the event-driven engine's draw_schedule; delays
    are read by position through a DelayMatrix, which the per-substream
    layout makes safe.  One pruned scan (_pruned_scan) then places the
    whole run.

    ``check_pruning`` checks the finished run against the full scan
    (visible_height_naive) and raises InvariantError at the first step
    that differs.  ``strict_visibility=False`` is the validation suite's
    fault hook: both scans then count an arrival at the very instant a
    block is made as visible, the pruned scan by raising each step's
    limit to the next double above its creation time.
    """
    if streams is None:
        streams = StreamBundle.for_run(config.seed)
    n = config.n

    t, producers = draw_schedule(config, streams)
    delays = DelayMatrix(config.beta, streams.delay, producers, config.m, t)
    h, final, scanned = _pruned_scan(t.tolist(), delays, strict_visibility)
    if check_pruning:
        visible_height_naive(t, h, delays, strict_visibility)

    return SimOutcome(
        height=final,
        n=n,
        height_series=tuple(h),
        seed_echo=streams.seed_echo(),
        stats={"mean_scan_window": scanned / (n - 1) if n > 1 else 0.0,
               "pairs_tested": scanned,
               "delays_transformed": delays.transformed},
    )
