"""Closed-form simulation of the bounded-worker model via a delay matrix.

Instead of routing messages, this engine reads a delay matrix: entry
d(i, j) is the lag before worker j learns of block i, with a zero at the
producer's own column.  Block k's height is then a one-liner: one plus
the best height among blocks already visible to k's producer, where
block 0 (the origin) is visible from the start.  The engine tracks
heights only; use the event-driven engine to materialize trees.

The matrix is never held whole.  Each step reads a band of arrivals
t[i] + d(i, producer) from the blocks just before it, in place, from a
flat chunk that serves many steps (see DelayMatrix).  A band much
narrower than a row reads its cells from the delay substream by
position, so a run's time and memory follow the cells it reads, not
n*m; wider bands come from rows drawn on demand, only their cells
transformed, and once a band is a row wide each row is transformed
once and kept by worker while bands can reach it.

One loop (_pruned_scan) places the whole run, as in the unbounded
engine: each step scans backward and stops as soon as the running best
reaches the cumulative height maximum, after which no earlier block can
improve it.  The loop fetches a chunk only when a step passes the
chunk's end; a scan that reaches below its step's band widens the band
and fetches the chunk again from that step.  An arrival counts when it
is below the step's limit, the creation time t[k]; the lenient fault
hook (strict=False) raises the limit to the next double above t[k], so
the pair test is one comparison either way.  check_pruning certifies
the stop after the run with a full scan (visible_height_naive) that
sorts each chunk of rows' arrivals together with the steps they can
reach and makes its own < or <= comparison through the sort's tie
order: every step's height must equal the full scan of the run's own
history.  It draws every row once, O(n*m) draws, and tests no pair one
by one.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import DistributionSpec, _transform, sample_many
from .errors import InvariantError
from .network import NetSimConfig, SimOutcome, draw_schedule
from .rng import StreamBundle

# A chunk of bands W arrivals wide covers max(1, BAND_CELLS // W) steps.
# Narrower than a row, it holds at most BAND_CELLS arrivals; read from
# rows, it draws about that many new rows, at most BY_POSITION *
# BAND_CELLS uniforms (under 1 MB), and keeps the rows from 2W blocks
# before it on.  From a row wide on, arrivals are kept by worker for
# twice the W + BAND_CELLS // W rows a chunk reaches, and transformed
# about BAND_CELLS values at a time.  A step's band starts BAND_WIDTH
# arrivals wide.
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
    """The delay matrix as chunks of per-step bands of arrivals, drawn on demand.

    Row i-1 holds block i's m-1 delays in recipient order skipping the
    producer, the event-driven engine's draw order, so entry (i, j) of a
    non-producer column sits at stream position (i-1)(m-1) + j -
    [j > producer_i]; the producer's own entry is 0.

    _build(k) serves steps k .. end-1 as (a, off, lo, end): step k+s
    reads t[i] + d(i, producer_{k+s}) at a[off[s] + i] for every block i
    from lo[s] to k+s-1.  Below lo[s] the flat chunk holds other steps'
    cells, so the reader tests i >= lo[s] itself; doubling band_width
    and building from the step again reaches further back.  A step's
    band holds at least its W = band_width blocks before it, and the
    chunk is built in numpy in one of three ways:
    - while BY_POSITION * W < m-1, each cell is read from the stream by
      its position (stream.at) and transformed, and no row is kept;
    - otherwise, while W < m-1, rows are drawn in bulk and only the
      bands' cells are transformed;
    - from then on, whole rows are transformed once each into arrivals
      kept by worker, and a step's band is its worker's run of them,
      from the first row kept.
    Each value holds the bits of the whole row's transform.  Memory is
    never n*m: a narrower chunk holds at most BAND_CELLS arrivals and,
    read from rows, the uniforms from 2W blocks before it on; the
    arrivals by worker hold twice the rows a chunk reaches.  rows()
    draws rows afresh for the check.
    """

    def __init__(self, spec: DistributionSpec, stream, producers: list[int], m: int, t):
        self._spec, self._stream, self._width = spec, stream, m - 1
        self._p, self._t = np.asarray(producers, dtype=np.int64), np.asarray(t)
        self.band_width, self.transformed = BAND_WIDTH, 0
        self._kept = (0, np.empty((0, self._width)))  # first row, uniforms from it on
        self._rows = (0, 0, np.empty((m, 0)))  # first row, end row, arrivals by worker

    def rows(self, first: int, count: int) -> np.ndarray:
        """Rows first .. first+count-1 (blocks first+1 on), drawn afresh."""
        self._stream.seek(first * self._width)
        return sample_many(self._spec, self._stream, count * self._width)

    def _build(self, k: int):
        W, m1, p = self.band_width, self._width, self._p
        k1 = min(len(p) + 1, k + max(1, BAND_CELLS // W))
        q = p[k - 1:k1 - 1]
        # Rows need .. end-1 hold blocks k-W .. k1-2.
        need, end = max(0, k - W - 1), max(k1 - 2, k - W, 1)
        if W >= m1:
            return self._from_rows(need, end, q) + (k1,)
        by_position = BY_POSITION * W < m1
        if not by_position:
            # Rows from block k-2W on stay kept, so a band widened to twice
            # its width needs no redraw.
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
        # The row of each cell (clamped at block 1) and its column.
        rows = np.maximum(np.arange(k - W - 1, k1 - W - 1)[:, None] + np.arange(W), 0)
        q, pr = q[:, None], p[rows]
        cols = np.minimum(q - (q > pr), m1 - 1)
        u = self._stream.at(rows * m1 + cols) if by_position else u[rows - lo, cols]
        d = _transform(self._spec, u)
        self.transformed += d.size
        a = memoryview((self._t[rows + 1] + np.where(q == pr, 0.0, d)).ravel())
        # Step k+s's cell for block i sits at s*W + W-1 - (k+s-1-i).
        s = np.arange(k1 - k)
        return a, (W - k + (W - 1) * s).tolist(), (k - W + s).tolist(), k1

    def _from_rows(self, need: int, end: int, q):
        """Rows need .. end-1 as arrivals by worker, each row transformed once.

        The array holds twice the rows a chunk needs and is filled ahead;
        when a chunk runs past its end, the rows still needed move to the
        front, so each row moves about once.  A band widened past the
        first row kept gets a new array, which takes over the rows kept."""
        first, drawn, a = self._rows
        if first <= need <= drawn and end - need <= a.shape[1]:
            if end > first + a.shape[1]:
                a[:, :drawn - need] = a[:, need - first:drawn - first]
                first = need
        else:
            self._kept = None
            b = np.empty((self._width + 1, 2 * (end - need)))
            lo, hi = max(first, need), min(drawn, need + b.shape[1])
            if lo < hi:  # kept rows the new array covers
                b[:, lo - need:hi - need] = a[:, lo - first:hi - first]
                self._fill(b, need, need, lo)
            else:
                hi = need
            first, drawn, a = need, hi, b
        # No step reads the last block's row.
        last = max(end, min(first + a.shape[1], len(self._p) - 1))
        self._fill(a, first, drawn, last)
        self._rows = (first, max(drawn, last), a)
        # Worker q's arrival from block i sits at q*cap + i-1 - first.
        return (memoryview(a.ravel()), (q * a.shape[1] - first - 1).tolist(),
                [first + 1] * len(q))

    def _fill(self, a, first: int, r0: int, r1: int) -> None:
        """Transform rows r0 .. r1-1 into a[:, r - first], about BAND_CELLS values at a time."""
        m1, p = self._width, self._p
        j, step = np.arange(m1 + 1), max(1, BAND_CELLS // max(1, m1))
        for r in range(r0, r1, step):
            stop = min(r1, r + step)
            self._stream.seek(r * m1)
            u = self._stream.uniforms((stop - r) * m1).reshape(stop - r, m1)
            # A zero column appended at m-1 serves each producer's own entry.
            d, pr = np.pad(_transform(self._spec, u), ((0, 0), (0, 1))), p[r:stop, None]
            d = d[np.arange(stop - r)[:, None], np.where(j == pr, m1, j - (j > pr))]
            a[:, r - first:stop - first] = (d + self._t[r + 1:stop + 1, None]).T
            self.transformed += u.size


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
    Arrivals are read in place from the chunk holding step k's band;
    block i counts when its arrival is below limit[k], which is t[k], or
    with strict False the next double up.
    """
    limit = t if strict else [math.nextafter(c, math.inf) for c in t]
    h = [1]
    z = [1]
    top = 1
    scanned = 0
    end = 1
    for k in range(1, len(t)):
        if k == end:
            a, offs, los, end = delays._build(k)
            k0 = k
        off = offs[k - k0]
        lo = los[k - k0]
        t_k = limit[k]
        x = 1
        i = k - 1
        # z[0] is 1 and x starts at 1, so the scan stops at the origin.
        while x < z[i]:
            if i < lo:
                # Below the band a[off + i] is another step's cell: widen
                # the band, rebuilt from step k, and go on from block i.
                delays.band_width *= 2
                a, offs, los, end = delays._build(k)
                k0, off, lo = k, offs[0], los[0]
                continue
            if h[i] > x and a[off + i] < t_k:
                x = h[i]
            i -= 1
        scanned += k - 1 - i
        x += 1
        h.append(x)
        if x > top:
            top = x
        z.append(top)
    return h, top, scanned


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
