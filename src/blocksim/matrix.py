"""Closed-form simulation of the bounded-worker model via a delay matrix.

Instead of routing messages, this engine reads a delay matrix: entry
d(i, j) is the lag before worker j learns of block i, with a zero at the
producer's own column.  Block k's height is then a one-liner: one plus
the best height among blocks already visible to k's producer, where
block 0 (the origin) is visible from the start.  The engine tracks
heights only; use the event-driven engine to materialize trees.

The matrix is never held whole.  Each step reads a band of arrivals
t[i] + d(i, producer) from the blocks just before it, in place, from a
flat chunk that serves many steps (see DelayMatrix).  A band narrower
than a row reads its cells from the delay substream by position
(SampleStream.at, which draws a dense set in order), so a run's time
and memory follow the cells it reads, not n*m; once a band is a row
wide each row is transformed once and kept by worker while bands can
reach it.  Both modes find a cell's stream position by DelayMatrix._cells.

One loop (_pruned_scan) places the whole run, as in the unbounded
engine: each step scans backward and stops as soon as the running best
reaches the cumulative height maximum, after which no earlier block can
improve it.  The loop fetches a chunk only when a step passes the
chunk's end; a scan that reaches below its step's band widens the band
and fetches the chunk again from that step.  An arrival counts when it
is below the step's limit, the creation time t[k]; the lenient fault
hook (strict=False) raises the limit to the next double above t[k], so
the pair test is one comparison either way.  check_pruning certifies
the run afterwards with pruning.check_scan, shared with the unbounded
engine, over the pairs each step tested: visible_height_naive reads
their cells through DelayMatrix.pair_delays, the reader the narrow
bands are built with, so a checked run reads about as many cells again
as the scan, never the whole matrix; it certifies only <, so a lenient
run fails it where a tie counts.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import DistributionSpec, _transform, sample_many
from .network import NetSimConfig, SimOutcome, draw_schedule
from .pruning import check_scan, scan_outcome
from .rng import StreamBundle

# A chunk of bands W arrivals wide covers max(1, BAND_CELLS // W) steps.
# Narrower than a row, it holds at most BAND_CELLS arrivals, read by
# position: at most rng.DENSE * BAND_CELLS uniforms (1.2 MB) are drawn at
# once.  From a row wide on, arrivals are kept by worker for twice the
# W + BAND_CELLS // W rows a chunk reaches, and transformed about
# BAND_CELLS values at a time.  A step's band starts BAND_WIDTH arrivals
# wide.
BAND_WIDTH, BAND_CELLS = 8, 2**14

class DelayMatrix:
    """The delay matrix as chunks of per-step bands of arrivals, drawn on demand.

    Row i-1 holds block i's m-1 delays in recipient order skipping the
    producer, the event-driven engine's draw order, so entry (i, j) of a
    non-producer column sits at stream position (i-1)(m-1) + j -
    [j > producer_i]; the producer's own entry is 0.  _cells is the one
    place that layout is written, for pair_delays and _fill alike.

    _build(k) serves steps k .. end-1 as (a, off, lo, end): step k+s
    reads t[i] + d(i, producer_{k+s}) at a[off[s] + i] for every block i
    from lo[s] to k+s-1.  Below lo[s] the flat chunk holds other steps'
    cells, so the reader tests i >= lo[s] itself; doubling band_width
    and building from the step again reaches further back.  A step's
    band holds at least its W = band_width blocks before it, and the
    chunk is built in numpy in one of two ways:
    - while W < m-1, each cell is read through pair_delays (stream.at,
      which draws the cells' span in order when they fill it densely),
      and no row is kept;
    - from then on, whole rows are drawn in order and transformed once
      each, then placed by _cells into arrivals kept by worker, and a
      step's band is its worker's run of them, from the first row kept.
    Each value holds the bits of the whole row's transform.  Memory is
    never n*m: a narrower chunk holds at most BAND_CELLS arrivals; the
    arrivals by worker hold twice the rows a chunk reaches.
    """

    def __init__(self, spec: DistributionSpec, stream, producers: list[int], m: int, t):
        self._spec, self._stream, self._width = spec, stream, m - 1
        self._p, self._t = np.asarray(producers, dtype=np.int64), np.asarray(t)
        self.band_width, self.transformed = BAND_WIDTH, 0
        self._rows = (0, 0, np.empty((m, 0)))  # first row, end row, arrivals by worker

    def _build(self, k: int):
        W, p = self.band_width, self._p
        k1 = min(len(p) + 1, k + max(1, BAND_CELLS // W))
        if W >= self._width:
            # Rows need .. end-1 hold blocks k-W .. k1-2.
            return self._from_rows(max(0, k - W - 1), max(k1 - 2, k - W, 1),
                                   p[k - 1:k1 - 1]) + (k1,)
        # The block of each cell, clamped at block 1.
        i = np.maximum(np.arange(k - W, k1 - W)[:, None] + np.arange(W), 1)
        d = self.pair_delays(i, np.arange(k, k1)[:, None])
        self.transformed += d.size
        a = memoryview((self._t[i] + d).ravel())
        # Step k+s's cell for block i sits at s*W + W-1 - (k+s-1-i).
        s = np.arange(k1 - k)
        return a, (W - k + (W - 1) * s).tolist(), (k - W + s).tolist(), k1

    def _cells(self, i, q):
        """The stream positions of block i's delays to workers q, and where q is i's producer."""
        pi = self._p[i - 1]
        return (i - 1) * self._width + q - (q > pi), q == pi

    def pair_delays(self, i, k):
        """The delays of blocks i to the producers of steps k, broadcast over arrays.

        Each cell is read with stream.at at its _cells position and
        transformed, or is 0 where the pair shares a producer; transformed
        does not count these reads."""
        cells, own = self._cells(i, self._p[k - 1])
        return np.where(own, 0.0, _transform(self._spec, self._stream.at(cells)))

    def _from_rows(self, need: int, end: int, q):
        """Rows need .. end-1 as arrivals by worker, each row transformed once.

        The array holds rows from first on, one per column, filled ahead.
        When rows need .. end-1 are not all in it, it is rebased at need:
        in place if they fit, else in a new array twice their size.  The
        kept rows it still covers move once, and the rows before them,
        which a widened band reaches, are transformed."""
        first, drawn, a = self._rows
        if need < first or end > first + a.shape[1]:
            b = a if end - need <= a.shape[1] else np.empty((self._width + 1, 2 * (end - need)))
            hi = max(need, min(drawn, need + b.shape[1]))
            lo = max(first, need)  # kept rows lo .. hi-1 move
            b[:, lo - need:hi - need] = a[:, lo - first:hi - first]
            self._fill(b, need, need, lo)
            first, drawn, a = need, hi, b
        # No step reads the last block's row.
        last = max(end, min(first + a.shape[1], len(self._p) - 1))
        self._fill(a, first, drawn, last)
        self._rows = (first, max(drawn, last), a)
        # Worker q's arrival from block i sits at q*cap + i-1 - first.
        return (memoryview(a.ravel()), (q * a.shape[1] - first - 1).tolist(),
                [first + 1] * len(q))

    def _fill(self, a, first: int, r0: int, r1: int) -> None:
        """Rows r0 .. r1-1, drawn in order and transformed, placed in a[:, r - first] by _cells."""
        m1, t = self._width, self._t
        q, step = np.arange(m1 + 1)[:, None], max(1, BAND_CELLS // max(1, m1))
        for r in range(r0, r1, step):
            stop = min(r1, r + step)
            self._stream.seek(r * m1)
            d = np.append(sample_many(self._spec, self._stream, (stop - r) * m1), 0.0)
            # The zero appended after the rows serves each producer's own cell.
            cells, own = self._cells(np.arange(r + 1, stop + 1), q)
            a[:, r - first:stop - first] = d[np.where(own, -1, cells - r * m1)] + t[r + 1:stop + 1]
            self.transformed += (stop - r) * m1


def visible_height_naive(t, h, widths, delays: DelayMatrix) -> None:
    """check_scan of a matrix run: raise InvariantError at the first step
    whose height the cells its scan tested do not prove to be the full scan's.

    Each tested cell is read through delays.pair_delays, the bands' cell
    reader, by its stream position.  So the check shares only the cell
    reader with _pruned_scan, not the bands or the pair test, and it
    reads the cells the scan tested, not n*m.  (The name, kept because the
    benchmark's trace wraps it, is that of the full scan it replaced.)
    """
    check_scan(t, h, widths, delays.pair_delays)


def _pruned_scan(t: list[float], delays: DelayMatrix, strict: bool):
    """Heights of the pruned scan, the highest, and each step's width (pairs tested).

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
    widths = [0]
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
        widths.append(k - 1 - i)
        x += 1
        h.append(x)
        if x > top:
            top = x
        z.append(top)
    return h, top, widths


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

    ``check_pruning`` checks the finished run over the pairs its scan
    tested (visible_height_naive) and raises InvariantError at the first
    step whose height they do not prove to be the full scan's; it moves
    no stream and changes no stat.  ``strict_visibility=False`` is the
    validation suite's fault hook: the pruned scan then counts an arrival
    at the very instant a block is made as visible, by raising each
    step's limit to the next double above its creation time, and the
    check, which keeps <, fails at the first step a tie changes.
    """
    if streams is None:
        streams = StreamBundle.for_run(config.seed)

    t, producers = draw_schedule(config, streams)
    delays = DelayMatrix(config.beta, streams.delay, producers, config.m, t)
    h, final, widths = _pruned_scan(t.tolist(), delays, strict_visibility)
    if check_pruning:
        visible_height_naive(t, h, widths, delays)
    return scan_outcome(h, final, widths, streams, delays_transformed=delays.transformed)
