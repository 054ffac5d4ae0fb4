"""Closed-form simulation of the bounded-worker model via a delay matrix.

Instead of routing messages, this engine reads a delay matrix: entry
d(i, j) is the lag before worker j learns of block i, with a zero at the
producer's own column.  Block k's height is then a one-liner: one plus
the best height among blocks already visible to k's producer, where
block 0 (the origin) is visible from the start.  The engine tracks
heights only; use the event-driven engine to materialize trees.

The matrix is never held whole.  Its entries are read in blocks of rows
drawn on demand from the delay substream (see DelayMatrix), so memory is
bounded by a few row blocks rather than by n*m, and the values are the
ones the event-driven engine draws in sequence.

Each step runs one visibility scan: a pruned backward scan that stops
as soon as the running best reaches the cumulative height maximum,
after which no earlier block can improve it.  check_pruning certifies
that stop after the run with one vectorized full scan
(visible_height_naive): every step's height must equal the full scan of
the run's own history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec, sample_many
from .errors import InvariantError
from .network import NetSimConfig, SimOutcome, draw_schedule
from .rng import StreamBundle

# Delay values per row block.  A block holds max(1, BLOCK_VALUES // (m-1))
# rows: large enough that drawing one costs little per value, small
# enough that the three blocks kept take about 1.5 MB.
BLOCK_VALUES = 2**16

# Cells per chunk of the full-scan check, about 128 kB per chunk array.
# Twice as many raised validate's peak RSS by 0.6 MB and ran no faster.
CHECK_CELLS = 2**14


class DelayMatrix:
    """Entries d(i, j) of the delay matrix, drawn in row blocks on demand.

    Row i-1 holds block i's m-1 delays in recipient order skipping the
    producer, which is the order the event-driven engine draws them, so
    entry (i, j) of a non-producer column sits at stream position
    (i-1)(m-1) + j - [j > producer_i].  Rows are drawn a block at a time
    with the vectorized transform and kept as memoryviews, whose items
    index as Python floats.

    Blocks are drawn as the scans reach them.  The newest two are kept,
    plus one older block that is re-drawn by seeking the stream back when
    a scan reaches past both.  Any block can be re-drawn, so which ones
    are kept changes the cost, never the values.
    """

    def __init__(self, spec: DistributionSpec, stream, producers: list[int], m: int):
        self._spec = spec
        self._stream = stream
        self._producers = producers
        self._width = m - 1
        self._rows = max(1, BLOCK_VALUES // max(1, self._width))
        empty = (-1, None)
        self._recent = (empty, empty)  # the two newest blocks, older first
        self._older = empty  # one re-drawn block behind them
        self._blocks: dict = {}

    def entry(self, i: int, j: int) -> float:
        """Delay before worker j learns of block i (0.0 for its producer)."""
        r = i - 1
        p = self._producers[r]
        if j == p:
            return 0.0
        b = r // self._rows
        view = self._blocks.get(b)
        if view is None:
            view = self._fetch(b)
        return view[(r - b * self._rows) * self._width + j - (j > p)]

    def rows(self, first: int, count: int) -> np.ndarray:
        """Rows first .. first+count-1 (blocks first+1 on), drawn afresh."""
        self._stream.seek(first * self._width)
        return sample_many(self._spec, self._stream, count * self._width)

    def _fetch(self, b: int):
        first = b * self._rows
        view = memoryview(self.rows(first, min(self._rows, len(self._producers) - first)))
        if b > self._recent[1][0]:
            self._recent = (self._recent[1], (b, view))
        else:
            self._older = (b, view)
        self._blocks = dict((*self._recent, self._older))
        return view


@dataclass
class MatrixSimState:
    """Mutable per-run state of the visibility scan.

    t, h, z grow by one entry per block; delays serves the matrix
    entries.  strict controls the visibility comparison: arrival
    strictly before creation counts.  Flipping it to False is a
    fault-injection hook for the validation suite; simultaneous arrival
    then wrongly counts as visible.
    """

    t: list[float]
    h: list[int]
    z: list[int]
    delays: DelayMatrix
    strict: bool = True
    scanned: int = 0


def visible_height_naive(t, h, delays: DelayMatrix, strict: bool = True) -> None:
    """Raise InvariantError at the first step whose height is not the full scan's.

    The full scan gives step k the height 1 + max(1, max{h[i] : 1 <= i < k,
    t[i] + d(i, producer_k) < t[k]}) from the run's own history, so a run
    that passes took the full scan's value at every step.  A few matrix
    rows at a time are drawn afresh, spread to worker order and tested
    against every later step at once: memory stays at about CHECK_CELLS
    cells, not n*m.
    """
    t, h = np.asarray(t), np.asarray(h)
    n, m = len(h), delays._width + 1
    p, j = np.asarray(delays._producers), np.arange(m)
    step = max(1, CHECK_CELLS // max(n, m))
    best = np.ones_like(h)
    for i0 in range(1, n, step):
        p_i = p[i0 - 1:i0 - 1 + step, None]
        i1 = i0 + len(p_i)
        rows = delays.rows(i0 - 1, len(p_i)).reshape(len(p_i), m - 1)
        # A zero column appended at m-1 serves each producer's own entry.
        arrival = np.pad(rows, ((0, 0), (0, 1)))[
            np.arange(len(p_i))[:, None], np.where(j == p_i, m - 1, j - (j > p_i))]
        arrival += t[i0:i1, None]
        for k0 in range(i0 + 1, n, CHECK_CELLS):
            k1 = min(n, k0 + CHECK_CELLS)
            a = arrival[:, p[k0 - 1:k1 - 1]]
            seen = (a < t[k0:k1]) if strict else (a <= t[k0:k1])
            # Rows from k0 on hold the cells with i >= k, which never count.
            c = max(i1 - k0, 0)
            seen[k0 - i0:, :c] &= np.arange(k0, i1)[:, None] < np.arange(k0, k0 + c)
            best[k0:k1] = np.maximum(best[k0:k1],
                                     np.where(seen, h[i0:i1, None], 1).max(0, initial=1))
    bad = np.flatnonzero(best[1:] + 1 != h[1:])
    if bad.size:
        k = bad[0] + 1
        raise InvariantError(f"scan mismatch at block {k}: {h[k]} != {best[k] + 1}")


def visible_height_pruned(k: int, producer_j: int, state: MatrixSimState) -> int:
    """Height for block k: 1 + the best visible height, scanning back.

    Scans i = k-1 downward and stops once the running best x reaches
    z_i: every block at or before i has height at most z_i, so none can
    beat x.  Skipped blocks therefore never change the result; the
    origin is always visible, so the result is at least 2.
    """
    t, h, z = state.t, state.h, state.z
    entry = state.delays.entry
    t_k = t[k]
    strict = state.strict
    x = 1
    i = k - 1
    while i >= 1 and x < z[i]:
        if h[i] > x:
            arrival = t[i] + entry(i, producer_j)
            if (arrival < t_k) if strict else (arrival <= t_k):
                x = h[i]
        i -= 1
    state.scanned += k - 1 - i
    return 1 + x


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
    layout makes safe.

    ``check_pruning`` checks the finished run against the full scan
    (visible_height_naive) and raises InvariantError at the first step
    that differs.  ``strict_visibility=False`` is the validation suite's
    fault hook.
    """
    if streams is None:
        streams = StreamBundle.for_run(config.seed)
    m, n = config.m, config.n

    t, producers = (a.tolist() for a in draw_schedule(config, streams))

    state = MatrixSimState(t=t, h=[1], z=[1],
                           delays=DelayMatrix(config.beta, streams.delay, producers, m),
                           strict=strict_visibility)
    for k in range(1, n):
        h_k = visible_height_pruned(k, producers[k - 1], state)
        state.h.append(h_k)
        state.z.append(h_k if h_k > state.z[-1] else state.z[-1])
    if check_pruning:
        visible_height_naive(t, state.h, state.delays, strict_visibility)

    final = state.z[-1]
    return SimOutcome(
        proportion=final / n,
        height=final,
        n=n,
        height_series=tuple(state.h) if config.record_series else None,
        seed_echo=streams.seed_echo(),
        stats={"mean_scan_window": state.scanned / (n - 1) if n > 1 else 0.0},
    )
