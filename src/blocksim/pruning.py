"""The check that a pruned visibility scan gave the full scan's heights.

Block k's height is one more than the best height among the earlier
blocks whose news reached k's producer before t_k; the origin always
counts, at height 1.  Both scanning engines test blocks i = k-1, k-2, ...
while the best found is below z_i, the highest of blocks 0..i, and
report each step's width w_k, the number of pairs it tested.
check_scan reads the delays of those pairs only.  With best_k the
largest h[i] among them whose arrival beats t_k (1 if none), and
before_k the same over all but the last, it requires at every step k:
- h[k] = 1 + best_k;
- z[k-1-w_k] <= best_k: no block the scan skipped is higher than what
  it found;
- before_k < z[k-w_k] if w_k > 0: the scan tested no pair past its stop.
The first two give h[k] the full scan's value from the run's own
history whatever the skipped pairs' delays are, and the third makes w_k
the width the pruned scan of those delays has.  So a run that passes
took the full scan's height at every step without a skipped pair read,
and a faulty scan is caught at the first step whose height or width is
not the pruned scan's.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantError

# Pairs per chunk of steps the check reads at once; a step is never split.
CHECK_PAIRS = 2**14


def check_scan(t, h, widths, delays, strict: bool = True) -> None:
    """Raise InvariantError at the first step that fails a condition above.

    widths[k] is step k's width, with widths[0] = 0 for the origin.
    delays(i, k) returns the delays of the pairs (i[p], k[p]) in scan
    order (step by step, i from k-1 down), a chunk of steps at a time
    from step 1 on.  An arrival t[i] + delay counts when below t[k], or
    with strict False at most t[k].  Given the heights, steps are
    independent, so each chunk is one expression and a reduceat per step.
    """
    t, h = np.asarray(t), np.asarray(h, dtype=np.int64)
    w = np.asarray(widths, dtype=np.int64)
    ends, z = np.cumsum(w), np.maximum.accumulate(h)
    seen = np.less if strict else np.less_equal
    k0 = 1
    while k0 < len(h):
        k1 = max(k0 + 1, int(np.searchsorted(ends, ends[k0 - 1] + CHECK_PAIRS, "right")))
        ks, wc, heads = np.arange(k0, k1), w[k0:k1], ends[k0 - 1:k1 - 1] - ends[k0 - 1]
        best, before = np.ones(len(ks), dtype=np.int64), np.zeros(len(ks), dtype=np.int64)
        # reduceat would give a step that tested no pair the next one's.
        tested = np.flatnonzero(wc)
        if tested.size:
            k = np.repeat(ks, wc)
            i = k - 1 - np.arange(len(k)) + np.repeat(heads, wc)
            found = np.where(seen(t[i] + delays(i, k), t[k]), h[i], 1)
            best[tested] = np.maximum.reduceat(found, heads[tested])
            found[heads[tested] + wc[tested] - 1] = 1
            before[tested] = np.maximum.reduceat(found, heads[tested])
        bad = np.flatnonzero((h[ks] != best + 1) | (z[ks - 1 - wc] > best)
                             | (before >= z[ks - wc]))
        if bad.size:
            s = bad[0]
            k, stop = ks[s], ks[s] - 1 - wc[s]
            if h[k] != best[s] + 1:
                raise InvariantError(f"scan mismatch at block {k}: {h[k]} != {best[s] + 1}")
            if z[stop] > best[s]:
                raise InvariantError(f"scan mismatch at block {k}: it stopped above block "
                                     f"{stop}, where heights reach {z[stop]} > {best[s]}")
            raise InvariantError(f"scan mismatch at block {k}: it tested block {stop + 1} "
                                 f"with its best already {before[s]} >= {z[stop + 1]}")
        k0 = k1
