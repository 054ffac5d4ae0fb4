"""numpy's PCG64 uniforms at absolute stream positions, computed in numpy.

The arithmetic behind SampleStream.at.  It relies on these facts about
numpy's PCG64, checked bit for bit against Generator.random in
tests/test_rng.py:
- the state is a 128-bit LCG, s -> s * A + inc mod 2**128, with the
  multiplier A = 0x2360ED051FC65DA44385DF649FCCF645; PCG64(seed).state
  holds the seed's `state` at position 0 and its `inc`;
- a draw steps the state first, then outputs the XSL-RR of the new state:
  (hi ^ lo) rotated right by the state's top 6 bits;
- Generator.random maps an output x to (x >> 11) * 2**-53.
So the value at position p comes from the state p+1 steps past position
0's, and j steps take a state s to A^j s + G_j inc, with G_j = A^0 +
... + A^(j-1) (F. Brown, "Random Number Generation with Arbitrary
Strides", 1994; M. O'Neill, "PCG", 2014).  Anchor states, one every
2**_ANCHOR_BITS steps, are computed as Python ints; each value then takes
one table lookup and one 128-bit multiply-add on uint64 halves from its
anchor, in slices of _AT_SLICE values.  The tables of A^j and G_j are
seed-free and built on first use.
"""

from __future__ import annotations

import functools

import numpy as np

from .distributions import lean_import

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # numpy's PCG64 multiplier A

# On a 2-core Xeon VM a dense read cost 71 ns a value with slices of
# 4,096 or 8,192, 78 ns with 16,384 and 123 ns with 65,536.
_ANCHOR_BITS = 12
_AT_SLICE = 4096


def find_origin(seed: int) -> tuple:
    """PCG64(seed)'s position-0 state, its anchor jumps and G_j * inc."""
    [pcg64] = lean_import("numpy.random", "_pcg64.PCG64")
    state = pcg64(seed).state["state"]
    s0, inc = state["state"], state["inc"]
    jumps = [(a, g * inc & _MASK128) for a, g in _anchor_jumps()]
    _, _, g_hi, g_lo = _step_tables()
    zero = np.uint64(0)
    return (s0, jumps, *_mul_add(g_hi, g_lo, np.uint64(inc >> 64), np.uint64(inc & _MASK64),
                                 zero, zero))


def uniforms_at(origin: tuple, positions) -> np.ndarray:
    """Generator.random's values at absolute positions, in their shape, of
    the stream whose find_origin() is `origin`; `positions` may be in any
    order, with repeats."""
    p = np.asarray(positions, dtype=np.int64)
    if not p.size:
        return np.empty(p.shape)
    if p.min() < 0:
        raise ValueError("stream positions must be >= 0")
    steps = p.ravel() + 1
    anchor = steps >> _ANCHOR_BITS
    first = int(anchor.min())
    span = int(anchor.max()) - first + 1
    if span <= len(steps):  # dense: every anchor of the span
        anchors, which = range(first, first + span), anchor - first
    else:
        anchors, which = np.unique(anchor, return_inverse=True)
        anchors = anchors.tolist()
    s0, jumps, c_hi, c_lo = origin
    x_hi, x_lo = _anchor_states(s0, jumps, anchors)
    a_hi, a_lo, _, _ = _step_tables()
    j = steps & ((1 << _ANCHOR_BITS) - 1)
    out = np.empty(len(steps))
    for b in range(0, len(steps), _AT_SLICE):
        i, w = which[b:b + _AT_SLICE], j[b:b + _AT_SLICE]  # take() gathers faster than []
        hi, lo = _mul_add(x_hi.take(i), x_lo.take(i), a_hi.take(w), a_lo.take(w),
                          c_hi.take(w), c_lo.take(w))
        out[b:b + _AT_SLICE] = _xsl_rr_double(hi, lo)
    return out.reshape(p.shape)


def _split(values) -> tuple[np.ndarray, np.ndarray]:
    """128-bit ints as arrays of their high and low 64 bits."""
    w = np.frombuffer(b"".join(v.to_bytes(16, "little") for v in values), dtype="<u8")
    return w[1::2].astype(np.uint64), w[0::2].astype(np.uint64)


@functools.cache
def _step_tables() -> tuple[np.ndarray, ...]:
    """A^j and G_j for j < 2**_ANCHOR_BITS, as high and low halves; seed-free.

    Built by doubling: with the entries for n < m = 2**L in hand, round L
    appends those for m + n, (A^n A^m, A^m G_n + G_m).
    """
    one, zero = np.ones(1, np.uint64), np.zeros(1, np.uint64)
    tables = (zero, one, zero, zero)  # A^0 = 1, G_0 = 0
    for bits in range(_ANCHOR_BITS):
        am_hi, am_lo, gm_hi, gm_lo = (np.uint64(v >> s & _MASK64)
                                      for v in _jump(1 << bits) for s in (64, 0))
        a_hi, a_lo, g_hi, g_lo = tables
        step = (*_mul_add(a_hi, a_lo, am_hi, am_lo, zero, zero),
                *_mul_add(g_hi, g_lo, am_hi, am_lo, gm_hi, gm_lo))
        tables = tuple(np.concatenate(pair) for pair in zip(tables, step))
    return tables


def _jump(n: int) -> tuple[int, int]:
    """(A^n, G_n) mod 2**128, so that n steps take s to A^n s + G_n inc."""
    # A^n = 1 + (A - 1) G_n, so A^n mod (A - 1) 2**128 gives G_n mod 2**128.
    a = pow(_PCG_MULT, n, (_PCG_MULT - 1) << 128)
    return a & _MASK128, (a - 1) // (_PCG_MULT - 1)


@functools.cache
def _anchor_jumps() -> list[tuple[int, int]]:
    """Jumps between anchors: (A^n, G_n) for n = 2**_ANCHOR_BITS * 2**k, k < 52."""
    return [_jump(1 << (_ANCHOR_BITS + k)) for k in range(52)]


def _anchor_states(s0: int, jumps, anchors) -> tuple[np.ndarray, np.ndarray]:
    """The states b * 2**_ANCHOR_BITS steps from s0, for sorted anchors b."""
    s, at, states = s0, 0, []
    for b in anchors:
        d, k = b - at, 0
        while d:
            if d & 1:
                a, c = jumps[k]
                s = (a * s + c) & _MASK128
            d >>= 1
            k += 1
        at = b
        states.append(s)
    return _split(states)


_M32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mul_add(x_hi, x_lo, a_hi, a_lo, c_hi, c_lo):
    """x * a + c mod 2**128 on uint64 halves; the high word of x_lo * a_lo
    is built from 32-bit limbs, the other products wrap mod 2**64."""
    x0, x1, a0, a1 = x_lo & _M32, x_lo >> _32, a_lo & _M32, a_lo >> _32
    p00, p01, p10 = x0 * a0, x0 * a1, x1 * a0
    mid = (p00 >> _32) + (p01 & _M32) + (p10 & _M32)
    hi = x1 * a1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32) + x_lo * a_hi + x_hi * a_lo
    lo = x_lo * a_lo
    out = lo + c_lo
    hi += c_hi + (out < lo)
    return hi, out


def _xsl_rr_double(hi, lo) -> np.ndarray:
    """Generator.random's double from PCG64 states: XSL-RR, then (x >> 11) * 2**-53."""
    v, r = hi ^ lo, hi >> np.uint64(58)
    x = (v >> r) | (v << ((np.uint64(64) - r) & np.uint64(63)))
    return (x >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
