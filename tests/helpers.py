"""Test doubles and references the tests hold the package to.

ScriptedStream stands in for a SampleStream, whose docstring states the
stream protocol, so that tests can inject hand-chosen draws into the
engines; ks_distance is the one-sample reference for sampled
distributions; unbounded_height_law is the exact law of the unbounded
model's height at small n; faulty_pruned_scan and mutated_scan are an
engine's pruned scan with an injected fault, for the tests of the
pruning check.
"""

from fractions import Fraction
import inspect
import itertools

import numpy as np

from blocksim.distributions import DistributionSpec, cdf


def faulty_pruned_scan(engine, bump=None, by=1, stop=None, skip=0):
    """engine._pruned_scan with step ``bump`` moved by ``by``, step
    ``stop`` reporting one pair fewer than it tested (a scan that stops
    one pair early and keeps its height), or, for the unbounded engine,
    every draw read ``skip`` stream positions on."""
    pruned = engine._pruned_scan

    def scan(*args):
        if skip:
            args[1].seek(args[1].position + skip)
        h, top, widths = pruned(*args)
        if bump is not None:
            h[bump] += by
        if stop is not None:
            widths[stop] -= 1
        return h, top, widths
    return scan


def mutated_scan(engine, old, new):
    """engine._pruned_scan compiled from its source with ``old``, which
    must occur once, replaced by ``new``."""
    source = inspect.getsource(engine._pruned_scan)
    if source.count(old) != 1:
        raise ValueError(f"{old!r} occurs {source.count(old)} times in the scan")
    namespace = dict(vars(engine))
    exec(compile(source.replace(old, new), engine.__file__, "exec"), namespace)
    return namespace["_pruned_scan"]


class ScriptedStream:
    """Test double: replays a fixed sequence of uniform values.

    Used to inject hand-chosen draws into the engines for oracle tests.
    Raises if more draws are requested than were scripted.
    """

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)
        if self._values.ndim != 1:
            raise ValueError("scripted values must be one-dimensional")
        if np.any((self._values < 0.0) | (self._values >= 1.0)):
            raise ValueError("scripted values must lie in [0, 1)")
        self.derived_seed = None
        self.position = 0

    def uniforms(self, size: int) -> np.ndarray:
        if self.position + size > len(self._values):
            raise IndexError(
                f"scripted stream exhausted: requested {size} at position "
                f"{self.position} of {len(self._values)}"
            )
        out = self._values[self.position : self.position + size]
        self.position += size
        return out

    def seek(self, pos: int) -> None:
        self.position = pos

    def at(self, positions) -> np.ndarray:
        """The scripted values at absolute positions; position stays."""
        p = np.asarray(positions, dtype=np.int64)
        if p.size and (p.min() < 0 or p.max() >= len(self._values)):
            raise IndexError(f"scripted stream holds positions 0 to {len(self._values) - 1}")
        return self._values[p]

    def take_uniforms(self, max_size: int) -> np.ndarray:
        remaining = len(self._values) - self.position
        if remaining <= 0:
            raise IndexError("scripted stream exhausted")
        return self.uniforms(min(max_size, remaining))


def ks_distance(samples, spec: DistributionSpec) -> float:
    """One-sample Kolmogorov-Smirnov distance to the spec's CDF.

    Computed directly from the sorted sample so it stays independent of
    the sampling path it checks.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    f = np.asarray(cdf(spec, x))
    hi = np.max(np.arange(1, n + 1) / n - f)
    lo = np.max(f - np.arange(0, n) / n)
    return float(max(hi, lo))


def unbounded_height_law(n: int, delay_ratio) -> dict[int, Fraction]:
    """The exact law of the unbounded model's final height, {height: P}.

    Blocks 0 .. n-1, block 0 the origin; production times are
    exponential of mean a and delays exponential of mean b = delay_ratio
    * a.  Given the creation times t, each pair (i, k), 1 <= i < k < n,
    is visible independently with probability 1 - e^{-(t_k - t_i)/b},
    and block k's height is 1 + max(1, the heights of the blocks visible
    to it).  Expanding each visible pair's factor gives a pattern's
    probability as a sum of terms +-e^{-sum_g c_g G_g / b}, where the gap
    G_g = t_g - t_{g-1} is exponential of mean a and c_g counts the
    term's pairs that span it.  The gaps are independent and E[e^{-c G/b}]
    = 1/(1 + c a/b), so every term, and the law, is an exact rational.
    """
    r = Fraction(delay_ratio)
    pairs = [(i, k) for k in range(2, n) for i in range(1, k)]

    def mean(term):  # E[e^{-sum over the term's pairs of (t_k - t_i)/b}]
        out = Fraction(1)
        for g in range(1, n):
            out /= 1 + sum(i < g <= k for i, k in term) / r
        return out

    law: dict[int, Fraction] = {}
    for visible in itertools.product((False, True), repeat=len(pairs)):
        h = [1]
        for k in range(1, n):
            h.append(1 + max([1] + [h[i] for (i, j), v in zip(pairs, visible) if j == k and v]))
        seen = [p for p, v in zip(pairs, visible) if v]
        unseen = [p for p, v in zip(pairs, visible) if not v]
        p = sum((-1) ** sum(chosen) * mean(unseen + list(itertools.compress(seen, chosen)))
                for chosen in itertools.product((0, 1), repeat=len(seen)))
        law[max(h)] = law.get(max(h), 0) + p
    return law
