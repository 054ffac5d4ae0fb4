"""Test doubles and references the tests hold the package to.

ScriptedStream stands in for a SampleStream, whose docstring states the
stream protocol, so that tests can inject hand-chosen draws into the
engines; ks_distance is the one-sample reference for sampled
distributions; faulty_pruned_scan is the unbounded engine's pruned scan
with an injected fault, for the tests of its full-scan check.
"""

import numpy as np

from blocksim import infinite
from blocksim.distributions import DistributionSpec, cdf


def faulty_pruned_scan(skip=0, bump=None, by=1):
    """infinite._pruned_scan reading from ``skip`` draws on, step ``bump`` moved by ``by``."""
    pruned = infinite._pruned_scan

    def scan(beta, delay, t, aligned):
        delay.seek(delay.position + skip)
        h, top, scanned = pruned(beta, delay, t, aligned)
        if bump is not None:
            h[bump] += by
        return h, top, scanned
    return scan


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
