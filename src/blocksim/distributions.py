"""Production-time and broadcast-delay distributions.

The model is parametric in two distributions: the time for the whole
network to produce one block (strictly positive support) and the
broadcast delay from the producer to another worker (non-negative).
Four kinds are supported: exponential, gamma, chi-squared, and a
degenerate constant used for exact hand-traced tests.

Sampling contract: every scalar draw consumes exactly one uniform from
the underlying stream, for every kind, via the inverse-CDF transform.
That keeps streams alignable between engines and makes draw counts
predictable (position advances by exactly the number of values drawn).
Draws from the continuous kinds are clamped to the smallest positive
double; creation_times, through which all three engines draw their
times, makes creation times strictly increasing.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import importlib.util
import math
import sys
import types

import numpy as np

from .errors import ConfigError, check_count

KINDS = ("exponential", "gamma", "chi_squared", "constant")

# Smallest positive double; clamping to it is statistically invisible but
# guarantees strictly positive draws from the continuous kinds.
_TINY = float(np.nextafter(0.0, 1.0))

_ALIASES = {
    "exp": "exponential",
    "exponential": "exponential",
    "gamma": "gamma",
    "chi2": "chi_squared",
    "chi_squared": "chi_squared",
    "const": "constant",
    "constant": "constant",
}


@dataclass(frozen=True)
class DistributionSpec:
    """A named, parameterized distribution.

    mean is the expectation in time units.  shape is the gamma shape k or
    the chi-squared degrees of freedom; exponential and constant take
    none, and a shape given to them is an error.  Chi-squared is
    parameterized by its degrees of freedom, and its mean equals them;
    passing an inconsistent mean is an error.
    """

    kind: str
    mean: float
    shape: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown distribution kind {self.kind!r}")
        object.__setattr__(self, "mean", _finite(self.mean, f"{self.kind} mean"))
        if self.kind in ("exponential", "constant"):
            if self.shape is not None:
                raise ConfigError(f"{self.kind} takes no shape, got {self.shape!r}")
            if self.kind == "constant" and self.mean < 0:
                raise ConfigError("constant distribution needs mean >= 0")
            if self.kind == "exponential" and self.mean <= 0:
                raise ConfigError("exponential distribution needs mean > 0")
            return
        if self.shape is None:
            raise ConfigError(f"{self.kind} distribution needs a shape parameter")
        object.__setattr__(self, "shape", _finite(self.shape, f"{self.kind} shape"))
        if self.shape <= 0:
            raise ConfigError(f"{self.kind} shape must be > 0")
        if self.kind == "chi_squared" and abs(self.mean - self.shape) > 1e-12 * max(1.0, self.shape):
            raise ConfigError(
                "chi_squared mean equals its degrees of freedom; "
                f"got mean={self.mean}, dof={self.shape}"
            )
        if self.mean <= 0:
            raise ConfigError(f"{self.kind} distribution needs mean > 0")
        # scipy's gammaincinv is NaN at a subnormal shape, and a scale of 0
        # or inf times a draw of inf or 0 is NaN.
        if _gamma_shape(self) < sys.float_info.min:
            raise ConfigError(f"{self.kind} shape {self.shape:g} is too small to sample")
        if not 0 < self.scale < math.inf:
            raise ConfigError(f"{self.kind} scale mean/shape must be finite and > 0")

    @property
    def scale(self) -> float:
        """Gamma-family scale parameter theta (mean / shape)."""
        if self.kind == "gamma":
            return self.mean / self.shape
        if self.kind == "chi_squared":
            return 2.0
        raise AttributeError(f"{self.kind} has no scale parameter")

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "mean": self.mean}
        if self.shape is not None:
            d["shape"] = self.shape
        return d


def _finite(value, what: str) -> float:
    """A finite float from a parameter value, or a ConfigError."""
    try:
        if isinstance(value, bool):
            raise TypeError  # float(True) would be 1.0
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{what} must be finite, got {x}")
    return x


def exponential(mean: float) -> DistributionSpec:
    return DistributionSpec("exponential", mean)


def gamma(shape: float, mean: float) -> DistributionSpec:
    return DistributionSpec("gamma", mean, shape)


def chi_squared(dof: float) -> DistributionSpec:
    """Chi-squared with `dof` degrees of freedom; mean is dof itself."""
    return DistributionSpec("chi_squared", dof, dof)


def constant(mean: float) -> DistributionSpec:
    return DistributionSpec("constant", mean)


def spec_from_dict(d: dict) -> DistributionSpec:
    """A spec from the config-schema dict {kind, mean, shape?}: the one
    constructor of a spec from its fields, which parse_spec also calls.
    A key other than those three is an error."""
    if not isinstance(d, dict):
        raise ConfigError(f"a distribution must be a JSON object, got {d!r}")
    extra = [repr(key) for key in d if key not in ("kind", "mean", "shape")]
    if extra:
        raise ConfigError(f"unknown distribution field {', '.join(extra)} (use kind, mean, shape)")
    if "kind" not in d:
        raise ConfigError("distribution dict needs a 'kind' field")
    kind = d["kind"]
    if kind == "chi_squared":
        # Mean and degrees of freedom are one parameter; either field sets it.
        dof = d.get("shape", d.get("mean"))
        if dof is None:
            raise ConfigError("chi_squared dict needs a 'mean' or 'shape' field")
        return DistributionSpec(kind, d.get("mean", dof), dof)
    if "mean" not in d:
        raise ConfigError("distribution dict needs a 'mean' field")
    return DistributionSpec(kind, d["mean"], d.get("shape"))


def parse_spec(text: str) -> DistributionSpec:
    """Parse the flag syntax kind:mean or kind:mean:shape.

    Examples: exp:1, gamma:0.5:2 (mean 0.5, shape 2), chi2:4, const:0.
    spec_from_dict builds it from the fields' text.
    """
    kind, *fields = text.split(":")
    kind = _ALIASES.get(kind.strip().lower())
    if kind is None:
        raise ConfigError(f"unknown distribution kind in {text!r}")
    if kind == "gamma" and len(fields) != 2:
        raise ConfigError("gamma takes two fields: gamma:<mean>:<shape>")
    if kind != "gamma" and len(fields) != 1:
        raise ConfigError(f"{kind} takes one field: {kind}:<mean>")
    return spec_from_dict(dict(zip(("kind", "mean", "shape"), (kind, *fields))))


def with_mean(spec: DistributionSpec, mean: float) -> DistributionSpec:
    """Same kind with a different mean; gamma keeps its shape.

    Chi-squared's mean is its degrees of freedom, so the dof moves with
    the mean.  Used by sweeps that control the delay/production ratio.
    """
    if spec.kind == "chi_squared":
        return chi_squared(mean)
    if spec.kind == "gamma":
        return gamma(shape=spec.shape, mean=mean)
    return DistributionSpec(spec.kind, mean)


def require_production_role(spec: DistributionSpec, n: int) -> None:
    """Production times must be strictly positive (constant 0 is delay-only),
    and no n-1 of them may sum past the largest double, so every creation
    time stays finite."""
    if spec.mean <= 0:
        raise ConfigError(f"production distribution must have positive mean, got {spec.mean}")
    # Summing n-1 draws in sequence rounds the sum up by less than n * 2**-53
    # of it; twice that also covers the rounding of this product.
    if (n - 1) * _largest_draw(spec) * (1 + n * 2.0**-52) > sys.float_info.max:
        raise ConfigError(f"production distribution {spec.kind}:{spec.mean:g} can overflow "
                          f"creation times: {n - 1} draws may sum past {sys.float_info.max:g}")


@functools.lru_cache(maxsize=64)
def _largest_draw(spec: DistributionSpec) -> float:
    """The largest value a draw can take, inf if it overflows: the transform
    of the largest uniform a stream yields, (2**53 - 1) * 2**-53."""
    return float(_transform(spec, np.array([1.0 - 2.0**-53]))[0])


# ---------------------------------------------------------------------------
# Sampling


def _transform(spec: DistributionSpec, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF transform of uniforms in [0, 1)."""
    if spec.kind == "constant":
        return np.full_like(u, spec.mean)
    # A draw past the largest double becomes inf: as a delay, an arrival
    # that is never seen.  Production draws are checked not to overflow.
    with np.errstate(over="ignore"):
        if spec.kind == "exponential":
            vals = -spec.mean * np.log1p(-u)
        else:
            gammaincinv, _ = _gamma_ufuncs()  # only the gamma kinds load scipy
            vals = gammaincinv(_gamma_shape(spec), u) * spec.scale
    return np.maximum(vals, _TINY)


def _gamma_shape(spec: DistributionSpec) -> float:
    return spec.shape if spec.kind == "gamma" else spec.shape / 2.0


def _gamma_ufuncs():
    """scipy's (gammaincinv, gammainc), from the extension that holds them."""
    return lean_import("scipy.special", "_ufuncs.gammaincinv", "_ufuncs.gammainc")


@functools.cache
def lean_import(package: str, *names: str) -> tuple:
    """The objects ``module.name`` of ``package``'s submodules, in order,
    without running the package's own __init__; a later call is a lookup.

    A package's __init__ can cost many times the one extension a run
    needs: ``import scipy.special`` loads scipy's array-API shim, and with
    it numpy.f2py and numpy.testing; ``import numpy.random`` loads every
    bit generator, mtrand and _pickle besides PCG64.  The submodules are
    loaded under a stub package that leaves sys.modules at once, so a
    later public import binds the same objects.  If the package is loaded
    already, or its layout has moved them, the public import serves them.
    """
    if package not in sys.modules:
        try:
            stub = types.ModuleType(package)
            stub.__path__ = importlib.util.find_spec(package).submodule_search_locations
            sys.modules[package] = stub
            try:
                return tuple(getattr(importlib.import_module(f"{package}.{module}"), name)
                             for module, name in (n.split(".") for n in names))
            finally:
                del sys.modules[package]
        except (ImportError, AttributeError):
            pass
    public = importlib.import_module(package)
    return tuple(getattr(public, n.split(".")[1]) for n in names)


def sample_many(spec: DistributionSpec, stream, size: int) -> np.ndarray:
    """Draw `size` values, consuming exactly `size` uniforms."""
    return _transform(spec, stream.uniforms(size))


def creation_times(spec: DistributionSpec, stream, n: int) -> np.ndarray:
    """Creation times of n blocks from n-1 production draws, origin's 0.0 first.

    The cumulative sum adds in sequence, so t holds the same bits as a
    running ``now += draw``.  Where a draw is too small to move the sum,
    the running sum is redone with each time at least the next double
    above the one before, so t is strictly increasing.
    """
    draws = sample_many(spec, stream, n - 1)
    t = np.concatenate(([0.0], np.cumsum(draws)))
    if np.any(t[1:] <= t[:-1]):
        now, times = 0.0, [0.0]
        for a in draws.tolist():
            now = max(now + a, math.nextafter(now, math.inf))
            times.append(now)
        t = np.array(times)
    return t


class BufferedSampler:
    """Scalar draws served from vectorized chunks of one stream.

    Values come in the order sample_many would give them; chunking only
    changes how the underlying uniforms are fetched, not their order.
    Works with scripted streams via take_uniforms.
    """

    def __init__(self, spec: DistributionSpec, stream, chunk: int = 8192):
        self._spec = spec
        self._stream = stream
        self._chunk = chunk
        self._buf: list[float] = []
        self._i = 0
        self.drawn = 0

    def next(self) -> float:
        if self._i >= len(self._buf):
            self._buf = _transform(
                self._spec, self._stream.take_uniforms(self._chunk)
            ).tolist()
            self._i = 0
        v = self._buf[self._i]
        self._i += 1
        self.drawn += 1
        return v


# ---------------------------------------------------------------------------
# Closed-form CDFs


def cdf(spec: DistributionSpec, r):
    """CDF of the distribution, vectorized over r."""
    r = np.asarray(r, dtype=float)
    if spec.kind == "constant":
        out = np.where(r >= spec.mean, 1.0, 0.0)
    elif spec.kind == "exponential":
        out = np.where(r >= 0, -np.expm1(-np.maximum(r, 0.0) / spec.mean), 0.0)
    else:
        _, gammainc = _gamma_ufuncs()
        out = np.where(r >= 0, gammainc(_gamma_shape(spec), np.maximum(r, 0.0) / spec.scale), 0.0)
    return out if out.ndim else float(out)


def mixture_cdf(spec: DistributionSpec, m: int, r):
    """CDF of a uniformly chosen delay-matrix entry for m workers.

    Each row of the delay matrix holds one zero (the producer's own
    column) and m-1 delay draws, so a uniformly chosen entry is 0 with
    probability 1/m and a delay draw otherwise:

        F_m(r) = 1/m + ((m-1)/m) * F_delay(r)   for r >= 0, else 0.
    """
    check_count("worker count m", m)
    r = np.asarray(r, dtype=float)
    out = np.where(r >= 0, 1.0 / m + ((m - 1) / m) * np.asarray(cdf(spec, r)), 0.0)
    return out if out.ndim else float(out)


def sup_gap_bound(m: int) -> float:
    """Upper bound 2/m on sup_r |mixture_cdf(spec, m, r) - cdf(spec, r)|.

    The true gap is (1/m)(1 - F_delay(r)) <= 1/m for r >= 0; 2/m is the
    slightly looser bound used as the exactness criterion on grids.
    """
    return 2.0 / check_count("worker count m", m)
