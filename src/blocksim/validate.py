"""On-demand cross-checks between the engines and the closed forms.

Three suites, runnable from the CLI: exact agreement of the event-driven
and delay-matrix engines' height series under shared seeds, exact
agreement of the pruned visibility scans with full scans on every step
(each engine's ``check_pruning`` run, checked over the pairs its scan tested by
pruning.check_scan, with an unchecked run's outputs), and the analytic
bound on the gap between a delay-matrix entry's
mixture CDF and the delay CDF.

The equivalence suite mixes continuous configs with tie-rich ones
(constant production and a constant delay at an integer multiple), where
simultaneous arrival and creation actually happen.  Those are the
configs that catch an engine that miscounts boundary arrivals; with
continuous draws the boundary has probability zero.  The
``strict_visibility`` knob exists purely to let callers inject that
fault and confirm the suite catches it: with it False, the matrix
engine's pruned scan raises each step's limit to the next double above
the block's creation time, so an arrival at that very instant counts as
seen, and the network engine, untouched, disagrees on tie-rich configs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .distributions import (DistributionSpec, cdf, constant, exponential, gamma,
                            chi_squared, mixture_cdf, sup_gap_bound)
from .errors import InvariantError
from .infinite import simulate_infinite
from .matrix import simulate_matrix
from .network import NetSimConfig, simulate_network
from .rng import SampleStream, StreamBundle, mix64

# Stream id for drawing randomized check configs; distinct from the
# per-run role ids so config draws never overlap run draws.
_CONFIG_STREAM_ID = 1000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_beta(u_kind: float, mean: float) -> DistributionSpec:
    if u_kind < 1 / 3:
        return exponential(mean)
    if u_kind < 2 / 3:
        return gamma(shape=2.0, mean=mean)
    return constant(mean)


def check_equivalence(base_seed: int = 0, configs: int = 100,
                      strict_visibility: bool = True) -> CheckResult:
    """Event-driven vs delay-matrix height series, exact, shared seeds.

    Draws ``configs`` randomized configs (workers 2..20, blocks 10..500,
    exponential production, delay kind in {exponential, gamma,
    constant}) and appends tie-rich constant/constant configs.
    """
    stream = SampleStream(base_seed, _CONFIG_STREAM_ID)
    cases = []
    for i in range(configs):
        u = stream.uniforms(4)
        m = 2 + int(u[0] * 19)
        n = 10 + int(u[1] * 491)
        beta = _random_beta(u[2], mean=0.05 + 2.0 * u[3])
        cases.append(NetSimConfig(m=m, n=n, alpha=exponential(1.0), beta=beta,
                                  seed=mix64(base_seed, i), record_tree=False))
    for i, m in enumerate((2, 3, 5)):
        cases.append(NetSimConfig(m=m, n=60, alpha=constant(1.0),
                                  beta=constant(2.0),
                                  seed=mix64(base_seed, configs + i),
                                  record_tree=False))

    mismatches = []
    for cfg in cases:
        net = simulate_network(cfg).height_series
        mat = simulate_matrix(cfg, strict_visibility=strict_visibility).height_series
        if net != mat:
            mismatches.append((cfg, net, mat))
    if mismatches:
        cfg, net, mat = mismatches[0]
        b = next(b for b, (x, y) in enumerate(zip(net, mat)) if x != y)
        return CheckResult(
            "engine_equivalence", False,
            f"{len(mismatches)}/{len(cases)} configs disagree; first: "
            f"m={cfg.m} n={cfg.n} beta={cfg.beta.kind}, block {b}: "
            f"network height {net[b]}, matrix {mat[b]}")
    return CheckResult("engine_equivalence", True,
                       f"{len(cases)} configs agree exactly")


def check_pruning(base_seed: int = 0, runs: int = 50,
                  max_n: int = 2000) -> CheckResult:
    """Pruned vs full scan on every step, for both scanning engines.

    Sweeps delay/production ratios 0.01, 1, and 10 (one full-size run
    each), with the remaining runs at randomized smaller sizes.  Each
    run of either engine is checked over the pairs its scan tested: the
    tested pairs must prove every height the full scan's.  An unbounded
    config runs unchecked first, as ``simulate`` runs it, so its checked
    run starts from moved streams.
    """
    stream = SampleStream(base_seed, _CONFIG_STREAM_ID + 1)
    steps = 0
    for i in range(runs):
        u = stream.uniforms(3)
        if i < 3:
            n, ratio = max_n, (0.01, 1.0, 10.0)[i]
        else:
            n = 50 + int(u[0] * 750)
            ratio = 10.0 ** (-2 + 3 * u[1])
        m = 2 + int(u[2] * 9)
        cfg = NetSimConfig(m=m, n=n, alpha=exponential(1.0),
                           beta=exponential(ratio), seed=mix64(base_seed, 7000 + i),
                           record_tree=False)
        inf_cfg = replace(cfg, n=min(n, 600), seed=mix64(base_seed, 8000 + i))
        run = f"run {i} (m={m}, n={n}, ratio={ratio:g})"
        try:
            simulate_matrix(cfg, check_pruning=True)
            run = f"unbounded engine run {i} (n={inf_cfg.n}, ratio={ratio:g})"
            streams = StreamBundle.for_run(inf_cfg.seed)
            simulate_infinite(inf_cfg, streams)
            simulate_infinite(inf_cfg, streams, check_pruning=True)
        except InvariantError as exc:
            return CheckResult("pruning_exactness", False, f"{run}: {exc}")
        steps += n - 1
    return CheckResult("pruning_exactness", True,
                       f"{runs} runs, {steps} steps, all scans agree")


def check_mixture_bound(grid_points: int = 10**4) -> CheckResult:
    """sup |mixture_cdf - delay cdf| <= 2/m on a dense grid, per kind."""
    specs = (exponential(1.0), gamma(shape=2.0, mean=1.5), chi_squared(3.0),
             constant(1.0))
    for spec in specs:
        # Cover negatives, zero, and the upper tail of every kind.
        r = np.concatenate((
            np.linspace(-1.0, 0.0, grid_points // 10),
            np.linspace(0.0, 12.0 * max(spec.mean, 1.0), grid_points),
        ))
        base = np.asarray(cdf(spec, r))
        for m in (1, 2, 10, 100):
            gap = float(np.max(np.abs(np.asarray(mixture_cdf(spec, m, r)) - base)))
            if not gap <= sup_gap_bound(m):  # a NaN gap fails too
                return CheckResult(
                    "mixture_cdf_bound", False,
                    f"{spec.kind}, m={m}: sup gap {gap:.6f} > {sup_gap_bound(m):.6f}")
    return CheckResult("mixture_cdf_bound", True,
                       f"all kinds within 2/m on {grid_points}-point grids")


def run_validation(base_seed: int = 0, quick: bool = False,
                   strict_visibility: bool = True) -> list[CheckResult]:
    """Run all suites; quick mode shrinks sizes to finish in seconds."""
    configs, runs, max_n, grid_points = (20, 10, 500, 2000) if quick else (100, 50, 2000, 10**4)
    return [
        check_equivalence(base_seed, configs=configs, strict_visibility=strict_visibility),
        check_pruning(base_seed, runs=runs, max_n=max_n),
        check_mixture_bound(grid_points=grid_points),
    ]
