"""Replication harness and the experiment drivers built on it.

run_replication_sets runs a batch of replication sets, each a named
engine run R times on independent substreams, over at most one process
pool, and aggregates each set's proportion estimates; every experiment
makes one call to it.  run_replications is its one-set form.  Three
experiments give plot-ready tables: convergence of the bounded engine
toward the unbounded one as the worker count grows, efficiency of the
chain as a function of the delay/production mean ratio, and paired
outcome histograms for the bounded and unbounded engines.

Seeding is two-level: replication r of a unit that was handed
``base_seed`` runs with seed mix64(base_seed, r), and each experiment
point derives its own base seed from the plan seed and the point index.
Everything downstream is deterministic given the plan.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .distributions import DistributionSpec, with_mean
from .errors import ConfigError
from .infinite import InfSimConfig, simulate_infinite
from .matrix import simulate_matrix
from .network import NetSimConfig, simulate_network
from .rng import mix64

ENGINES = {
    "network": simulate_network,
    "matrix": simulate_matrix,
    "infinite": simulate_infinite,
}

EXPERIMENT_KINDS = ("convergence", "efficiency", "pdf_histogram", "single")

# Column layouts of the emitted tables; stable, recorded in manifests.
CONVERGENCE_COLUMNS = ("m", "mean_p", "q25", "q75", "replications")
EFFICIENCY_COLUMNS = ("ratio", "alpha_mean", "beta_mean", "mean_p", "std_err",
                      "predicted_p", "abs_error")
HISTOGRAM_COLUMNS = ("bin_left", "bin_right", "density_Am", "density_Ainf")
SINGLE_COLUMNS = ("replication", "p_n")


@dataclass(frozen=True)
class McEstimate:
    """Aggregate of one Monte Carlo batch of proportion estimates."""

    mean: float
    std_error: float
    quantiles: dict
    replications: int
    values: tuple[float, ...]


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment: what to sweep, how often, and from which seed.

    sweep holds worker counts for convergence and mean ratios for
    efficiency; it is ignored by pdf_histogram and single runs.  m is
    the bounded-engine worker count for pdf_histogram (and network or
    matrix single runs); engine only matters for kind="single".
    """

    kind: str
    alpha: DistributionSpec
    beta: DistributionSpec
    n: int
    base_seed: int
    replications: int
    sweep: tuple[float, ...]
    m: int
    bins: int
    engine: str

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.replications < 1:
            raise ConfigError("replication count must be >= 1")
        if self.kind in ("convergence", "efficiency") and not self.sweep:
            raise ConfigError(f"{self.kind} experiment needs a non-empty sweep")
        if self.kind == "pdf_histogram" and self.bins < 1:
            raise ConfigError(f"histogram bin count must be >= 1, got {self.bins}")
        if self.kind == "convergence":
            for m in self.sweep:
                if not (math.isfinite(m) and m == int(m) and m >= 1):
                    raise ConfigError("convergence sweep: worker counts must be "
                                      f"finite integers >= 1, got {m!r}")
        if not isinstance(self.engine, str) or self.engine not in ENGINES:
            raise ConfigError(f"unknown engine {self.engine!r}")


@dataclass(frozen=True)
class ExperimentResult:
    """A finished experiment: a table plus side artifacts.

    rows hold plain scalars in column order; extras carries values that
    do not fit the table (sample arrays, KS distances, warnings).
    """

    kind: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    extras: dict = field(default_factory=dict)


def _run_one(engine_name: str, config) -> float:
    return ENGINES[engine_name](config).proportion


# Replications per task handed to a pool worker.  Run costs vary widely
# within one experiment (they rise with the delay ratio), so small chunks
# keep both workers busy until the end.
POOL_CHUNK = 10


def run_replication_sets(sets, jobs: int = 1) -> list[McEstimate]:
    """Run several replication sets and aggregate each one.

    sets is a sequence of (engine, config, replications, base_seed);
    each yields one McEstimate, in order.  Replication r of a set runs
    engine, a name from ENGINES, with seed mix64(base_seed, r).  With
    jobs > 1 every (set, replication) pair of the whole batch is spread
    over one process pool of at most ``jobs`` workers, so an experiment
    starts at most one pool.  Results are reduced in replication order,
    so the estimates are deterministic regardless of ``jobs``.
    """
    if jobs < 1:
        raise ConfigError(f"job count must be >= 1, got {jobs}")
    engines, configs, indices, counts = [], [], [], []
    for engine, config, replications, base_seed in sets:
        if replications < 1:
            raise ConfigError("replication count must be >= 1")
        engines += [engine] * replications
        configs += [replace(config, seed=mix64(base_seed, r)) for r in range(replications)]
        indices += range(replications)
        counts.append(replications)

    if jobs > 1:
        chunk = max(1, min(POOL_CHUNK, len(configs) // (jobs * 4)))
        # No more workers than chunks to run or CPUs this process may use.
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        workers = min(jobs, -(-len(configs) // chunk), cpus)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(_run_one, engines, configs, chunksize=chunk))
    else:
        values = []
        for engine, config, r in zip(engines, configs, indices):
            try:
                values.append(_run_one(engine, config))
            except Exception as exc:
                raise RuntimeError(f"replication {r} failed: {exc}") from exc

    estimates, done = [], 0
    for replications in counts:
        estimates.append(_estimate(values[done:done + replications]))
        done += replications
    return estimates


def run_replications(engine, config, replications: int, base_seed: int,
                     jobs: int = 1) -> McEstimate:
    """Run ``engine`` R times and aggregate the proportion estimates.

    engine is a name from ENGINES.  Replication r runs with seed
    mix64(base_seed, r), overriding config.seed.  The one-set call of
    run_replication_sets.
    """
    return run_replication_sets([(engine, config, replications, base_seed)], jobs)[0]


def _estimate(values: list[float]) -> McEstimate:
    arr = np.asarray(values)
    q25, q50, q75 = (float(q) for q in np.quantile(arr, (0.25, 0.5, 0.75)))
    return McEstimate(
        mean=float(arr.mean()),
        std_error=float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0,
        quantiles={0.25: q25, 0.5: q50, 0.75: q75},
        replications=len(values),
        values=tuple(values),
    )


def predicted_p(alpha_mean: float, beta_mean: float) -> float:
    """Closed-form prediction mean_production/(mean_production+mean_delay).

    Exact in the unbounded-worker model when the delay is deterministic;
    delay variability pushes the simulated proportion above this value,
    mildly for low-variance delays and strongly in chaotic regimes.  Use
    prediction_warning to flag ratios where the prediction is dubious.
    """
    if alpha_mean <= 0:
        raise ConfigError("production mean must be > 0")
    if beta_mean < 0:
        raise ConfigError("delay mean must be >= 0")
    return alpha_mean / (alpha_mean + beta_mean)


def prediction_warning(alpha_mean: float, beta_mean: float) -> bool:
    """True when the ratio leaves the regime the prediction was made for."""
    return beta_mean / alpha_mean > 1.0


def convergence_experiment(plan: ExperimentPlan, jobs: int = 1) -> ExperimentResult:
    """Mean proportion per worker count, plus the unbounded reference.

    Runs the matrix engine once per m in plan.sweep and the unbounded
    engine as the final row (m column "inf"), all on plan.n blocks with
    plan.replications each.
    """
    if plan.kind != "convergence":
        raise ConfigError(f"plan kind is {plan.kind!r}, expected convergence")
    workers = [int(m) for m in plan.sweep]
    sets = [("matrix", NetSimConfig(m=m, n=plan.n, alpha=plan.alpha, beta=plan.beta,
                                    seed=0, record_tree=False),
             plan.replications, mix64(plan.base_seed, idx))
            for idx, m in enumerate(workers)]
    inf_cfg = InfSimConfig(n=plan.n, alpha=plan.alpha, beta=plan.beta, seed=0)
    sets.append(("infinite", inf_cfg, plan.replications,
                 mix64(plan.base_seed, len(plan.sweep))))
    labels = workers + ["inf"]
    results = run_replication_sets(sets, jobs)
    rows = tuple((m, est.mean, est.quantiles[0.25], est.quantiles[0.75], est.replications)
                 for m, est in zip(labels, results))
    return ExperimentResult(kind=plan.kind, columns=CONVERGENCE_COLUMNS, rows=rows)


def default_ratio_grid() -> tuple[float, ...]:
    """Log grid over mean ratios 1e-3..1e2, 11 points per decade.

    Endpoint inclusive, so 51 points across the five decades.
    """
    return tuple(float(r) for r in np.logspace(-3.0, 2.0, 51))


def efficiency_experiment(plan: ExperimentPlan, jobs: int = 1) -> ExperimentResult:
    """Mean proportion per delay/production ratio, with the prediction.

    For each ratio r in plan.sweep the delay spec is rescaled to mean
    r * alpha_mean and the unbounded engine is replicated.  Rows pair
    the measurement with predicted_p and their absolute difference.
    """
    if plan.kind != "efficiency":
        raise ConfigError(f"plan kind is {plan.kind!r}, expected efficiency")
    betas = [with_mean(plan.beta, float(ratio) * plan.alpha.mean) for ratio in plan.sweep]
    estimates = run_replication_sets(
        [("infinite", InfSimConfig(n=plan.n, alpha=plan.alpha, beta=beta_r, seed=0),
          plan.replications, mix64(plan.base_seed, idx))
         for idx, beta_r in enumerate(betas)], jobs)
    rows = []
    warned = []
    for ratio, beta_r, est in zip(plan.sweep, betas, estimates):
        pred = predicted_p(plan.alpha.mean, beta_r.mean)
        if prediction_warning(plan.alpha.mean, beta_r.mean):
            warned.append(float(ratio))
        rows.append((float(ratio), plan.alpha.mean, beta_r.mean, est.mean,
                     est.std_error, pred, abs(est.mean - pred)))
    return ExperimentResult(kind=plan.kind, columns=EFFICIENCY_COLUMNS,
                            rows=tuple(rows),
                            extras={"chaotic_ratios": warned})


def pdf_histogram_experiment(plan: ExperimentPlan, jobs: int = 1) -> ExperimentResult:
    """Paired outcome densities of the bounded and unbounded engines.

    Collects plan.replications outcomes from the matrix engine with
    plan.m workers and as many from the unbounded engine, bins both on
    shared edges, and reports the two-sample Kolmogorov-Smirnov
    distance in extras.
    """
    if plan.kind != "pdf_histogram":
        raise ConfigError(f"plan kind is {plan.kind!r}, expected pdf_histogram")
    m_cfg = NetSimConfig(m=plan.m, n=plan.n, alpha=plan.alpha, beta=plan.beta,
                         seed=0, record_tree=False)
    inf_cfg = InfSimConfig(n=plan.n, alpha=plan.alpha, beta=plan.beta, seed=0)
    est_m, est_inf = run_replication_sets(
        [("matrix", m_cfg, plan.replications, mix64(plan.base_seed, 0)),
         ("infinite", inf_cfg, plan.replications, mix64(plan.base_seed, 1))], jobs)

    pooled = np.asarray(est_m.values + est_inf.values)
    edges = np.histogram_bin_edges(pooled, bins=plan.bins)
    dens_m, _ = np.histogram(est_m.values, bins=edges, density=True)
    dens_inf, _ = np.histogram(est_inf.values, bins=edges, density=True)
    rows = tuple(
        (float(edges[i]), float(edges[i + 1]), float(dens_m[i]), float(dens_inf[i]))
        for i in range(len(edges) - 1)
    )
    return ExperimentResult(
        kind=plan.kind, columns=HISTOGRAM_COLUMNS, rows=rows,
        extras={
            "ks_distance": two_sample_ks(est_m.values, est_inf.values),
            "mean_Am": est_m.mean,
            "mean_Ainf": est_inf.mean,
            "mean_shift": est_inf.mean - est_m.mean,
        },
    )


def single_experiment(plan: ExperimentPlan, jobs: int = 1) -> ExperimentResult:
    """Replications of one engine at fixed parameters, one row each."""
    if plan.kind != "single":
        raise ConfigError(f"plan kind is {plan.kind!r}, expected single")
    if plan.engine == "infinite":
        cfg = InfSimConfig(n=plan.n, alpha=plan.alpha, beta=plan.beta, seed=0)
    else:
        cfg = NetSimConfig(m=plan.m, n=plan.n, alpha=plan.alpha, beta=plan.beta,
                           seed=0, record_tree=False)
    [est] = run_replication_sets(
        [(plan.engine, cfg, plan.replications, mix64(plan.base_seed, 0))], jobs)
    rows = tuple((r, v) for r, v in enumerate(est.values))
    return ExperimentResult(kind=plan.kind, columns=SINGLE_COLUMNS, rows=rows,
                            extras={"estimate": est})


def run_experiment(plan: ExperimentPlan, jobs: int = 1) -> ExperimentResult:
    """Dispatch a plan to its driver."""
    driver = {
        "convergence": convergence_experiment,
        "efficiency": efficiency_experiment,
        "pdf_histogram": pdf_histogram_experiment,
        "single": single_experiment,
    }[plan.kind]
    return driver(plan, jobs=jobs)


def two_sample_ks(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance between outcome batches.

    The statistic of scipy.stats.ks_2samp, computed the same way without
    importing scipy.stats: the largest gap between the two empirical CDFs
    at the pooled sample points, which in ks_2samp's exact mode (both
    batches at most 10,000 values) is rounded to a multiple of
    1/lcm(n1, n2).
    """
    a, b = np.sort(a), np.sort(b)
    n1, n2 = len(a), len(b)
    x = np.concatenate((a, b))
    diff = np.searchsorted(a, x, "right") / n1 - np.searchsorted(b, x, "right") / n2
    below, above = np.clip(-diff.min(), 0, 1), diff.max()
    d = below if below > above else above
    if max(n1, n2) <= 10_000:
        lcm = n1 // math.gcd(n1, n2) * n2
        d = round(d * lcm) / lcm
    return float(d)
