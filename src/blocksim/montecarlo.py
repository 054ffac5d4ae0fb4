"""Replication harness and the experiments built on it.

run_replication_sets runs a batch of replication sets, each a named
engine run R times on independent substreams, and aggregates each set's
proportion estimates; run_replications is its one-set form.  Each task,
serial or in a pool worker, is a chunk of one set's replications.

EXPERIMENTS is the table of experiment kinds: convergence of the bounded
engine toward the unbounded one as the worker count grows, efficiency
as a function of the delay/production mean ratio, paired outcome
histograms of the two engines, and replications of one engine.
run_experiment runs any kind's sets with one run_replication_sets call.

Seeding is two-level: replication r of a set that was handed
``base_seed`` runs on the streams of seed mix64(base_seed, r), and set i
of an experiment is handed mix64(seed, i) from the experiment's seed.
Everything downstream is deterministic given the experiment's fields.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .distributions import with_mean
from .errors import ConfigError, RunError, check_count
from .infinite import simulate_infinite
from .matrix import simulate_matrix
from .network import NetSimConfig, simulate_network
from .rng import StreamBundle, mix64

ENGINES = {
    "network": simulate_network,
    "matrix": simulate_matrix,
    "infinite": simulate_infinite,
}


@dataclass(frozen=True)
class McEstimate:
    """Aggregate of one Monte Carlo batch of proportion estimates."""

    mean: float
    std_error: float
    quantiles: dict
    replications: int
    values: tuple[float, ...]


@dataclass(frozen=True)
class ExperimentResult:
    """A finished experiment: a table plus side artifacts.

    rows hold plain scalars in column order; extras carries values that
    do not fit the table (KS distances, warnings); note is the line the
    CLI prints for them, or "".
    """

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    extras: dict
    note: str


def _run_chunk(engine: str, config, base_seed: int, index: int,
               first: int, stop: int) -> list[float]:
    """The proportions of replications first..stop-1 of set ``index``, in order.

    Replication r runs ENGINES[engine] on config and the streams of seed
    mix64(base_seed, r).  A failure raises a RuntimeError (a RunError when
    it ran out of memory) naming the set and the replication.
    """
    run = ENGINES[engine]
    values = []
    for r in range(first, stop):
        try:
            values.append(run(config, StreamBundle.for_run(mix64(base_seed, r))).proportion)
        except Exception as exc:
            error = RunError if isinstance(exc, MemoryError) else RuntimeError
            raise error(f"set {index}, replication {r} failed: {exc}") from exc
    return values


# Replications per chunk, the task handed to a pool worker.  Run costs
# vary widely within one experiment (they rise with the delay ratio), so
# small chunks keep both workers busy until the end.  With at most POOL_WINDOW
# chunks per worker in flight, the parent holds futures for the pool, not the batch.
POOL_CHUNK, POOL_WINDOW = 10, 4

# Imported by the first run at jobs > 1, so no other command pays for it.
ProcessPoolExecutor = None


def run_replication_sets(sets, jobs: int = 1) -> list[McEstimate]:
    """Run several replication sets and aggregate each one.

    sets is a sequence of (engine, config, replications, base_seed);
    each yields one McEstimate, in order.  Each set is cut into chunks of
    at most POOL_CHUNK consecutive replications, each one _run_chunk call.
    With jobs > 1 the chunks of the whole batch are spread over one
    process pool of at most ``jobs`` workers, so an experiment starts at
    most one pool, with at most POOL_WINDOW chunks per worker in flight.
    Results are reduced in replication order, so the estimates are
    deterministic regardless of ``jobs``.  A failing replication raises
    as _run_chunk says, whatever ``jobs`` is.
    """
    check_count("job count", jobs)
    counts = [replications for _, _, replications, _ in sets]
    for count in counts:
        check_count("replication count", count)
    chunk = max(1, min(POOL_CHUNK, sum(counts) // (jobs * 4)))
    tasks = [(engine, config, base_seed, i, r, min(r + chunk, replications))
             for i, (engine, config, replications, base_seed) in enumerate(sets)
             for r in range(0, replications, chunk)]

    if jobs > 1 and tasks:
        global ProcessPoolExecutor
        if ProcessPoolExecutor is None:
            from concurrent.futures import ProcessPoolExecutor
        # No more workers than chunks to run or CPUs this process may use.
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        workers, window, chunks = min(jobs, len(tasks), cpus), [], []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                for task in tasks:
                    window.append(pool.submit(_run_chunk, *task))
                    if len(window) == POOL_WINDOW * workers:
                        chunks.append(window.pop(0).result())
                chunks += [future.result() for future in window]
            finally:  # after a failure, the chunks not yet started never run
                pool.shutdown(cancel_futures=True)
    else:
        chunks = [_run_chunk(*task) for task in tasks]

    values = list(itertools.chain.from_iterable(chunks))
    return [_estimate(values[end - count:end])
            for count, end in zip(counts, itertools.accumulate(counts))]


def run_replications(engine, config, replications: int, base_seed: int,
                     jobs: int = 1) -> McEstimate:
    """Run ``engine`` R times and aggregate the proportion estimates.

    engine is a name from ENGINES.  Replication r runs on the streams of
    seed mix64(base_seed, r); config.seed is not read.  The one-set call of
    run_replication_sets.
    """
    return run_replication_sets([(engine, config, replications, base_seed)], jobs)[0]


def _estimate(values: list[float]) -> McEstimate:
    """Mean, standard error and quartiles of one set's proportions.

    The quartiles are np.quantile's bits by its default linear rule
    (Hyndman & Fan type 7), blended from the nearer neighbour as its _lerp
    does; np.quantile itself would import numpy.ma.
    """
    arr = np.asarray(values)
    ordered = sorted(values)
    last = len(ordered) - 1
    quartiles = {}
    for q in (0.25, 0.5, 0.75):
        at = last * q
        lo = int(at)
        a, b = ordered[lo], ordered[min(lo + 1, last)]
        t = at - lo
        quartiles[q] = float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return McEstimate(
        mean=float(arr.mean()),
        std_error=float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0,
        quantiles=quartiles,
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


def default_ratio_grid() -> tuple[float, ...]:
    """Log grid over mean ratios 1e-3..1e2, 11 points per decade.

    Endpoint inclusive, so 51 points across the five decades.
    """
    return tuple(float(r) for r in np.logspace(-3.0, 2.0, 51))


def _convergence(alpha, beta, n, sweep, **_):
    """The matrix engine per worker count in sweep, then the unbounded
    engine as the final row (m column "inf")."""
    for m in sweep:
        if not (math.isfinite(m) and m == int(m)):
            raise ConfigError("convergence sweep: worker counts must be finite integers, "
                              f"got {m!r}")
        check_count("worker count m", int(m) if m < 2**53 else m)  # no ".0", no 301 digits
    workers = [int(m) for m in sweep]
    config = NetSimConfig(n=n, alpha=alpha, beta=beta, seed=0, record_tree=False)
    sets = [("matrix", replace(config, m=m)) for m in workers] + [("infinite", config)]

    def finish(estimates):
        rows = [(m, est.mean, est.quantiles[0.25], est.quantiles[0.75], est.replications)
                for m, est in zip(workers + ["inf"], estimates)]
        return rows, {}, ""

    return sets, finish


def _efficiency(alpha, beta, n, sweep, **_):
    """The unbounded engine per ratio r in sweep, its delay rescaled to
    mean r * alpha_mean; rows pair each measurement with predicted_p."""
    betas = []
    for ratio in sweep:
        try:
            betas.append(with_mean(beta, float(ratio) * alpha.mean))
        except ConfigError as exc:
            raise ConfigError(f"efficiency sweep ratio {ratio:g}: {exc}") from None
    sets = [("infinite", NetSimConfig(n=n, alpha=alpha, beta=b, seed=0)) for b in betas]

    def finish(estimates):
        rows, warned = [], []
        for ratio, b, est in zip(sweep, betas, estimates):
            pred = predicted_p(alpha.mean, b.mean)
            if prediction_warning(alpha.mean, b.mean):
                warned.append(float(ratio))
            rows.append((float(ratio), alpha.mean, b.mean, est.mean,
                         est.std_error, pred, abs(est.mean - pred)))
        note = (f"note: prediction is unreliable at ratios > 1 (sweep hit: "
                f"{', '.join(f'{r:g}' for r in warned)})" if warned else "")
        return rows, {"chaotic_ratios": warned}, note

    return sets, finish


def _pdf_histogram(alpha, beta, n, m, bins, **_):
    """The matrix engine with m workers and the unbounded engine, binned on
    shared edges, with their two-sample Kolmogorov-Smirnov distance."""
    config = NetSimConfig(m=m, n=n, alpha=alpha, beta=beta, seed=0, record_tree=False)
    sets = [("matrix", config), ("infinite", config)]

    def finish(estimates):
        est_m, est_inf = estimates
        edges = np.histogram_bin_edges(np.asarray(est_m.values + est_inf.values),
                                       bins=bins)
        dens_m, _ = np.histogram(est_m.values, bins=edges, density=True)
        dens_inf, _ = np.histogram(est_inf.values, bins=edges, density=True)
        rows = [(float(edges[i]), float(edges[i + 1]), float(dens_m[i]), float(dens_inf[i]))
                for i in range(len(edges) - 1)]
        extras = {"ks_distance": two_sample_ks(est_m.values, est_inf.values),
                  "mean_Am": est_m.mean, "mean_Ainf": est_inf.mean,
                  "mean_shift": est_inf.mean - est_m.mean}
        note = ("ks_distance={ks_distance:.4f} mean_Am={mean_Am:.5f} "
                "mean_Ainf={mean_Ainf:.5f} shift={mean_shift:+.5f}".format(**extras))
        return rows, extras, note

    return sets, finish


def _single(alpha, beta, n, m, engine, **_):
    """engine at fixed parameters, one row per replication."""
    sets = [(engine, NetSimConfig(m=m, n=n, alpha=alpha, beta=beta, seed=0,
                                  record_tree=False))]
    return sets, lambda estimates: (list(enumerate(estimates[0].values)), {}, "")


class Experiment(NamedTuple):
    """One experiment kind.

    columns name its table's columns, stable and recorded in manifests.
    driver takes the experiment's fields as keywords, names the ones it
    reads and ignores the rest; it checks them, then returns the
    (engine, config) sets the kind runs and a function that turns their
    estimates into the rows, the extras and the note printed on stdout
    ("" for none).  reps and sweep are the kind's defaults; a kind with a
    default sweep needs one.
    """

    columns: tuple[str, ...]
    driver: Callable
    reps: int = 100
    sweep: tuple = ()


EXPERIMENTS = {
    "convergence": Experiment(("m", "mean_p", "q25", "q75", "replications"), _convergence,
                              sweep=(1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)),
    "efficiency": Experiment(("ratio", "alpha_mean", "beta_mean", "mean_p", "std_err",
                              "predicted_p", "abs_error"), _efficiency,
                             sweep=default_ratio_grid()),
    "pdf_histogram": Experiment(("bin_left", "bin_right", "density_Am", "density_Ainf"),
                                _pdf_histogram, reps=1000),
    "single": Experiment(("replication", "p_n"), _single),
}


def run_experiment(kind: str, reps: int, seed: int, jobs: int = 1,
                   **fields) -> ExperimentResult:
    """Run one experiment kind: every set in one run_replication_sets call.

    fields are the keywords the kind's driver reads (alpha, beta, n and
    some of sweep, m, bins, engine); others are ignored.  Set i runs reps
    times from base seed mix64(seed, i).
    """
    experiment = EXPERIMENTS[kind]
    if experiment.sweep and not fields.get("sweep"):
        raise ConfigError(f"{kind} experiment needs a non-empty sweep")
    sets, finish = experiment.driver(**fields)
    estimates = run_replication_sets(
        [(engine, config, reps, mix64(seed, i)) for i, (engine, config) in enumerate(sets)],
        jobs)
    rows, extras, note = finish(estimates)
    return ExperimentResult(experiment.columns, tuple(rows), extras, note)


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
