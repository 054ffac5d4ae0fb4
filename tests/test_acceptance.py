"""Acceptance gate: one test per shipped guarantee.

Each test here states a user-facing promise of the package and checks it
end to end at the sizes and tolerances we commit to: exact agreement
between the event-driven and delay-matrix engines, exactness of the
pruned scan, statistical reproduction of the closed-form efficiency
prediction and of the bounded-to-unbounded convergence, the analytic
mixture-CDF bound, trivial-regime exactness, a hand-traced instance,
runtime scaling of the pruned unbounded engine, and byte-exact replay
from manifests.

Figures that are measured but deliberately not asserted (the closed-form
prediction under high-variance delay, the chaotic-regime shift of the
unbounded approximation) are emitted as warnings so they show up in the
run summary without gating it.
"""

import json
import statistics
import time
import warnings

import pytest
from click.testing import CliRunner

from blocksim.cli import main as cli_main
from blocksim.distributions import constant, exponential
from blocksim.infinite import simulate_infinite
from blocksim.matrix import simulate_matrix
from blocksim.montecarlo import run_replications, two_sample_ks
from blocksim.network import NetSimConfig, simulate_network
from blocksim.rng import StreamBundle
from blocksim.validate import (check_equivalence, check_mixture_bound,
                               check_pruning)
from helpers import ScriptedStream


def test_criterion_01_engine_equivalence_exact():
    """Event-driven and delay-matrix engines agree exactly on p_n.

    100 randomized configs (2..20 workers, 10..500 blocks, exponential
    production, delay kind in {exponential, gamma, constant}) plus
    tie-rich constant/constant configs, shared streams, zero tolerance,
    under a minute.
    """
    started = time.perf_counter()
    result = check_equivalence(base_seed=0, configs=100)
    elapsed = time.perf_counter() - started
    assert result.passed, result.detail
    assert elapsed < 60.0, f"equivalence suite took {elapsed:.1f}s"


def test_criterion_02_pruned_scan_exact():
    """Pruned visibility scan equals the naive scan on every step.

    50 randomized runs up to n=2000 spanning delay/production ratios
    0.01, 1, and 10, of both scanning engines, each checked over the
    pairs its scan tested.  Zero tolerance.
    """
    result = check_pruning(base_seed=0, runs=50, max_n=2000)
    assert result.passed, result.detail


def test_criterion_03_efficiency_prediction():
    """mean(A_inf) matches alpha_mean/(alpha_mean+beta_mean) within 0.02.

    Checked at ratios 0.01, 0.1, 0.5, 1 with n=2000 and 200 replications
    per point.  The prediction's renewal argument treats the delay as a
    fixed synchronization pause, so the tolerance is asserted with
    constant delay at all four ratios; with exponential delay the fresh
    per-pair draws lift the simulated proportion above the prediction as
    the ratio grows, so exponential is asserted only at 0.01 and 0.1 and
    the deviation at 0.5 and 1 is reported, not asserted.
    """
    ratios = (0.01, 0.1, 0.5, 1.0)

    def mean_error(beta, ratio, base_seed):
        cfg = NetSimConfig(n=2000, alpha=exponential(1.0), beta=beta, seed=0)
        est = run_replications("infinite", cfg, 200, base_seed=base_seed)
        return abs(est.mean - 1.0 / (1.0 + ratio)), est.std_error

    for idx, r in enumerate(ratios):
        err, se = mean_error(constant(r), r, 3100 + idx)
        assert err <= 0.02, f"constant delay, ratio {r}: error {err:.4f} (se {se:.4f})"

    reported = []
    for idx, r in enumerate(ratios):
        err, se = mean_error(exponential(r), r, 3200 + idx)
        if r <= 0.1:
            assert err <= 0.02, f"exponential delay, ratio {r}: error {err:.4f}"
        else:
            reported.append((r, err, se))
    detail = ", ".join(f"ratio {r:g}: +{err:.3f} (se {se:.4f})"
                       for r, err, se in reported)
    warnings.warn("exponential delay overshoots the closed-form prediction: "
                  + detail)
    assert all(err > 0.02 for _, err, _ in reported), \
        "overshoot shrank below tolerance; tighten the assertion"


def test_criterion_04_convergence_in_worker_count():
    """mean(A_m) approaches mean(A_inf) as the worker count grows.

    Production exponential mean 1, delay exponential mean 0.1, n=1000,
    100 replications per point.  The gap at m=1000 is below 0.01 and the
    gaps at m in {10, 100, 1000} are non-increasing up to one combined
    standard error of slack.
    """
    n, reps = 1000, 100
    alpha, beta = exponential(1.0), exponential(0.1)
    inf_est = run_replications(
        "infinite", NetSimConfig(n=n, alpha=alpha, beta=beta, seed=0),
        reps, base_seed=4200)

    gaps, ses = [], []
    for idx, m in enumerate((10, 100, 1000)):
        cfg = NetSimConfig(m=m, n=n, alpha=alpha, beta=beta, seed=0,
                           record_tree=False)
        est = run_replications("matrix", cfg, reps, base_seed=4100 + idx)
        gaps.append(abs(est.mean - inf_est.mean))
        ses.append(est.std_error)

    assert gaps[2] < 0.01, f"gap at m=1000 is {gaps[2]:.5f}"
    for i in (0, 1):
        slack = (ses[i] ** 2 + ses[i + 1] ** 2) ** 0.5
        assert gaps[i + 1] <= gaps[i] + slack, \
            f"gaps not non-increasing: {gaps} (slack {slack:.5f})"


def test_criterion_05_outcome_distributions_close():
    """A_100 and A_inf outcome distributions are close; chaotic shift reported.

    1000 outcomes each of the delay-matrix engine at m=100 and the
    unbounded engine (production exponential mean 1, delay exponential
    mean 0.1, n=1000) must have Kolmogorov-Smirnov distance below 0.1.
    The mean shift between the two in the chaotic regime (delay mean 10,
    m=1000) is approximation error by construction and is reported, not
    asserted.
    """
    n = 1000
    alpha, beta = exponential(1.0), exponential(0.1)
    est_m = run_replications(
        "matrix",
        NetSimConfig(m=100, n=n, alpha=alpha, beta=beta, seed=0,
                     record_tree=False),
        1000, base_seed=5100)
    est_inf = run_replications(
        "infinite", NetSimConfig(n=n, alpha=alpha, beta=beta, seed=0),
        1000, base_seed=5200)
    ks = two_sample_ks(est_m.values, est_inf.values)
    assert ks < 0.1, f"KS distance {ks:.4f}"

    chaotic = exponential(10.0)
    cha_m = run_replications(
        "matrix",
        NetSimConfig(m=1000, n=n, alpha=alpha, beta=chaotic, seed=0,
                     record_tree=False),
        100, base_seed=5300)
    cha_inf = run_replications(
        "infinite", NetSimConfig(n=n, alpha=alpha, beta=chaotic, seed=0),
        100, base_seed=5400)
    shift = cha_inf.mean - cha_m.mean
    warnings.warn(f"chaotic-regime shift of the unbounded approximation: "
                  f"mean(A_inf) - mean(A_1000) = {shift:+.5f} "
                  f"(A_1000 {cha_m.mean:.5f}, A_inf {cha_inf.mean:.5f})")


def test_criterion_06_mixture_cdf_bound():
    """sup |mixture_cdf - delay cdf| <= 2/m for every kind, analytically.

    Evaluated on 10^4-point grids for exponential, gamma, chi-squared,
    and constant delays at m in {1, 2, 10, 100}.  Zero tolerance.
    """
    result = check_mixture_bound(grid_points=10**4)
    assert result.passed, result.detail


def test_criterion_07_trivial_regimes_exact():
    """One worker, or zero delay, gives a pure chain: p_n = 1 exactly.

    Checked for every engine and several seeds; the unbounded engine has
    no worker count, so the m=1 case applies to the bounded engines.
    """
    alpha = exponential(1.0)
    for seed in (0, 1, 2026):
        for engine in (simulate_network, simulate_matrix):
            single = NetSimConfig(m=1, n=300, alpha=alpha,
                                  beta=exponential(0.5), seed=seed,
                                  record_tree=False)
            assert engine(single).proportion == 1.0
            nodelay = NetSimConfig(m=7, n=300, alpha=alpha,
                                   beta=constant(0.0), seed=seed,
                                   record_tree=False)
            assert engine(nodelay).proportion == 1.0
        inf_cfg = NetSimConfig(n=300, alpha=alpha, beta=constant(0.0), seed=seed)
        assert simulate_infinite(inf_cfg).proportion == 1.0


def test_criterion_08_hand_traced_instance():
    """The worked two-worker example returns p = 3/5 on both bounded engines.

    Two workers, constant production time 1, constant delay 1.5,
    producers alternating 0,1,0,1: each worker only learns of the
    other's blocks one step late, so of 5 blocks (origin included) the
    longest branch keeps 3.
    """
    def bundle():
        return StreamBundle(production=ScriptedStream([0.5] * 4),
                            producer=ScriptedStream([0.0, 0.5, 0.0, 0.5]),
                            delay=ScriptedStream([0.5] * 4))

    config = NetSimConfig(m=2, n=5, alpha=constant(1.0), beta=constant(1.5),
                          seed=0)
    assert simulate_network(config, bundle()).proportion == pytest.approx(3 / 5)
    assert simulate_matrix(config, bundle()).proportion == pytest.approx(3 / 5)


def test_criterion_09_pruned_engine_scaling():
    """The pruned unbounded engine runs n=10^6 in single-digit seconds.

    At delay/production ratio 0.1 the pruned scan window stays O(1) per
    block, so doubling n to 2*10^6 costs at most 2.5x the n=10^6 time.
    Three pairs of runs, n=10^6 then n=2*10^6 on the same seed, each
    timed by the process's own CPU time, so that load from other
    processes cannot move the ratio; the median of the pairs' ratios is
    held to the bound, as the two runs of a pair see the same machine.
    An untimed n=2*10^6 run goes first: a process's first run of a size
    is faster than later ones, whose heap earlier runs have used and
    freed, and no timed run should be one.
    """
    alpha, beta = exponential(1.0), exponential(0.1)

    def timed(n, seed):
        started = time.process_time()
        out = simulate_infinite(NetSimConfig(n=n, alpha=alpha, beta=beta, seed=seed))
        assert 0.0 < out.proportion <= 1.0
        return time.process_time() - started

    timed(2 * 10**6, 9)
    pairs = [(timed(10**6, seed), timed(2 * 10**6, seed)) for seed in (0, 1, 2)]
    t1 = min(t for t, _ in pairs)
    ratio = statistics.median(big / small for small, big in pairs)
    assert t1 < 10.0, f"n=10^6 took {t1:.2f}s"
    assert ratio <= 2.5, f"n=2*10^6 took {ratio:.2f}x the n=10^6 time: {pairs}"


def test_criterion_10_manifest_replay_byte_identical(tmp_path):
    """Replaying any recorded run reproduces its outputs byte for byte.

    Exercised for both file-writing commands: a network simulation with
    tree and series outputs, and a single-kind experiment table.  The
    replay command must exit 0 with every digest matching, and the
    re-created files must equal the originals.
    """
    runner = CliRunner()

    sim = runner.invoke(cli_main, [
        "simulate", "--engine", "network", "--alpha", "exp:1",
        "--beta", "exp:0.1", "--m", "5", "--n", "200", "--seed", "7",
        "--out", str(tmp_path / "outcome.json"),
        "--tree-out", str(tmp_path / "tree.json"), "--tree-format", "json",
        "--series-out", str(tmp_path / "series.json")])
    assert sim.exit_code == 0, sim.output
    replay = runner.invoke(cli_main, [
        "replay", str(tmp_path / "outcome.json.manifest.json"),
        "--out-dir", str(tmp_path / "sim-replay")])
    assert replay.exit_code == 0, replay.output
    assert "MISMATCH" not in replay.output
    for name in ("outcome.json", "tree.json", "series.json"):
        assert (tmp_path / "sim-replay" / name).read_bytes() == \
            (tmp_path / name).read_bytes()

    exp = runner.invoke(cli_main, [
        "experiment", "--kind", "single", "--alpha", "exp:1",
        "--beta", "exp:0.1", "--n", "100", "--reps", "5", "--seed", "7",
        "--out", str(tmp_path / "table.csv")])
    assert exp.exit_code == 0, exp.output
    replay = runner.invoke(cli_main, [
        "replay", str(tmp_path / "table.csv.manifest.json"),
        "--out-dir", str(tmp_path / "exp-replay")])
    assert replay.exit_code == 0, replay.output
    assert (tmp_path / "exp-replay" / "table.csv").read_bytes() == \
        (tmp_path / "table.csv").read_bytes()

    doc = json.loads((tmp_path / "outcome.json").read_text())
    assert doc["seed"] == 7
