from concurrent.futures import ProcessPoolExecutor
import inspect
import multiprocessing
import os
from pathlib import Path
import subprocess
import sys
import warnings

import numpy as np
import pytest

from blocksim import cli, montecarlo
from blocksim.distributions import constant, exponential
from blocksim.errors import ConfigError
from blocksim.montecarlo import (EXPERIMENTS, default_ratio_grid, predicted_p,
                                 prediction_warning, run_experiment, run_replication_sets,
                                 run_replications, two_sample_ks)
from blocksim.network import NetSimConfig
from blocksim.rng import StreamBundle, mix64


def inf_config(**overrides):
    params = dict(n=150, alpha=exponential(1.0), beta=exponential(0.1), seed=0)
    params.update(overrides)
    return NetSimConfig(**params)


def net_config(**overrides):
    params = dict(m=4, n=120, alpha=exponential(1.0), beta=exponential(0.1),
                  seed=0, record_tree=False)
    params.update(overrides)
    return NetSimConfig(**params)


class TestRunReplications:
    def test_single_replication_quantiles_collapse(self):
        est = run_replications("infinite", inf_config(), 1, base_seed=5)
        assert est.replications == 1
        assert est.std_error == 0.0
        assert est.quantiles[0.25] == est.quantiles[0.5] == est.quantiles[0.75]
        assert est.quantiles[0.5] == est.values[0] == est.mean

    def test_degenerate_outcome_has_zero_spread(self):
        est = run_replications("infinite",
                              inf_config(beta=constant(0.0), n=40),
                              8, base_seed=1)
        assert est.mean == 1.0
        assert est.std_error == 0.0
        assert est.values == (1.0,) * 8

    def test_quantiles_ordered(self):
        est = run_replications("matrix", net_config(), 30, base_seed=2)
        assert est.quantiles[0.25] <= est.quantiles[0.5] <= est.quantiles[0.75]
        assert min(est.values) <= est.mean <= max(est.values)

    def test_replications_use_distinct_seeds(self):
        est = run_replications("infinite", inf_config(), 20, base_seed=3)
        assert len(set(est.values)) > 1

    def test_jobs_do_not_change_values(self):
        serial = run_replications("matrix", net_config(), 12, base_seed=6)
        parallel = run_replications("matrix", net_config(), 12, base_seed=6,
                                    jobs=2)
        assert serial.values == parallel.values

    def test_failure_reports_replication_index(self, monkeypatch):
        def broken(config, streams=None):
            raise ValueError("boom")

        monkeypatch.setitem(montecarlo.ENGINES, "infinite", broken)
        with pytest.raises(RuntimeError, match="replication 0") as info:
            run_replications("infinite", inf_config(), 3, base_seed=0)
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ConfigError):
            run_replications("infinite", inf_config(), 2, base_seed=0, jobs=jobs)

    def test_zero_replications_rejected(self):
        with pytest.raises(ConfigError):
            run_replications("infinite", inf_config(), 0, base_seed=0)


class TestReplicationSets:
    def test_sets_match_separate_calls(self):
        sets = [("infinite", inf_config(), 4, 11), ("matrix", net_config(), 3, 12),
                ("infinite", inf_config(n=90), 1, 13)]
        batch = run_replication_sets(sets)
        assert batch == [run_replications(*s) for s in sets]

    def test_pooled_batch_matches_serial(self):
        # 11 chunks of 1, more than the 8 a two-worker pool has in flight.
        sets = [("infinite", inf_config(), 5, 21), ("matrix", net_config(), 6, 22)]
        assert run_replication_sets(sets, jobs=2) == run_replication_sets(sets)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_empty_batch_starts_no_pool(self, pools, jobs):
        # No task, no pool: the result does not depend on jobs.
        assert run_replication_sets([], jobs=jobs) == []
        assert pools == []

    def test_chunks_stay_inside_their_set(self, recording_pool, monkeypatch):
        # 20 replications at 2 jobs run in chunks of 2, so a set of 7 or 13
        # ends part way through a chunk of the batch.
        sets = [("infinite", inf_config(n=40), 7, 41), ("matrix", net_config(n=40), 13, 42)]
        serial = run_replication_sets(sets)
        real, chunks = montecarlo._run_chunk, []

        def recording(engine, config, base_seed, index, first, stop):
            chunks.append((index, first, stop))
            return real(engine, config, base_seed, index, first, stop)

        monkeypatch.setattr(montecarlo, "_run_chunk", recording)
        assert run_replication_sets(sets, jobs=2) == serial
        assert recording_pool == [2]
        for i, (engine, config, reps, base_seed) in enumerate(sets):
            mine = [(first, stop) for index, first, stop in chunks if index == i]
            assert [r for first, stop in mine for r in range(first, stop)] == list(range(reps))
            assert all(stop - first <= 2 for first, stop in mine)
            assert serial[i].values == tuple(
                montecarlo.ENGINES[engine](config, StreamBundle.for_run(mix64(base_seed, r)))
                .proportion for r in range(reps))

    def test_chunks_in_flight_stay_within_the_window(self, recording_pool):
        # 200 replications at 2 jobs run as 20 chunks of 10: more than the
        # window of 8, so it fills, slides and drains.
        sets = [("infinite", inf_config(n=20), 100, 51), ("infinite", inf_config(n=20), 100, 52)]
        assert run_replication_sets(sets, jobs=2) == run_replication_sets(sets)
        assert recording_pool == [2]
        assert recording_pool.most_in_flight == montecarlo.POOL_WINDOW * 2
        assert recording_pool.in_flight == 0

    def test_failure_cancels_the_chunks_not_yet_started(self, recording_pool, monkeypatch):
        # The first chunk fails when it is read, with the window full: the
        # other seven are cancelled unread, so one replication runs in all.
        runs = []

        def engine(config, streams=None):
            runs.append(streams.seed_echo())
            raise ValueError("boom")

        monkeypatch.setitem(montecarlo.ENGINES, "infinite", engine)
        with pytest.raises(RuntimeError, match=r"^set 0, replication 0 failed: boom$"):
            run_replication_sets([("infinite", inf_config(), 200, 61)], jobs=2)
        assert runs == [StreamBundle.for_run(mix64(61, 0)).seed_echo()]
        assert recording_pool.most_in_flight == montecarlo.POOL_WINDOW * 2
        assert recording_pool.in_flight == 0

    def test_any_empty_set_rejected(self):
        with pytest.raises(ConfigError):
            run_replication_sets([("infinite", inf_config(), 2, 0),
                                  ("infinite", inf_config(), 0, 1)])

    def test_set_past_count_bound_rejected_before_any_run(self, monkeypatch):
        # The bound of every count: no task list of billions is built.
        monkeypatch.setitem(montecarlo.ENGINES, "infinite", None)
        with pytest.raises(ConfigError, match="replication count must be <= 2147483647"):
            run_replication_sets([("infinite", inf_config(), 2, 0),
                                  ("infinite", inf_config(), 2**31, 1)])


class TestQuartiles:
    def test_match_numpy_quantile_bit_for_bit(self):
        # Random, tied (proportions k/n) and constant sets of every size to 300.
        rng = np.random.default_rng(17)
        for n in range(1, 301):
            for values in (rng.random(n), rng.integers(1, n + 1, n) / n,
                           np.full(n, rng.random())):
                quartiles = montecarlo._estimate(values.tolist()).quantiles
                got = np.array([quartiles[q] for q in (0.25, 0.5, 0.75)])
                want = np.quantile(values, (0.25, 0.5, 0.75))
                assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), n

    def test_experiment_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.quantile would import numpy.ma, 2 MB and 17 ms on every experiment.
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        script = (
            "import sys\n"
            "from blocksim.cli import main\n"
            "main(['experiment', '--kind', 'efficiency', '--alpha', 'exp:1', '--beta', 'exp:1',\n"
            "      '--n', '30', '--sweep', '0.1,1', '--reps', '6', '--jobs', '2',\n"
            "      '--out', sys.argv[1]], standalone_mode=False)\n"
            "print('numpy' in sys.modules, 'numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "t.csv")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "True False"


class TestFailingReplication:
    """One failing replication raises a RuntimeError naming its set and
    replication, with the engine's message, at every job count."""

    SETS = [("matrix", net_config(n=40), 3, 31), ("matrix", net_config(n=40), 3, 32)]
    MESSAGE = r"^set 1, replication 2 failed: boom$"

    @pytest.fixture(autouse=True)
    def broken(self, monkeypatch):
        """The matrix engine fails on the streams of set 1's replication 2 only."""
        real = montecarlo.ENGINES["matrix"]
        bad = StreamBundle.for_run(mix64(32, 2)).seed_echo()

        def engine(config, streams=None):
            if streams.seed_echo() == bad:
                raise ValueError("boom")
            return real(config, streams)

        monkeypatch.setitem(montecarlo.ENGINES, "matrix", engine)

    def test_serial(self):
        with pytest.raises(RuntimeError, match=self.MESSAGE) as info:
            run_replication_sets(self.SETS)
        assert isinstance(info.value.__cause__, ValueError)

    def test_recording_pool(self, recording_pool):
        with pytest.raises(RuntimeError, match=self.MESSAGE) as info:
            run_replication_sets(self.SETS, jobs=2)
        assert recording_pool == [2]
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="workers see the patched engine only when forked")
    def test_two_worker_pool(self, monkeypatch, cpus):
        sizes = []

        def forking_pool(max_workers):
            sizes.append(max_workers)
            return ProcessPoolExecutor(max_workers, mp_context=multiprocessing.get_context("fork"))

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", forking_pool)
        with pytest.raises(RuntimeError, match=self.MESSAGE):
            run_replication_sets(self.SETS, jobs=2)
        assert sizes == [2]


class TestPoolSize:
    @pytest.mark.parametrize("jobs, reps, cpu_count, workers", [
        (6, 2, 8, 2),     # as many as the chunks to run
        (6, 200, 3, 3),   # as many as the CPUs
        (2, 200, 8, 2),   # as many as asked for
    ])
    def test_workers_capped(self, recording_pool, cpus, jobs, reps, cpu_count, workers):
        cpus(cpu_count)
        pooled = run_replications("infinite", inf_config(n=20), reps, base_seed=2,
                                  jobs=jobs)
        assert recording_pool == [workers]
        assert pooled == run_replications("infinite", inf_config(n=20), reps, base_seed=2)

    def test_small_experiment_at_six_jobs(self, recording_pool):
        fields = small_experiments()["single"]
        assert run_experiment(**fields, jobs=6) == run_experiment(**fields, jobs=1)
        assert recording_pool == [fields["reps"]]


@pytest.fixture
def pools(monkeypatch, cpus):
    """Every process pool montecarlo starts, in order."""
    started = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
    return started


def small_experiments():
    """Each kind with only the fields its driver reads."""
    common = dict(alpha=exponential(1.0), beta=exponential(0.5), n=60, seed=3, reps=4)
    return {
        "convergence": dict(kind="convergence", sweep=(2, 3, 5), **common),
        "efficiency": dict(kind="efficiency", sweep=(0.1, 1.0, 10.0), **common),
        "pdf_histogram": dict(kind="pdf_histogram", m=4, bins=5, **common),
        "single": dict(kind="single", engine="matrix", m=4, **common),
    }


class TestOnePoolPerExperiment:
    @pytest.mark.parametrize("kind", ["convergence", "efficiency"])
    def test_one_pool_at_two_jobs(self, pools, kind):
        run_experiment(**small_experiments()[kind], jobs=2)
        assert pools == [2]

    @pytest.mark.parametrize("kind", ["convergence", "efficiency"])
    def test_no_pool_at_one_job(self, pools, kind):
        run_experiment(**small_experiments()[kind], jobs=1)
        assert pools == []

    @pytest.mark.parametrize("kind", ["convergence", "efficiency", "pdf_histogram",
                                      "single"])
    def test_jobs_do_not_change_results(self, kind):
        fields = small_experiments()[kind]
        serial = run_experiment(**fields, jobs=1)
        pooled = run_experiment(**fields, jobs=2)
        assert pooled.rows == serial.rows
        assert pooled.extras == serial.extras


class TestPrediction:
    def test_values(self):
        assert predicted_p(1.0, 0.0) == 1.0
        assert predicted_p(1.0, 1.0) == 0.5
        assert predicted_p(1.0, 0.1) == pytest.approx(1 / 1.1)
        assert predicted_p(600.0, 12.6) == pytest.approx(0.97943, abs=1e-5)

    def test_scale_invariance(self):
        assert predicted_p(2.0, 0.2) == pytest.approx(predicted_p(1.0, 0.1))

    def test_warning_threshold(self):
        assert not prediction_warning(1.0, 0.5)
        assert not prediction_warning(1.0, 1.0)
        assert prediction_warning(1.0, 1.5)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            predicted_p(0.0, 1.0)
        with pytest.raises(ConfigError):
            predicted_p(1.0, -0.1)


class TestFieldValidation:
    def test_sweep_required(self):
        with pytest.raises(ConfigError):
            run_experiment("convergence", 100, 0, alpha=exponential(1.0),
                           beta=exponential(0.1), n=100, sweep=())


class TestConvergenceSweepValidation:
    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), 2.5, 0, -3])
    def test_non_integer_worker_count_rejected(self, bad):
        # The sweep's own rule is the integer one; the count rule is check_count's.
        message = ("^worker count m must be >= 1, got " if bad in (0, -3)
                   else "^convergence sweep: worker counts must be finite integers, got ")
        with pytest.raises(ConfigError, match=message + f"{bad!r}$"):
            run_experiment("convergence", 2, 0, alpha=exponential(1.0),
                           beta=exponential(0.1), n=40, sweep=(2, bad))

    def test_integral_floats_accepted(self):
        result = run_experiment("convergence", 2, 0, alpha=exponential(1.0),
                                beta=exponential(0.1), n=40, sweep=(2.0, 5.0))
        assert [row[0] for row in result.rows] == [2, 5, "inf"]


class TestDefaultRatioGrid:
    def test_shape_and_endpoints(self):
        grid = default_ratio_grid()
        assert len(grid) == 51
        assert grid[0] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(1e2)
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_eleven_points_per_decade(self):
        grid = default_ratio_grid()
        assert grid[10] == pytest.approx(1e-2)
        assert grid[20] == pytest.approx(1e-1)


class TestConvergenceExperiment:
    def test_table_shape_and_inf_row(self):
        result = run_experiment("convergence", 5, 7, alpha=exponential(1.0),
                                beta=exponential(0.1), n=80, sweep=(2, 5, 10))
        assert result.columns == ("m", "mean_p", "q25", "q75", "replications")
        assert len(result.rows) == 4
        assert [row[0] for row in result.rows] == [2, 5, 10, "inf"]
        for row in result.rows:
            assert row[2] <= row[1] or row[1] <= row[3]
            assert row[4] == 5

    def test_deterministic(self):
        fields = dict(kind="convergence", reps=3, seed=8, alpha=exponential(1.0),
                      beta=exponential(0.1), n=60, sweep=(2, 4))
        assert run_experiment(**fields) == run_experiment(**fields)


class TestEfficiencyExperiment:
    def test_rows_track_prediction(self):
        result = run_experiment("efficiency", 20, 9, alpha=exponential(1.0),
                                beta=constant(1.0), n=400, sweep=(0.01, 0.1))
        assert result.columns == ("ratio", "alpha_mean", "beta_mean", "mean_p", "std_err",
                                  "predicted_p", "abs_error")
        for ratio, a_mean, b_mean, mean_p, std_err, pred, err in result.rows:
            assert a_mean == 1.0
            assert b_mean == pytest.approx(ratio)
            assert pred == pytest.approx(1 / (1 + ratio))
            assert err == pytest.approx(abs(mean_p - pred))
            assert std_err > 0.0
        assert result.extras["chaotic_ratios"] == []

    def test_chaotic_ratios_flagged(self):
        result = run_experiment("efficiency", 2, 10, alpha=exponential(1.0),
                                beta=exponential(1.0), n=60, sweep=(0.5, 2.0, 50.0))
        assert result.extras["chaotic_ratios"] == [2.0, 50.0]


class TestHistogramExperiment:
    def test_bins_and_extras(self):
        result = run_experiment("pdf_histogram", 40, 11, alpha=exponential(1.0),
                                beta=exponential(0.1), n=100, m=10, bins=12)
        assert result.columns == ("bin_left", "bin_right", "density_Am", "density_Ainf")
        assert len(result.rows) == 12
        for left, right, dm, di in result.rows:
            assert left < right
            assert dm >= 0.0 and di >= 0.0
        widths = [right - left for left, right, _, _ in result.rows]
        for dens in (2, 3):
            mass = sum(w * row[dens] for w, row in zip(widths, result.rows))
            assert mass == pytest.approx(1.0)
        assert 0.0 <= result.extras["ks_distance"] <= 1.0
        assert result.extras["mean_shift"] == pytest.approx(
            result.extras["mean_Ainf"] - result.extras["mean_Am"])


class TestSingleExperiment:
    def test_rows_enumerate_values(self):
        result = run_experiment("single", 6, 12, alpha=exponential(1.0),
                                beta=exponential(0.1), n=80, m=None, engine="infinite")
        assert result.columns == ("replication", "p_n")
        assert [row[0] for row in result.rows] == list(range(6))
        assert tuple(row[1] for row in result.rows) == run_replications(
            "infinite", inf_config(n=80), 6, mix64(12, 0)).values

    def test_bounded_engine_requires_m(self):
        result = run_experiment("single", 3, 12, alpha=exponential(1.0),
                                beta=exponential(0.1), n=80, m=6, engine="matrix")
        assert len(result.rows) == 3

    def test_dispatcher_routes_by_kind(self):
        for kind, fields in small_experiments().items():
            result = run_experiment(**fields)
            assert result.columns == EXPERIMENTS[kind].columns
            assert result.rows and all(len(row) == len(result.columns) for row in result.rows)


def test_drivers_read_only_cli_fields():
    """Every field a driver or run_experiment names is one the CLI resolves."""
    named = {kind: experiment.driver for kind, experiment in EXPERIMENTS.items()}
    named["run_experiment"] = run_experiment
    for name, fn in named.items():
        params = [p.name for p in inspect.signature(fn).parameters.values()
                  if p.kind is not p.VAR_KEYWORD]
        assert params and set(params) <= set(cli._FIELDS["experiment"]), name


class TestKs:
    def test_identical_samples(self):
        assert two_sample_ks([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]) == 0.0

    def test_disjoint_samples(self):
        assert two_sample_ks([0.0, 0.1], [0.8, 0.9]) == 1.0

    def test_matches_scipy_statistic(self):
        # Tie-rich samples on coarse grids, and sizes past ks_2samp's
        # exact-mode limit of 10,000 every fiftieth pair.
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(11)
        for i in range(300):
            top = 12_001 if i % 50 == 0 else 400
            n1, n2 = (int(v) for v in rng.integers(1, top, size=2))
            grid = int(rng.integers(1, 40))
            a = np.round(rng.exponential(1.0, n1) * grid) / grid
            b = np.round(rng.exponential(rng.uniform(0.8, 1.2), n2) * grid) / grid
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = float(ks_2samp(a, b).statistic)
            assert two_sample_ks(a.tolist(), b) == want
