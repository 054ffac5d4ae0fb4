import errno
import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from blocksim import __version__, cli, montecarlo, network
from blocksim.blocktree import BlockTree
from blocksim.cli import main
from blocksim.distributions import exponential
from blocksim.errors import InvariantError
from blocksim.manifest import SCHEMA_VERSION, load_manifest

ALPHA = "exp:1"
BETA = "exp:0.1"


@pytest.fixture(autouse=True)
def no_ambient_seed(monkeypatch):
    monkeypatch.delenv("BLOCKSIM_SEED", raising=False)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def no_engine_runs(monkeypatch):
    def engine(config):
        raise AssertionError("an engine ran")
    for name in montecarlo.ENGINES:
        monkeypatch.setitem(montecarlo.ENGINES, name, engine)


def simulate_args(tmp_path, *extra, out="outcome.json"):
    return ["simulate", "--alpha", ALPHA, "--beta", BETA, "--n", "50",
            "--m", "4", "--out", str(tmp_path / out), *extra]


class TestSimulate:
    def test_outcome_schema(self, runner, tmp_path):
        result = runner.invoke(main, simulate_args(tmp_path, "--seed", "3"))
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "outcome.json").read_text())
        assert set(doc) == {"engine", "height", "n", "p_n", "seed"}
        assert doc["engine"] == "matrix"
        assert doc["n"] == 50
        assert doc["seed"] == 3
        assert doc["p_n"] == doc["height"] / 50
        assert "p_n=" in result.output
        assert "regime=" in result.output

    def test_manifest_written_by_default(self, runner, tmp_path):
        runner.invoke(main, simulate_args(tmp_path, "--seed", "3"))
        manifest = load_manifest(tmp_path / "outcome.json.manifest.json")
        assert manifest.command == "simulate"
        assert manifest.base_seed == 3
        assert "outcome.json" in manifest.outputs
        assert set(manifest.stream_seeds) == {"production", "producer", "delay"}

    def test_byte_determinism(self, runner, tmp_path):
        runner.invoke(main, simulate_args(tmp_path, "--seed", "9", out="a.json"))
        runner.invoke(main, simulate_args(tmp_path, "--seed", "9", out="b.json"))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_engines_agree_on_p(self, runner, tmp_path):
        runner.invoke(main, simulate_args(tmp_path, "--engine", "network",
                                          "--seed", "5", out="net.json"))
        runner.invoke(main, simulate_args(tmp_path, "--engine", "matrix",
                                          "--seed", "5", out="mat.json"))
        net = json.loads((tmp_path / "net.json").read_text())
        mat = json.loads((tmp_path / "mat.json").read_text())
        assert net["p_n"] == mat["p_n"]

    def test_tree_and_series_outputs(self, runner, tmp_path):
        result = runner.invoke(main, simulate_args(
            tmp_path, "--engine", "network", "--m", "3",
            "--tree-out", str(tmp_path / "tree.json"), "--tree-format", "json",
            "--series-out", str(tmp_path / "series.json")))
        assert result.exit_code == 0, result.output
        tree = BlockTree(**json.loads((tmp_path / "tree.json").read_text()))
        assert tree.n_blocks == 50
        series = json.loads((tmp_path / "series.json").read_text())
        assert len(series["height_series"]) == 50

    def test_tree_with_tied_production_draws(self, runner, tmp_path):
        # Gamma production of shape 0.05 draws values below half an ulp of
        # the time so far; creation times must still increase strictly,
        # as the tree requires.
        result = runner.invoke(main, [
            "simulate", "--engine", "network", "--alpha", "gamma:1:0.05",
            "--beta", "exp:1", "--m", "3", "--n", "2000",
            "--out", str(tmp_path / "o.json"),
            "--tree-out", str(tmp_path / "t.json"), "--tree-format", "json"])
        assert result.exit_code == 0, result.output
        times = json.loads((tmp_path / "t.json").read_text())["times"]
        assert len(times) == 2000
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_dot_tree_output(self, runner, tmp_path):
        runner.invoke(main, simulate_args(
            tmp_path, "--engine", "network", "--m", "3",
            "--tree-out", str(tmp_path / "tree.dot")))
        assert (tmp_path / "tree.dot").read_text().startswith("digraph")


OVERFLOW_SIM = ["simulate", "--alpha", "exp:1e308", "--beta", "exp:1", "--n", "50", "--m", "3"]
OVERFLOW_EXPERIMENT = ["experiment", "--kind", "efficiency", "--alpha", "exp:1e307",
                       "--beta", "exp:1", "--n", "200", "--reps", "2", "--sweep", "1"]


class TestSimulateErrors:
    def test_bad_spec_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--alpha", "exp:-1", "--beta", BETA, "--n", "10",
            "--out", str(tmp_path / "o.json")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("alpha, beta", [
        (ALPHA, "exp:nan"), (ALPHA, "exp:inf"), ("gamma:1:nan", BETA),
        # Finite, but the draws would be NaN.
        ("gamma:1:5e-324", BETA), (ALPHA, "gamma:1e300:1e-10"), (ALPHA, "chi2:1e-308"),
    ])
    def test_non_finite_parameter_exits_2(self, runner, tmp_path, alpha, beta):
        result = runner.invoke(main, [
            "simulate", "--engine", "infinite", "--alpha", alpha, "--beta", beta,
            "--n", "100", "--out", str(tmp_path / "o.json")])
        assert result.exit_code == 2
        assert result.output.startswith("error:")
        assert len(result.output.strip().splitlines()) == 1
        assert not (tmp_path / "o.json").exists()

    @staticmethod
    def fill_disk(monkeypatch, room):
        """Let each file opened for writing take ``room`` writes, then fail
        the next as a full disk would; return the paths whose write failed.
        Root writes past permissions, so the failing write is simulated."""
        failed = []
        real_open = Path.open

        class FullDisk:
            def __init__(self, path, f):
                self.path, self.f, self.room = path, f, room

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                if self.room == 0:
                    failed.append(self.path)
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self.path))
                self.room -= 1
                return self.f.write(data)

        def open_(path, mode="r", *args, **kwargs):
            f = real_open(path, mode, *args, **kwargs)
            return FullDisk(path, f) if "w" in mode else f

        monkeypatch.setattr(Path, "open", open_)
        return failed

    def test_full_disk_exits_2(self, runner, tmp_path, monkeypatch):
        self.fill_disk(monkeypatch, room=0)
        result = runner.invoke(main, simulate_args(tmp_path))
        assert result.exit_code == 2
        assert result.output == (f"error: cannot write {tmp_path / 'outcome.json'}: "
                                 f"{os.strerror(errno.ENOSPC)}\n")
        # The file opened for the failed write is removed, not left empty.
        assert list(tmp_path.iterdir()) == []

    def test_full_disk_on_a_later_slice_exits_2(self, runner, tmp_path, monkeypatch):
        # The outcome file and the tree file's first 64 KiB are written;
        # the tree's second slice finds the disk full, and the truncated
        # tree file is removed.
        failed = self.fill_disk(monkeypatch, room=1)
        tree = tmp_path / "tree.json"
        result = runner.invoke(main, simulate_args(tmp_path, "--tree-out", str(tree),
                                                   "--engine", "network", "--n", "5000"))
        assert result.exit_code == 2
        assert result.output == f"error: cannot write {tree}: {os.strerror(errno.ENOSPC)}\n"
        assert failed == [tree]
        assert not tree.exists()
        assert (tmp_path / "outcome.json").exists()

    def test_tree_out_needs_network(self, runner, tmp_path):
        result = runner.invoke(main, simulate_args(
            tmp_path, "--tree-out", str(tmp_path / "t.dot")))
        assert result.exit_code == 2

    def test_missing_n_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--alpha", ALPHA,
                                      "--beta", BETA,
                                      "--out", str(tmp_path / "o.json")])
        assert result.exit_code == 2

    def test_bounded_engine_needs_m(self, runner, tmp_path):
        # One config serves every engine; only the bounded ones need m.
        argv = ["simulate", "--alpha", ALPHA, "--beta", BETA, "--n", "10"]
        for engine in ("network", "matrix"):
            with runner.isolated_filesystem(temp_dir=tmp_path) as cwd:
                result = runner.invoke(main, [*argv, "--engine", engine])
                assert result.exit_code == 2
                assert result.output == ("error: the network and matrix engines need "
                                         "a worker count --m\n")
                assert list(Path(cwd).iterdir()) == []
        result = runner.invoke(main, [*argv, "--engine", "infinite",
                                      "--out", str(tmp_path / "o.json")])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("p_n=")

    @pytest.mark.parametrize("args, message", [
        (["simulate", "--engine", "matrix", "--m", str(10**20), "--n", "3"],
         f"worker count m must be <= 2147483647, got {10**20}"),
        (["simulate", "--engine", "network", "--m", str(10**12), "--n", "3"],
         f"worker count m must be <= 2147483647, got {10**12}"),
        (["simulate", "--engine", "infinite", "--n", str(10**20)],
         f"block count n must be <= 2147483647, got {10**20}"),
        (["simulate", "--engine", "infinite", "--m", str(10**12), "--n", "3"],
         f"worker count m must be <= 2147483647, got {10**12}"),
        (["experiment", "--kind", "convergence", "--sweep", "1e20", "--n", "3",
          "--reps", "1"],
         "worker count m must be <= 2147483647, got 1e+20"),
        (["experiment", "--kind", "efficiency", "--sweep", "1", "--n", str(2**31),
          "--reps", "1"],
         f"block count n must be <= 2147483647, got {2**31}"),
    ], ids=["matrix-m", "network-m", "infinite-n", "infinite-m", "convergence-sweep",
          "efficiency-n"])
    def test_count_above_bound_exits_2(self, runner, tmp_path, args, message):
        # Every engine config rejects the count before any run starts, so
        # nothing is drawn or written.
        out = tmp_path / "out"
        result = runner.invoke(main, [*args, "--alpha", ALPHA, "--beta", BETA,
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert result.output == f"error: {message}\n"
        assert not out.exists()
        assert not Path(f"{out}.manifest.json").exists()

    @pytest.mark.parametrize("args, target", [
        (["simulate", "--engine", "matrix", "--m", "3", "--out", "{dir}"], "{dir}"),
        (["simulate", "--engine", "network", "--m", "3", "--out", "{dir}/o.json",
          "--series-out", "{dir}"], "{dir}"),
        (["simulate", "--engine", "infinite", "--out", "{dir}/o.json",
          "--manifest", "{dir}/missing/dir/m.json"], "{dir}/missing/dir/m.json"),
        (["experiment", "--kind", "single", "--reps", "2", "--out", "{dir}"], "{dir}"),
    ], ids=["simulate-out", "series-out", "manifest", "experiment-out"])
    def test_unwritable_output_exits_2(self, runner, tmp_path, args, target):
        # A directory where a file should go, or a manifest in a directory
        # that does not exist: every target is checked before the run, so
        # the command prints one error line and writes nothing.
        result = runner.invoke(main, [a.format(dir=tmp_path) for a in args]
                               + ["--alpha", ALPHA, "--beta", BETA, "--n", "20"])
        assert result.exit_code == 2
        [line] = result.output.splitlines()
        assert line.startswith(f"error: cannot write {target.format(dir=tmp_path)}: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, written", [
        (["simulate", "--m", "3", "--out", "new/o.json"], ["new/o.json", "new/o.json.manifest.json"]),
        (["simulate", "--m", "3", "--out", "new/o.json", "--manifest", "new/m.json"],
         ["new/m.json", "new/o.json"]),
        (["simulate", "--m", "3", "--out", "new/sub/o.json", "--manifest", "new/m.json"],
         ["new/m.json", "new/sub/o.json"]),
        (["simulate", "--m", "3", "--out", "o.json", "--series-out", "new/s.json",
          "--manifest", "new/m.json"], ["new/m.json", "new/s.json", "o.json"]),
        (["experiment", "--kind", "single", "--reps", "2", "--out", "new/t.csv"],
         ["new/t.csv", "new/t.csv.manifest.json"]),
    ], ids=["simulate", "manifest-beside", "manifest-above", "series-dir", "experiment"])
    def test_output_in_a_new_directory(self, runner, tmp_path, monkeypatch, args, written):
        # Writing an output makes its directories, so a manifest going into
        # one of them is writable though the directory does not exist yet.
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, [*args, "--alpha", ALPHA, "--beta", BETA, "--n", "20"])
        assert result.exit_code == 0, result.output
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
                      if p.is_file()) == written

    def test_manifest_beside_a_new_output_directory_exits_2(self, runner, tmp_path):
        # The output makes new/, not other/: the manifest is still refused.
        result = runner.invoke(main, simulate_args(tmp_path, "--manifest",
                                                   str(tmp_path / "other" / "m.json"),
                                                   out="new/o.json"))
        assert result.exit_code == 2
        assert result.output == (f"error: cannot write {tmp_path}/other/m.json: "
                                 "No such file or directory\n")
        assert list(tmp_path.iterdir()) == []

    def test_output_under_a_file_exits_2(self, runner, tmp_path):
        (tmp_path / "f").write_text("")
        result = runner.invoke(main, simulate_args(tmp_path, out="f/sub/o.json"))
        assert result.exit_code == 2
        assert result.output == f"error: cannot write {tmp_path}/f/sub/o.json: Not a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f"]

    def test_unwritable_table_runs_no_replication(self, runner, tmp_path, monkeypatch):
        def engine(config):
            raise AssertionError("a replication ran")
        monkeypatch.setitem(montecarlo.ENGINES, "infinite", engine)
        result = runner.invoke(main, ["experiment", "--kind", "single", "--reps", "2",
                                      "--alpha", ALPHA, "--beta", BETA, "--n", "20",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert result.output.startswith(f"error: cannot write {tmp_path}: ")

    @pytest.mark.parametrize("argv", [
        [*OVERFLOW_SIM, "--engine", "network", "--tree-out", "t.json"],
        [*OVERFLOW_SIM, "--engine", "matrix"],
        [*OVERFLOW_SIM, "--engine", "infinite"],
        [*OVERFLOW_EXPERIMENT, "--jobs", "1"],
        [*OVERFLOW_EXPERIMENT, "--jobs", "2"],
    ], ids=["network-tree", "matrix", "infinite", "efficiency-1-job", "efficiency-2-jobs"])
    def test_production_times_that_can_overflow_exit_2(self, runner, tmp_path, argv):
        # Finite parameters whose creation times could sum past the largest
        # double are rejected before any run, so nothing is drawn or written.
        with runner.isolated_filesystem(temp_dir=tmp_path) as cwd:
            result = runner.invoke(main, argv)
            assert result.exit_code == 2
            [line] = result.output.splitlines()
            assert line.startswith("error: production distribution exponential:")
            assert "draws may sum past" in line
            assert list(Path(cwd).iterdir()) == []

    @pytest.mark.parametrize("engine", ["network", "matrix", "infinite"])
    def test_production_times_that_cannot_overflow_run(self, runner, tmp_path, engine):
        result = runner.invoke(main, [
            "simulate", "--engine", engine, "--alpha", "exp:1e300", "--beta", "exp:1e300",
            "--n", "1000", "--m", "3", "--out", str(tmp_path / "o.json")])
        assert result.exit_code == 0
        assert result.output.startswith("p_n=")

    @pytest.mark.parametrize("engine", ["network", "matrix"])
    def test_delays_past_the_largest_double_are_never_seen(self, runner, tmp_path, engine):
        # Such a delay draw is inf: an arrival that never comes, with no
        # overflow warning on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, [
                "simulate", "--engine", engine, "--alpha", "exp:1", "--beta", "exp:1e308",
                "--n", "2000", "--m", "5", "--seed", "4", "--out", str(tmp_path / "o.json")])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[0] == f"p_n=0.206000 height=412 n=2000 engine={engine}"
        assert len(result.output.splitlines()) == 2


SIM =["simulate", "--alpha", ALPHA, "--beta", BETA]


class TestOneInputPath:
    @pytest.mark.parametrize("argv, named", [
        ([*SIM, "--n", "20", "--m", "x"], "m must be an integer, got 'x'"),
        ([*SIM, "--m", "3", "--n", "1.5"], "n must be an integer, got '1.5'"),
        ([*SIM, "--n", "20", "--m", "3", "--engine", "warp"], "unknown engine 'warp'"),
        (["experiment", "--alpha", ALPHA, "--beta", BETA, "--n", "20", "--reps", "1",
          "--kind", "bogus"], "unknown experiment kind 'bogus'"),
        ([*SIM, "--engine", "network", "--n", "20", "--m", "3", "--tree-out", "t.dot",
          "--tree-format", "svg"], "unknown tree format 'svg'"),
        (["validate", "--quick", "--seed", "1.5"], "seed must be an integer, got '1.5'"),
        (["simulate", "--config", "missing.json"], "cannot read config file missing.json"),
        (["replay", "missing.json"], "cannot read manifest missing.json"),
    ], ids=["m", "n", "engine", "kind", "tree-format", "validate-seed", "config", "replay"])
    def test_bad_input_is_one_error_line_and_writes_nothing(self, runner, tmp_path, argv,
                                                             named):
        # A flag's text goes through the parser a config file's value goes
        # through, so a bad flag fails as a bad config value does.
        with runner.isolated_filesystem(temp_dir=tmp_path) as cwd:
            result = runner.invoke(main, argv)
            assert result.exit_code == 2
            [line] = result.output.splitlines()
            assert line.startswith(f"error: {named}")
            assert list(Path(cwd).iterdir()) == []

    @pytest.mark.parametrize("command, key", [("experiment", "replications"),
                                              ("simulate", "reps"), ("simulate", "tree-format")])
    def test_config_key_that_names_no_field_exits_2(self, runner, tmp_path, command, key):
        # A key no field reads was once ignored: replications ran the
        # kind's default count and the manifest recorded that instead.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**BASE_CONFIGS[command], key: 3}))
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--config", str(config), "--out", str(out)])
        assert result.exit_code == 2
        [line] = result.output.splitlines()
        assert line.startswith(f"error: config file {config}: unknown key '{key}'; ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("command, paths", [
        ("simulate", ["--config", "--manifest", "--out", "--tree-out", "--series-out"]),
        ("experiment", ["--config", "--manifest", "--out"])])
    def test_help_lists_one_flag_per_field(self, runner, command, paths):
        from blocksim.cli import _FIELDS
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        flags = re.findall(r"^  (--[a-z-]+)", result.output, re.MULTILINE)
        fields = [f"--{key.replace('_', '-')}" for key in _FIELDS[command]]
        assert sorted(flags) == sorted([*fields, *paths, "--help"])
        # click collects text only: no field option has a type of its own.
        options = [p for p in main.commands[command].params if p.name in _FIELDS[command]]
        assert [p.type for p in options] == [click.STRING] * len(fields)

    @pytest.mark.parametrize("flag, env, seed", [("5", "7", 5), ("0", "7", 0), (None, "7", 7),
                                                 (None, None, 0)])
    def test_validate_seed_is_flag_then_env_then_zero(self, runner, monkeypatch, flag, env,
                                                      seed):
        seen = []
        monkeypatch.setattr(cli, "run_validation",
                            lambda base_seed, **kwargs: seen.append(base_seed) or [])
        if env is not None:
            monkeypatch.setenv("BLOCKSIM_SEED", env)
        result = runner.invoke(main, ["validate", "--quick", *(["--seed", flag] if flag else [])])
        assert result.exit_code == 0, result.output
        assert seen == [seed]


class TestOneFilePerOutput:
    NETWORK = ["simulate", "--engine", "network", "--m", "3", "--n", "50",
               "--alpha", ALPHA, "--beta", BETA]
    @pytest.mark.parametrize("args, message", [
        ([*NETWORK, "--out", "x.json", "--series-out", "x.json"],
         "the outcome and series outputs are both x.json"),
        ([*NETWORK, "--out", "y.json", "--manifest", "y.json"],
         "the outcome and manifest outputs are both y.json"),
        ([*NETWORK, "--out", "z.json", "--tree-out", "z.json"],
         "the outcome and tree outputs are both z.json"),
        ([*NETWORK, "--tree-out", "new/../t.json", "--series-out", "t.json"],
         "the tree and series outputs are both t.json"),
        ([*NETWORK, "--series-out", "outcome.json.manifest.json"],
         "the series and manifest outputs are both outcome.json.manifest.json"),
        (["experiment", "--kind", "single", "--reps", "2", "--n", "20", "--alpha", ALPHA,
          "--beta", BETA, "--out", "t.csv", "--manifest", "./t.csv"],
         "the table and manifest outputs are both ./t.csv"),
        ([*NETWORK, "--out", "a/r.json", "--tree-out", "b/r.json"],
         "the outcome and tree outputs are both named r.json"),
        ([*NETWORK, "--tree-out", "a/t.json", "--series-out", "b/t.json"],
         "the tree and series outputs are both named t.json"),
    ], ids=["series", "manifest", "tree", "tree-series", "default-manifest", "experiment",
            "tree-named", "tree-series-named"])
    def test_two_roles_naming_one_file_exit_2(self, runner, tmp_path, monkeypatch,
                                             no_engine_runs, args, message):
        # One output used to overwrite the other and the command exited 0.
        # Two of one name in different directories would share one digest
        # in the manifest, and replay writes both into one directory.
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.output == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_replayed_output_names_naming_one_file_exit_2(self, runner, tmp_path):
        runner.invoke(main, [*self.NETWORK, "--out", str(tmp_path / "o.json"),
                             "--series-out", str(tmp_path / "s.json")])
        manifest = tmp_path / "o.json.manifest.json"
        doc = json.loads(manifest.read_text())
        doc["params"]["output_names"]["series"] = "o.json"
        manifest.write_text(json.dumps(doc))
        result = runner.invoke(main, ["replay", str(manifest),
                                      "--out-dir", str(tmp_path / "replayed")])
        assert result.exit_code == 2
        assert result.output == ("error: the outcome and series outputs are both "
                                 f"{tmp_path / 'replayed' / 'o.json'}\n")
        assert not (tmp_path / "replayed").exists()


class TestExperimentBounds:
    """Sizes past a bound exit 2 before any run: no engine runs, no file is written."""

    @pytest.mark.parametrize("args, message", [
        (["--kind", "pdf-histogram", "--bins", "100000000000"],
         "histogram bin count must be <= 1048576, got 100000000000"),
        (["--kind", "pdf-histogram", "--bins", str(montecarlo.MAX_BINS + 1)],
         "histogram bin count must be <= 1048576, got 1048577"),
        (["--kind", "single", "--reps", "3000000000"],
         "replication count must be <= 2147483647, got 3000000000"),
        (["--kind", "single", "--reps", "0"], "replication count must be >= 1"),
        (["--kind", "convergence", "--sweep", "2,1e300"],
         "worker count m must be <= 2147483647, got 1e+300"),
        (["--kind", "convergence", "--sweep", "2147483648"],
         "worker count m must be <= 2147483647, got 2147483648"),
    ], ids=["bins", "bins-past-cap", "reps", "reps-zero", "sweep", "sweep-past-cap"])
    def test_exits_2_before_any_run(self, runner, tmp_path, monkeypatch,
                                    no_engine_runs, args, message):
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, ["experiment", "--alpha", ALPHA, "--beta", BETA,
                                      "--n", "50", "--reps", "2", *args])
        assert result.exit_code == 2
        assert result.output == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_bounds_themselves_are_accepted(self):
        spec = dict(alpha=exponential(1.0), beta=exponential(0.1), n=20)
        sets, _ = montecarlo.EXPERIMENTS["pdf_histogram"].driver(
            **spec, m=3, bins=montecarlo.MAX_BINS)
        assert [engine for engine, _ in sets] == ["matrix", "infinite"]
        sets, _ = montecarlo.EXPERIMENTS["convergence"].driver(
            **spec, sweep=[float(network.MAX_COUNT)])
        assert sets[0][1].m == network.MAX_COUNT


class TestEfficiencySweepErrors:
    CASES = [
        ({"sweep": [0]}, "efficiency sweep ratio 0: exponential distribution needs mean > 0"),
        ({"sweep": [0.5, -1]},
         "efficiency sweep ratio -1: exponential distribution needs mean > 0"),
        ({"sweep": [1e300], "alpha": "exp:1e10"},
         "efficiency sweep ratio 1e+300: exponential mean must be finite, got inf"),
    ]

    def fields(self, **changes):
        return {"kind": "efficiency", "alpha": ALPHA, "beta": BETA, "n": 20, "reps": 2,
                **changes}

    def flags(self, fields):
        return [arg for key, value in fields.items() for arg in (
            f"--{key}", ",".join(map(str, value)) if isinstance(value, list) else str(value))]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("changes, message", CASES, ids=["zero", "negative", "overflow"])
    def test_error_names_the_ratio(self, runner, tmp_path, source, changes, message):
        fields = self.fields(**changes)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(fields))
        args = self.flags(fields) if source == "flag" else ["--config", str(config)]
        result = runner.invoke(main, ["experiment", *args, "--out", str(tmp_path / "e.csv")])
        assert result.exit_code == 2
        assert result.output == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_zero_constant_delay_runs(self, runner, tmp_path):
        out = tmp_path / "e.csv"
        result = runner.invoke(main, ["experiment", *self.flags(self.fields(
            beta="const:1", sweep=[0, 1])), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert [line.split(",")[:3] for line in out.read_text().splitlines()[1:]] == [
            ["0.0", "1.0", "0.0"], ["1.0", "1.0", "1.0"]]


class TestConfigResolution:
    def write_config(self, tmp_path, **fields):
        doc = {"engine": "infinite", "alpha": ALPHA, "beta": BETA, "n": 40}
        doc.update(fields)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_config_file_supplies_everything(self, runner, tmp_path):
        path = self.write_config(tmp_path, seed=17)
        result = runner.invoke(main, ["simulate", "--config", str(path),
                                      "--out", str(tmp_path / "o.json")])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "o.json").read_text())
        assert (doc["engine"], doc["n"], doc["seed"]) == ("infinite", 40, 17)

    def test_flags_override_config(self, runner, tmp_path):
        path = self.write_config(tmp_path, seed=17)
        result = runner.invoke(main, [
            "simulate", "--config", str(path), "--n", "25", "--seed", "4",
            "--engine", "matrix", "--m", "3", "--out", str(tmp_path / "o.json")])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "o.json").read_text())
        assert (doc["engine"], doc["n"], doc["seed"]) == ("matrix", 25, 4)

    def test_spec_as_object_in_config(self, runner, tmp_path):
        path = self.write_config(tmp_path)
        doc = json.loads(path.read_text())
        doc["beta"] = {"kind": "gamma", "mean": 0.2, "shape": 2.0}
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["simulate", "--config", str(path),
                                      "--out", str(tmp_path / "o.json")])
        assert result.exit_code == 0, result.output

    def test_config_file_not_an_object_exits_2(self, runner, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps([ALPHA, BETA]))
        result = runner.invoke(main, ["simulate", "--config", str(path),
                                      "--out", str(tmp_path / "o.json")])
        assert result.exit_code == 2
        assert result.output == "error: config file must hold a JSON object\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_distribution_object_without_mean_exits_2(self, runner, tmp_path):
        path = self.write_config(tmp_path, alpha={"kind": "exponential"})
        result = runner.invoke(main, ["simulate", "--config", str(path),
                                      "--out", str(tmp_path / "o.json")])
        assert result.exit_code == 2
        assert result.output == "error: distribution dict needs a 'mean' field\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_chi_squared_object_without_parameter_exits_2(self, runner, tmp_path):
        path = self.write_config(tmp_path, beta={"kind": "chi_squared"})
        result = runner.invoke(main, ["simulate", "--config", str(path),
                                      "--out", str(tmp_path / "o.json")])
        assert result.exit_code == 2
        assert result.output.startswith("error:")
        assert len(result.output.strip().splitlines()) == 1

    @pytest.mark.parametrize("spec", [{"kind": "gamma", "mean": 1, "shape": True},
                                      {"kind": "exponential", "mean": False}])
    def test_boolean_distribution_parameter_exits_2(self, runner, tmp_path, spec):
        path = self.write_config(tmp_path, alpha=spec)
        result = runner.invoke(main, ["simulate", "--config", str(path),
                                      "--out", str(tmp_path / "o.json")])
        assert result.exit_code == 2
        assert result.output.startswith("error:") and "must be a number" in result.output
        assert len(result.output.strip().splitlines()) == 1
        assert not (tmp_path / "o.json").exists()

    def test_chi_squared_object_mean_sets_dof(self, runner, tmp_path):
        path = self.write_config(tmp_path, beta={"kind": "chi_squared", "mean": 3})
        manifest = tmp_path / "o.json.manifest.json"
        result = runner.invoke(main, ["simulate", "--config", str(path),
                                      "--out", str(tmp_path / "o.json")])
        assert result.exit_code == 0, result.output
        assert load_manifest(manifest).params["beta"] == {
            "kind": "chi_squared", "mean": 3.0, "shape": 3.0}

    def test_env_seed_used_when_unset(self, runner, tmp_path):
        result = runner.invoke(main, simulate_args(tmp_path),
                               env={"BLOCKSIM_SEED": "23"})
        assert result.exit_code == 0, result.output
        assert json.loads((tmp_path / "outcome.json").read_text())["seed"] == 23

    def test_config_seed_beats_env(self, runner, tmp_path):
        path = self.write_config(tmp_path, seed=17)
        result = runner.invoke(main, ["simulate", "--config", str(path),
                                      "--out", str(tmp_path / "o.json")],
                               env={"BLOCKSIM_SEED": "23"})
        assert json.loads((tmp_path / "o.json").read_text())["seed"] == 17

    def test_flag_seed_beats_env(self, runner, tmp_path):
        result = runner.invoke(main, simulate_args(tmp_path, "--seed", "8"),
                               env={"BLOCKSIM_SEED": "23"})
        assert json.loads((tmp_path / "outcome.json").read_text())["seed"] == 8

    def test_default_seed_zero(self, runner, tmp_path):
        runner.invoke(main, simulate_args(tmp_path))
        assert json.loads((tmp_path / "outcome.json").read_text())["seed"] == 0

    def test_bad_env_seed_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, simulate_args(tmp_path),
                               env={"BLOCKSIM_SEED": "not-a-number"})
        assert result.exit_code == 2


# Params of manifests the CLI wrote before its flags were resolved through
# one field table, for each engine and each experiment kind.
EXP1 = {"kind": "exponential", "mean": 1.0}
PINNED_PARAMS = [
    (["simulate", "--engine", "network", "--alpha", "exp:1", "--beta", "exp:0.5",
      "--m", "3", "--n", "40", "--seed", "2", "--out", "net.json", "--tree-out",
      "tree.json", "--tree-format", "json", "--series-out", "series.json"],
     {"engine": "network", "alpha": EXP1, "beta": {"kind": "exponential", "mean": 0.5},
      "m": 3, "n": 40, "seed": 2, "tree_format": "json",
      "output_names": {"outcome": "net.json", "series": "series.json", "tree": "tree.json"}}),
    (["simulate", "--engine", "matrix", "--alpha", "gamma:1:2", "--beta", "exp:0.5",
      "--m", "4", "--n", "40", "--seed", "2", "--out", "mat.json"],
     {"engine": "matrix", "alpha": {"kind": "gamma", "mean": 1.0, "shape": 2.0},
      "beta": {"kind": "exponential", "mean": 0.5}, "m": 4, "n": 40, "seed": 2,
      "tree_format": "dot", "output_names": {"outcome": "mat.json", "series": None,
                                             "tree": None}}),
    (["simulate", "--engine", "infinite", "--alpha", "exp:1", "--beta", "const:0.5",
      "--n", "40", "--seed", "2", "--out", "inf.json", "--series-out", "inf_series.json"],
     {"engine": "infinite", "alpha": EXP1, "beta": {"kind": "constant", "mean": 0.5},
      "m": None, "n": 40, "seed": 2, "tree_format": "dot",
      "output_names": {"outcome": "inf.json", "series": "inf_series.json", "tree": None}}),
    (["experiment", "--kind", "single", "--alpha", "exp:1", "--beta", "exp:0.1",
      "--n", "30", "--reps", "3", "--seed", "1", "--out", "single.csv"],
     {"kind": "single", "alpha": EXP1, "beta": {"kind": "exponential", "mean": 0.1},
      "n": 30, "replications": 3, "sweep": [], "m": 100, "bins": 20, "engine": "infinite",
      "seed": 1, "jobs": 1, "output_names": {"table": "single.csv"}}),
    (["experiment", "--kind", "convergence", "--alpha", "exp:1", "--beta", "exp:0.1",
      "--n", "20", "--reps", "1", "--seed", "1", "--out", "conv.csv"],
     {"kind": "convergence", "alpha": EXP1, "beta": {"kind": "exponential", "mean": 0.1},
      "n": 20, "replications": 1,
      "sweep": [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0],
      "m": 100, "bins": 20, "engine": "infinite", "seed": 1, "jobs": 1,
      "output_names": {"table": "conv.csv"}}),
    (["experiment", "--kind", "efficiency", "--alpha", "exp:1", "--beta", "exp:0.1",
      "--n", "30", "--reps", "2", "--sweep", "0.1,2", "--seed", "1", "--out", "eff.csv"],
     {"kind": "efficiency", "alpha": EXP1, "beta": {"kind": "exponential", "mean": 0.1},
      "n": 30, "replications": 2, "sweep": [0.1, 2.0], "m": 100, "bins": 20,
      "engine": "infinite", "seed": 1, "jobs": 1, "output_names": {"table": "eff.csv"}}),
    (["experiment", "--kind", "pdf-histogram", "--alpha", "exp:1", "--beta", "exp:0.1",
      "--n", "30", "--reps", "5", "--m", "4", "--bins", "3", "--seed", "1",
      "--out", "hist.csv"],
     {"kind": "pdf_histogram", "alpha": EXP1, "beta": {"kind": "exponential", "mean": 0.1},
      "n": 30, "replications": 5, "sweep": [], "m": 4, "bins": 3, "engine": "infinite",
      "seed": 1, "jobs": 1, "output_names": {"table": "hist.csv"}}),
]

MISSING = object()
BASE_CONFIGS = {
    "simulate": {"engine": "infinite", "alpha": ALPHA, "beta": BETA, "m": 3, "n": 20,
                 "seed": 1},
    "experiment": {"kind": "single", "alpha": ALPHA, "beta": BETA, "n": 20, "reps": 2,
                   "seed": 1},
}
SPEC_CASES = {
    "alpha": ("exp:2", "exp:3", {"kind": "exponential", "mean": 2.0},
              {"kind": "exponential", "mean": 3.0}, MISSING),
    "beta": ("const:0.5", {"kind": "gamma", "mean": 0.5, "shape": 2},
             {"kind": "constant", "mean": 0.5},
             {"kind": "gamma", "mean": 0.5, "shape": 2.0}, MISSING),
}
# (command, key): flag, config value, param from the flag, param from the
# config, param by default (MISSING: the command exits 2).
PRECEDENCE = {
    ("simulate", "engine"): ("network", "infinite", "network", "infinite", "matrix"),
    ("simulate", "alpha"): SPEC_CASES["alpha"],
    ("simulate", "beta"): SPEC_CASES["beta"],
    ("simulate", "m"): ("5", 4, 5, 4, None),
    ("simulate", "n"): ("25", 30, 25, 30, MISSING),
    ("simulate", "seed"): ("8", 17, 8, 17, 0),
    ("simulate", "tree_format"): ("dot", "json", "dot", "json", "dot"),
    ("experiment", "kind"): ("pdf-histogram", "efficiency", "pdf_histogram", "efficiency",
                             MISSING),
    ("experiment", "alpha"): SPEC_CASES["alpha"],
    ("experiment", "beta"): SPEC_CASES["beta"],
    ("experiment", "n"): ("25", 30, 25, 30, MISSING),
    ("experiment", "reps"): ("3", 4, 3, 4, 100),
    ("experiment", "sweep"): ("0.5,2", [1, 3], [0.5, 2.0], [1.0, 3.0], []),
    ("experiment", "m"): ("5", 4, 5, 4, 100),
    ("experiment", "bins"): ("5", 4, 5, 4, 20),
    ("experiment", "engine"): ("matrix", "network", "matrix", "network", "infinite"),
    ("experiment", "seed"): ("8", 17, 8, 17, 0),
    ("experiment", "jobs"): ("3", 2, 3, 2, 1),
}


class TestFieldTable:
    @pytest.mark.parametrize("argv, params", PINNED_PARAMS,
                             ids=["network", "matrix", "infinite", "single", "convergence",
                                  "efficiency", "pdf-histogram"])
    def test_manifest_params_unchanged(self, runner, tmp_path, argv, params):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(main, argv)
            assert result.exit_code == 0, result.output
            manifest = load_manifest(f"{argv[argv.index('--out') + 1]}.manifest.json")
            assert manifest.params == params

    def test_every_field_has_a_precedence_case(self):
        from blocksim.cli import _FIELDS
        assert set(PRECEDENCE) == {(command, key) for command, fields in _FIELDS.items()
                                   for key in fields}

    @pytest.mark.parametrize("command, key", sorted(PRECEDENCE))
    def test_flag_beats_config_beats_default(self, runner, tmp_path, recording_pool,
                                             command, key):
        flag, value, from_flag, from_config, default = PRECEDENCE[command, key]
        param = "replications" if key == "reps" else key
        out = tmp_path / ("o.json" if command == "simulate" else "t.csv")
        config = tmp_path / "config.json"

        def params(doc, *flags):
            config.write_text(json.dumps(doc))
            result = runner.invoke(main, [command, "--config", str(config),
                                          "--out", str(out), *flags])
            if default is MISSING and key not in doc and not flags:
                assert result.exit_code == 2
                assert f"missing {key}" in result.output
                return MISSING
            assert result.exit_code == 0, result.output
            return load_manifest(f"{out}.manifest.json").params[param]

        doc = {**BASE_CONFIGS[command], key: value}
        assert params(doc, f"--{key.replace('_', '-')}", flag) == from_flag
        assert params(doc) == from_config
        del doc[key]
        assert params(doc) == default

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, m", [("simulate", -3), ("simulate", 0),
                                            ("experiment", -5), ("experiment", 0)])
    def test_worker_count_below_one_exits_2(self, runner, tmp_path, command, m, source):
        # The infinite engine and the efficiency kind ignore m, so only the
        # field check can catch it before it reaches the manifest.
        doc = ({"engine": "infinite", "alpha": ALPHA, "beta": BETA, "n": 20}
               if command == "simulate" else
               {"kind": "efficiency", "alpha": ALPHA, "beta": BETA, "n": 20, "reps": 1,
                "sweep": [1]})
        flags = ["--m", str(m)] if source == "flag" else []
        if source == "config":
            doc["m"] = m
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--config", str(config), "--out", str(out),
                                      *flags])
        assert result.exit_code == 2
        assert result.output == f"error: worker count m must be >= 1, got {m}\n"
        assert not out.exists()
        assert not Path(f"{out}.manifest.json").exists()


class TestTraceHooks:
    def test_every_name_the_benchmark_trace_wraps_exists(self):
        # bench/spans.py wraps package functions and methods by name, and
        # the tier-1 suite does not collect bench/; a deleted name would
        # otherwise break only ``bench/run.py --trace 1``.
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root / "bench")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import spans; spans.instrument(spans.Tracer())"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("m,n,beta", [(1, 50, 1.0), (100, 2000, 1.0), (30, 1500, 50.0)])
    def test_delivery_sweep_sees_every_block_and_delivered_message(self, monkeypatch,
                                                                   m, n, beta):
        # The trace reads network.delivery_sweep_s as the time spent
        # delivering; it holds only while the engine calls the module
        # global once per block and hands it every message delivered.
        handed = []
        sweep = network.delivery_sweep

        def count(recipients, blocks, *state):
            handed.append(len(recipients))
            sweep(recipients, blocks, *state)

        monkeypatch.setattr(network, "delivery_sweep", count)
        out = network.simulate_network(network.NetSimConfig(
            m=m, n=n, alpha=exponential(1.0), beta=exponential(beta), seed=7))
        assert len(handed) == n - 1
        assert sum(handed) == out.stats["messages_sent"] - out.stats["undelivered"]


class TestExperiment:
    def run_kind(self, runner, tmp_path, *extra):
        out = tmp_path / "table.csv"
        result = runner.invoke(main, [
            "experiment", "--alpha", ALPHA, "--beta", BETA, "--n", "40",
            "--seed", "1", "--out", str(out), *extra])
        assert result.exit_code == 0, result.output
        return result, out.read_text().splitlines()

    def test_single_table(self, runner, tmp_path):
        result, lines = self.run_kind(runner, tmp_path, "--kind", "single",
                                      "--reps", "5")
        assert lines[0] == "replication,p_n"
        assert len(lines) == 6
        assert result.output == f"wrote {tmp_path / 'table.csv'} (1 file)\n"

    def test_convergence_table(self, runner, tmp_path):
        result, lines = self.run_kind(runner, tmp_path, "--kind", "convergence",
                                      "--sweep", "2,5", "--reps", "3")
        assert lines[0] == "m,mean_p,q25,q75,replications"
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "5", "inf"]
        assert result.output == f"wrote {tmp_path / 'table.csv'} (1 file)\n"

    def test_efficiency_table_and_warning(self, runner, tmp_path):
        result, lines = self.run_kind(runner, tmp_path, "--kind", "efficiency",
                                      "--sweep", "0.1,2", "--reps", "3")
        assert lines[0] == ("ratio,alpha_mean,beta_mean,mean_p,std_err,"
                            "predicted_p,abs_error")
        assert len(lines) == 3
        assert result.output == (
            "note: prediction is unreliable at ratios > 1 (sweep hit: 2)\n"
            f"wrote {tmp_path / 'table.csv'} (1 file)\n")

    def test_histogram_table(self, runner, tmp_path):
        result, lines = self.run_kind(runner, tmp_path, "--kind", "pdf-histogram",
                                      "--reps", "20", "--m", "5", "--bins", "8")
        assert lines[0] == "bin_left,bin_right,density_Am,density_Ainf"
        assert len(lines) == 9
        assert result.output == (
            "ks_distance=0.1000 mean_Am=0.92875 mean_Ainf=0.93000 shift=+0.00125\n"
            f"wrote {tmp_path / 'table.csv'} (1 file)\n")

    def test_jobs_do_not_change_bytes(self, runner, tmp_path):
        _, serial = self.run_kind(runner, tmp_path, "--kind", "single",
                                  "--reps", "6")
        out2 = tmp_path / "table2.csv"
        result = runner.invoke(main, [
            "experiment", "--alpha", ALPHA, "--beta", BETA, "--n", "40",
            "--seed", "1", "--kind", "single", "--reps", "6", "--jobs", "2",
            "--out", str(out2)])
        assert result.exit_code == 0, result.output
        assert out2.read_text().splitlines() == serial

    def test_pool_capped_and_requested_jobs_recorded(self, runner, tmp_path, recording_pool):
        # Two replications start two workers, not six; no pool is started here.
        _, serial = self.run_kind(runner, tmp_path, "--kind", "single", "--reps", "2")
        out = tmp_path / "six.csv"
        result = runner.invoke(main, [
            "experiment", "--alpha", ALPHA, "--beta", BETA, "--n", "40",
            "--seed", "1", "--kind", "single", "--reps", "2", "--jobs", "6",
            "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert recording_pool == [2]
        assert out.read_text().splitlines() == serial
        assert load_manifest(tmp_path / "six.csv.manifest.json").params["jobs"] == 6

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_flag_exits_2(self, runner, tmp_path, jobs):
        result = runner.invoke(main, [
            "experiment", "--alpha", ALPHA, "--beta", BETA, "--n", "40",
            "--kind", "single", "--reps", "2", "--jobs", jobs,
            "--out", str(tmp_path / "t.csv")])
        assert result.exit_code == 2
        assert "job count must be >= 1" in result.output
        assert not (tmp_path / "t.csv").exists()

    def test_jobs_from_config_file(self, runner, tmp_path):
        path = tmp_path / "config.json"
        base = {"kind": "single", "alpha": ALPHA, "beta": BETA, "n": 40, "reps": 2}
        path.write_text(json.dumps({**base, "jobs": 0}))
        result = runner.invoke(main, ["experiment", "--config", str(path),
                                      "--out", str(tmp_path / "t.csv")])
        assert result.exit_code == 2
        assert "job count must be >= 1" in result.output
        path.write_text(json.dumps({**base, "jobs": 2}))
        result = runner.invoke(main, ["experiment", "--config", str(path),
                                      "--out", str(tmp_path / "t.csv")])
        assert result.exit_code == 0, result.output
        assert load_manifest(tmp_path / "t.csv.manifest.json").params["jobs"] == 2

    @pytest.mark.parametrize("sweep", ["inf", "nan", "2.5", "2,0"])
    def test_bad_worker_count_exits_2(self, runner, tmp_path, sweep):
        result = runner.invoke(main, [
            "experiment", "--alpha", ALPHA, "--beta", BETA, "--n", "40",
            "--kind", "convergence", "--sweep", sweep, "--reps", "2",
            "--out", str(tmp_path / "t.csv")])
        assert result.exit_code == 2
        assert "worker counts must be finite integers >= 1" in result.output
        assert len(result.output.strip().splitlines()) == 1
        assert not (tmp_path / "t.csv").exists()

    def test_missing_kind_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["experiment", "--alpha", ALPHA,
                                      "--beta", BETA, "--n", "40",
                                      "--out", str(tmp_path / "t.csv")])
        assert result.exit_code == 2


class TestBadIntegerFields:
    @pytest.mark.parametrize("field, value", [
        ("n", "abc"), ("n", 2.5), ("m", "x"), ("reps", "many"), ("bins", [3]),
        ("jobs", "two"), ("seed", "s"), ("n", True),
    ])
    def test_experiment_config_field_exits_2(self, runner, tmp_path, field, value):
        doc = {"kind": "single", "alpha": ALPHA, "beta": BETA, "n": 40, "reps": 2,
               field: value}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["experiment", "--config", str(path),
                                      "--out", str(tmp_path / "t.csv")])
        assert result.exit_code == 2
        assert result.output.startswith("error:")
        assert "must be an integer" in result.output
        assert len(result.output.strip().splitlines()) == 1

    @pytest.mark.parametrize("field, value", [("n", "abc"), ("m", "x"), ("seed", 1.5)])
    def test_simulate_config_field_exits_2(self, runner, tmp_path, field, value):
        doc = {"engine": "matrix", "alpha": ALPHA, "beta": BETA, "n": 40, "m": 3,
               field: value}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["simulate", "--config", str(path),
                                      "--out", str(tmp_path / "o.json")])
        assert result.exit_code == 2
        assert f"{field} must be an integer" in result.output
        assert len(result.output.strip().splitlines()) == 1

    def test_integer_strings_and_integral_floats_accepted(self, runner, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"kind": "single", "alpha": ALPHA, "beta": BETA,
                                    "n": "40", "reps": 2.0, "seed": "3"}))
        result = runner.invoke(main, ["experiment", "--config", str(path),
                                      "--out", str(tmp_path / "t.csv")])
        assert result.exit_code == 0, result.output
        params = load_manifest(tmp_path / "t.csv.manifest.json").params
        assert (params["n"], params["replications"], params["seed"]) == (40, 2, 3)


class TestValidateCommand:
    def test_quick_suite_passes(self, runner):
        result = runner.invoke(main, ["validate", "--quick"])
        assert result.exit_code == 0, result.output
        assert result.output.count("[ok]") == 3

    def test_injected_fault_fails(self, runner):
        result = runner.invoke(main, ["validate", "--quick", "--inject-fault"])
        assert result.exit_code == 1
        assert "[FAIL] engine_equivalence" in result.output
        assert "[ok] pruning_exactness" in result.output


class TestReplay:
    def test_simulate_replay_matches(self, runner, tmp_path):
        runner.invoke(main, simulate_args(
            tmp_path, "--engine", "network", "--m", "3", "--seed", "2",
            "--series-out", str(tmp_path / "series.json")))
        result = runner.invoke(main, [
            "replay", str(tmp_path / "outcome.json.manifest.json"),
            "--out-dir", str(tmp_path / "replayed")])
        assert result.exit_code == 0, result.output
        assert "MISMATCH" not in result.output
        assert (tmp_path / "replayed" / "outcome.json").read_bytes() == \
            (tmp_path / "outcome.json").read_bytes()

    def test_experiment_replay_matches(self, runner, tmp_path):
        out = tmp_path / "table.csv"
        runner.invoke(main, [
            "experiment", "--alpha", ALPHA, "--beta", BETA, "--n", "30",
            "--seed", "1", "--kind", "single", "--reps", "4", "--out", str(out)])
        result = runner.invoke(main, [
            "replay", str(tmp_path / "table.csv.manifest.json"),
            "--out-dir", str(tmp_path / "replayed")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "replayed" / "table.csv").read_bytes() == out.read_bytes()

    # Digests of matrix-engine outputs from before the engine recorded
    # pairs_tested and delays_transformed: run stats stay out of every
    # output file, so neither the outputs nor the manifests' digests move.
    @pytest.mark.parametrize("argv, digests", [
        (["simulate", "--engine", "matrix", "--alpha", "exp:1", "--beta", "exp:2",
          "--m", "30", "--n", "500", "--seed", "3", "--out", "outcome.json",
          "--series-out", "series.json"],
         {"outcome.json": "b34707b4b9b1e9992beb548f66d0dc2848c360c6568f856cdee105ea5e42dc9a",
          "series.json": "580cf4769303d509116599319b4241e87f9e7d7747afe23a8fbc823eb3a570ae"}),
        (["experiment", "--kind", "convergence", "--alpha", "exp:1", "--beta", "exp:1",
          "--n", "300", "--reps", "2", "--sweep", "2,20,300", "--seed", "5",
          "--out", "conv.csv"],
         {"conv.csv": "e747bf81b405bddb098630b79c05f0e21a4844a10ed507170dbc2fea8b42d4fa"}),
    ], ids=["simulate", "convergence"])
    def test_matrix_stats_leave_digests_unmoved(self, runner, tmp_path, argv, digests):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            assert runner.invoke(main, argv).exit_code == 0
            manifest = f"{argv[argv.index('--out') + 1]}.manifest.json"
            assert load_manifest(manifest).outputs == digests
            for name, digest in digests.items():
                assert hashlib.sha256(open(name, "rb").read()).hexdigest() == digest
            result = runner.invoke(main, ["replay", manifest, "--out-dir", "replayed"])
            assert result.exit_code == 0, result.output
            assert "MISMATCH" not in result.output

    def replay_manifest(self, runner, tmp_path, argv, edit, env=None):
        """Run argv in tmp_path, apply edit to its manifest's params, and replay it."""
        with runner.isolated_filesystem(temp_dir=tmp_path):
            assert runner.invoke(main, argv).exit_code == 0
            manifest = Path(f"{argv[argv.index('--out') + 1]}.manifest.json")
            doc = json.loads(manifest.read_text())
            edit(doc["params"])
            manifest.write_text(json.dumps(doc))
            result = runner.invoke(main, ["replay", str(manifest), "--out-dir", "replayed"],
                                   env=env)
            return result, sorted(p.name for p in Path("replayed").glob("*"))

    @pytest.mark.parametrize("argv, m", [
        (["simulate", "--engine", "infinite", "--alpha", ALPHA, "--beta", BETA, "--n", "20",
          "--seed", "1", "--out", "o.json"], -3),
        (["experiment", "--kind", "efficiency", "--alpha", ALPHA, "--beta", BETA, "--n", "20",
          "--reps", "1", "--sweep", "1", "--seed", "1", "--out", "t.csv"], -5),
    ], ids=["simulate", "experiment"])
    def test_worker_count_below_one_in_manifest_exits_2(self, runner, tmp_path, argv, m):
        # Neither the infinite engine nor the efficiency kind reads m; the
        # field table rejects it for replay as it does for flags.
        result, written = self.replay_manifest(
            runner, tmp_path, argv, lambda params: params.update(m=m))
        assert result.exit_code == 2
        assert result.output == f"error: worker count m must be >= 1, got {m}\n"
        assert written == []

    def test_experiment_manifest_without_defaulted_fields_replays(self, runner, tmp_path):
        # m, bins, engine and jobs fall back to the table's defaults; the
        # histogram reads m and bins, so other values would move the bytes.
        argv = ["experiment", "--kind", "pdf-histogram", "--alpha", ALPHA, "--beta", BETA,
                "--n", "20", "--reps", "3", "--seed", "1", "--out", "h.csv"]

        def drop(params):
            for key in ("m", "bins", "engine", "jobs"):
                del params[key]
        result, _ = self.replay_manifest(runner, tmp_path, argv, drop)
        assert result.exit_code == 0, result.output
        assert result.output.endswith("\nh.csv: match\n")

    def test_replay_seed_is_the_manifests_not_the_environment(self, runner, tmp_path):
        # Without params["seed"], only base_seed stands between the replay
        # and BLOCKSIM_SEED.
        argv = ["simulate", "--engine", "matrix", "--alpha", ALPHA, "--beta", BETA, "--m", "4",
                "--n", "50", "--seed", "2", "--out", "o.json"]
        result, _ = self.replay_manifest(runner, tmp_path, argv,
                                         lambda params: params.pop("seed"),
                                         env={"BLOCKSIM_SEED": "99"})
        assert result.exit_code == 0, result.output
        assert result.output.endswith("\no.json: match\n")

    @pytest.mark.parametrize("argv, outputs", [
        (["simulate", "--engine", "network", "--alpha", ALPHA, "--beta", BETA, "--m", "3",
          "--n", "30", "--seed", "2", "--out", "o.json", "--tree-out", "t.dot"],
         ["o.json", "t.dot"]),
        (["experiment", "--kind", "efficiency", "--alpha", ALPHA, "--beta", BETA, "--n", "20",
          "--reps", "2", "--sweep", "0.5,2", "--seed", "1", "--out", "e.csv"], ["e.csv"]),
    ], ids=["simulate", "experiment"])
    def test_replay_prints_what_the_command_printed(self, runner, tmp_path, argv, outputs):
        # Both commands: the recorded command's lines, with its outputs now
        # under --out-dir, then one verdict line per output.
        with runner.isolated_filesystem(temp_dir=tmp_path):
            recorded = runner.invoke(main, argv)
            assert recorded.exit_code == 0, recorded.output
            manifest = f"{argv[argv.index('--out') + 1]}.manifest.json"
            result = runner.invoke(main, ["replay", manifest, "--out-dir", "replayed"])
        assert result.exit_code == 0, result.output
        assert result.output == (recorded.output.replace("wrote ", "wrote replayed/")
                                 + "".join(f"{name}: match\n" for name in outputs))

    def test_unknown_tree_format_writes_nothing(self, runner, tmp_path):
        argv = ["simulate", "--engine", "network", "--alpha", ALPHA, "--beta", BETA,
                "--m", "3", "--n", "20", "--seed", "1", "--out", "o.json",
                "--tree-out", "tree.dot"]
        result, written = self.replay_manifest(
            runner, tmp_path, argv, lambda params: params.update(tree_format="svg"))
        assert result.exit_code == 2
        assert result.output == "error: unknown tree format 'svg' (use dot, json)\n"
        assert written == []

    def test_out_dir_that_is_a_file_exits_2(self, runner, tmp_path):
        runner.invoke(main, simulate_args(tmp_path, "--seed", "2"))
        out_dir = tmp_path / "file"
        out_dir.write_text("")
        result = runner.invoke(main, ["replay", str(tmp_path / "outcome.json.manifest.json"),
                                      "--out-dir", str(out_dir)])
        assert result.exit_code == 2
        assert result.output == f"error: cannot write {out_dir}/outcome.json: Not a directory\n"
        assert out_dir.read_text() == ""

    def test_tampered_manifest_fails(self, runner, tmp_path):
        runner.invoke(main, simulate_args(tmp_path, "--seed", "2"))
        manifest_path = tmp_path / "outcome.json.manifest.json"
        doc = json.loads(manifest_path.read_text())
        doc["outputs"]["outcome.json"] = "0" * 64
        manifest_path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["replay", str(manifest_path),
                                      "--out-dir", str(tmp_path / "replayed")])
        assert result.exit_code == 1
        assert "MISMATCH" in result.output

    def test_no_check_skips_comparison(self, runner, tmp_path):
        runner.invoke(main, simulate_args(tmp_path, "--seed", "2"))
        result = runner.invoke(main, [
            "replay", str(tmp_path / "outcome.json.manifest.json"),
            "--no-check", "--out-dir", str(tmp_path / "replayed")])
        assert result.exit_code == 0, result.output
        assert "re-created" in result.output


class TestMalformedManifest:
    def replay(self, runner, tmp_path, manifest_path):
        result = runner.invoke(main, ["replay", str(manifest_path),
                                      "--out-dir", str(tmp_path / "replayed")])
        assert result.exit_code == 2
        assert result.output.startswith("error:")
        assert len(result.output.strip().splitlines()) == 1
        return result.output

    def recorded(self, runner, tmp_path):
        runner.invoke(main, simulate_args(tmp_path, "--seed", "2"))
        path = tmp_path / "outcome.json.manifest.json"
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", ""])
    def test_not_a_manifest(self, runner, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        self.replay(runner, tmp_path, path)

    def test_missing_fields(self, runner, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": "0.1.0"}))
        output = self.replay(runner, tmp_path, path)
        assert "command" in output and "params" in output

    @pytest.mark.parametrize("base_seed", [None, "2", True])
    def test_base_seed_not_an_integer(self, runner, tmp_path, base_seed):
        path, doc = self.recorded(runner, tmp_path)
        doc["base_seed"] = base_seed
        path.write_text(json.dumps(doc))
        assert "base_seed must be an integer" in self.replay(runner, tmp_path, path)

    @pytest.mark.parametrize("name, value", [("outputs", ["outcome.json"]),
                                             ("params", "n=50")])
    def test_section_not_an_object(self, runner, tmp_path, name, value):
        path, doc = self.recorded(runner, tmp_path)
        doc[name] = value
        path.write_text(json.dumps(doc))
        output = self.replay(runner, tmp_path, path)
        assert output == f"error: manifest {path}: {name} must be a JSON object\n"
        assert not (tmp_path / "replayed").exists()

    def test_missing_params(self, runner, tmp_path):
        path, doc = self.recorded(runner, tmp_path)
        del doc["params"]["alpha"]
        path.write_text(json.dumps(doc))
        assert "alpha" in self.replay(runner, tmp_path, path)

    @pytest.mark.parametrize("field, value", [("version", "9.9.9"), ("schema_version", 99)])
    def test_version_mismatch_names_both(self, runner, tmp_path, field, value):
        path, doc = self.recorded(runner, tmp_path)
        doc[field] = value
        path.write_text(json.dumps(doc))
        output = self.replay(runner, tmp_path, path)
        recorded = f"blocksim {value}" if field == "version" else f"schema {value}"
        running = (f"blocksim {__version__}" if field == "version"
                   else f"schema {SCHEMA_VERSION}")
        assert recorded in output and running in output


class TestMalformedValues:
    def experiment_manifest(self, runner, tmp_path):
        runner.invoke(main, ["experiment", "--alpha", ALPHA, "--beta", BETA, "--n", "30",
                             "--seed", "1", "--kind", "single", "--reps", "2",
                             "--out", str(tmp_path / "t.csv")])
        path = tmp_path / "t.csv.manifest.json"
        return path, json.loads(path.read_text())

    def one_line_exit_2(self, result):
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error:")
        assert len(result.output.strip().splitlines()) == 1
        return result.output

    def replay(self, runner, tmp_path, path):
        return self.one_line_exit_2(runner.invoke(
            main, ["replay", str(path), "--out-dir", str(tmp_path / "replayed")]))

    def test_output_names_without_table(self, runner, tmp_path):
        path, doc = self.experiment_manifest(runner, tmp_path)
        doc["params"]["output_names"] = {"csv": "t.csv"}
        path.write_text(json.dumps(doc))
        assert "output_names lack table" in self.replay(runner, tmp_path, path)

    @pytest.mark.parametrize("name", ["../t.csv", "absolute", "", 3])
    def test_output_name_not_a_plain_file_name(self, runner, tmp_path, name):
        path, doc = self.experiment_manifest(runner, tmp_path)
        if name == "absolute":
            name = str(tmp_path / "elsewhere.csv")
        doc["params"]["output_names"] = {"table": name}
        path.write_text(json.dumps(doc))
        assert "plain file name" in self.replay(runner, tmp_path, path)

    @pytest.mark.parametrize("sweep", [3, {"a": 1}, [1, "x"]])
    def test_sweep_not_a_list_of_numbers(self, runner, tmp_path, sweep):
        path, doc = self.experiment_manifest(runner, tmp_path)
        doc["params"]["sweep"] = sweep
        path.write_text(json.dumps(doc))
        assert "sweep" in self.replay(runner, tmp_path, path)

    @pytest.mark.parametrize("kind, sweep", [("convergence", [True, 2]),
                                             ("efficiency", [False, 1])])
    def test_boolean_in_sweep_from_config_or_manifest(self, runner, tmp_path, kind, sweep):
        # true once ran a convergence row at m=1, and false an efficiency
        # row at ratio 0, both ending in exit 0.
        message = f"error: sweep must be a list of numbers, got {sweep!r}\n"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": kind, "alpha": ALPHA, "beta": BETA, "n": 30,
                                      "reps": 2, "sweep": sweep}))
        assert self.one_line_exit_2(runner.invoke(main, [
            "experiment", "--config", str(config), "--out", str(tmp_path / "c.csv")])) == message
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
        manifest, doc = self.experiment_manifest(runner, tmp_path)
        doc["params"].update(kind=kind, sweep=sweep)
        manifest.write_text(json.dumps(doc))
        assert self.replay(runner, tmp_path, manifest) == message
        assert not (tmp_path / "replayed").exists()

    @pytest.mark.parametrize("field, value", [("engine", ["x"]), ("kind", ["x"]),
                                              ("alpha", 5)])
    def test_manifest_field_of_wrong_type(self, runner, tmp_path, field, value):
        path, doc = self.experiment_manifest(runner, tmp_path)
        doc["params"][field] = value
        path.write_text(json.dumps(doc))
        self.replay(runner, tmp_path, path)

    def test_manifest_accepts_config_file_forms(self, runner, tmp_path):
        # A manifest's params are read as a config file is: a spec string
        # and a comma-separated sweep replay to the bytes of the recorded
        # object and list.
        out = tmp_path / "e.csv"
        runner.invoke(main, ["experiment", "--kind", "efficiency", "--alpha", ALPHA,
                             "--beta", BETA, "--n", "30", "--reps", "2", "--sweep", "0.1,2",
                             "--seed", "1", "--out", str(out)])
        path = tmp_path / "e.csv.manifest.json"
        doc = json.loads(path.read_text())
        assert (doc["params"]["alpha"], doc["params"]["sweep"]) == (
            {"kind": "exponential", "mean": 1.0}, [0.1, 2.0])
        doc["params"].update(alpha="exp:1", sweep="0.1,2")
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["replay", str(path),
                                      "--out-dir", str(tmp_path / "replayed")])
        assert result.exit_code == 0, result.output
        assert "e.csv: match" in result.output
        assert (tmp_path / "replayed" / "e.csv").read_bytes() == out.read_bytes()

    def test_unknown_simulate_engine_from_config_or_manifest(self, runner, tmp_path):
        # The field table checks the engine; simulate would otherwise take
        # any name but network and infinite for matrix.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"engine": "warp", "alpha": ALPHA, "beta": BETA,
                                    "n": 20, "m": 3}))
        output = self.one_line_exit_2(runner.invoke(main, [
            "simulate", "--config", str(path), "--out", str(tmp_path / "o.json")]))
        assert output == "error: unknown engine 'warp' (use network, matrix, infinite)\n"
        runner.invoke(main, simulate_args(tmp_path, "--seed", "2"))
        manifest = tmp_path / "outcome.json.manifest.json"
        doc = json.loads(manifest.read_text())
        doc["params"]["engine"] = "warp"
        manifest.write_text(json.dumps(doc))
        assert self.replay(runner, tmp_path, manifest) == output

    @pytest.mark.parametrize("field, value, message", [
        ("kind", "scatter", "error: unknown experiment kind 'scatter' "
                            "(use convergence, efficiency, pdf_histogram, single)\n"),
        ("engine", "warp", "error: unknown engine 'warp' (use network, matrix, infinite)\n")],
        ids=["kind", "engine"])
    def test_unknown_experiment_name_from_config_or_manifest(self, runner, tmp_path,
                                                             field, value, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"kind": "single", "alpha": ALPHA, "beta": BETA,
                                    "n": 30, "reps": 2, field: value}))
        output = self.one_line_exit_2(runner.invoke(main, [
            "experiment", "--config", str(path), "--out", str(tmp_path / "c.csv")]))
        assert output == message
        manifest, doc = self.experiment_manifest(runner, tmp_path)
        doc["params"][field] = value
        manifest.write_text(json.dumps(doc))
        assert self.replay(runner, tmp_path, manifest) == message

    def test_manifest_command_not_a_string(self, runner, tmp_path):
        path, doc = self.experiment_manifest(runner, tmp_path)
        doc["command"] = ["experiment"]
        path.write_text(json.dumps(doc))
        assert "command must be a string" in self.replay(runner, tmp_path, path)

    @pytest.mark.parametrize("field, value", [("engine", ["x"]), ("kind", ["x"]),
                                              ("sweep", 3), ("sweep", True)])
    def test_config_field_of_wrong_type(self, runner, tmp_path, field, value):
        doc = {"kind": "single", "alpha": ALPHA, "beta": BETA, "n": 30, "reps": 2,
               field: value}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        output = self.one_line_exit_2(runner.invoke(main, [
            "experiment", "--config", str(path), "--out", str(tmp_path / "t.csv")]))
        assert repr(value) in output


class TestRunFailures:
    """A run that fails on valid input (out of memory, a dead pool worker)
    exits 3 with one ``error:`` line and writes no file; any other
    exception is a bug and keeps its traceback."""

    @pytest.fixture
    def forking_pool(self, monkeypatch):
        """Real pool workers, forked, so they see the patched engine."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("workers see the patched engine only when forked")
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", lambda max_workers: (
            ProcessPoolExecutor(max_workers, mp_context=multiprocessing.get_context("fork"))))

    @staticmethod
    def patch_engine(monkeypatch, fail):
        def engine(config):
            fail()
        monkeypatch.setitem(montecarlo.ENGINES, "matrix", engine)

    @staticmethod
    def experiment(runner, tmp_path, jobs):
        return runner.invoke(main, [
            "experiment", "--kind", "single", "--engine", "matrix", "--alpha", ALPHA,
            "--beta", BETA, "--n", "30", "--m", "4", "--reps", "4", "--jobs", str(jobs),
            "--out", str(tmp_path / "t.csv")])

    @staticmethod
    def one_line_exit_3(result, tmp_path) -> str:
        assert result.exit_code == 3, result.output
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: ")
        assert list(tmp_path.iterdir()) == []  # neither the output nor a manifest
        return result.stderr

    @pytest.mark.parametrize("message, line", [("Unable to allocate 229. MiB", None),
                                               ("", "MemoryError")], ids=["numpy", "bare"])
    def test_simulate_out_of_memory(self, runner, tmp_path, monkeypatch, message, line):
        def fail():
            raise MemoryError(message)
        self.patch_engine(monkeypatch, fail)
        stderr = self.one_line_exit_3(runner.invoke(main, simulate_args(tmp_path)), tmp_path)
        assert stderr == f"error: {line or message}\n"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_experiment_out_of_memory(self, runner, tmp_path, monkeypatch, forking_pool, jobs):
        def fail():
            raise MemoryError("Unable to allocate 229. MiB")
        self.patch_engine(monkeypatch, fail)
        stderr = self.one_line_exit_3(self.experiment(runner, tmp_path, jobs), tmp_path)
        assert stderr == "error: set 0, replication 0 failed: Unable to allocate 229. MiB\n"

    def test_dead_pool_worker(self, runner, tmp_path, monkeypatch, forking_pool):
        self.patch_engine(monkeypatch, lambda: os._exit(1))
        stderr = self.one_line_exit_3(self.experiment(runner, tmp_path, 2), tmp_path)
        assert "terminated abruptly" in stderr

    def test_other_exceptions_keep_their_traceback(self, runner, tmp_path, monkeypatch):
        def fail():
            raise InvariantError("scan disagrees")
        self.patch_engine(monkeypatch, fail)
        result = runner.invoke(main, simulate_args(tmp_path))
        assert result.exit_code == 1
        assert isinstance(result.exception, InvariantError)
        result = self.experiment(runner, tmp_path, 1)
        assert result.exit_code == 1
        assert type(result.exception) is RuntimeError
        assert str(result.exception) == "set 0, replication 0 failed: scan disagrees"
        assert list(tmp_path.iterdir()) == []


class TestStartup:
    """The CLI loads OpenBLAS with one thread unless the caller chose a
    count; a library import leaves the environment alone."""

    @staticmethod
    def run(script, **env):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**{k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"},
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               **env}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().splitlines()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_cli_starts_no_blas_threads(self):
        # Both numpy's OpenBLAS and scipy's, which the gamma ufuncs load.
        assert self.run(
            "import os, blocksim.cli\n"
            "from blocksim import distributions\n"
            "distributions._gamma_ufuncs()\n"
            "print(len(os.listdir('/proc/self/task')))\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))") == ["1", "1"]

    def test_callers_value_wins(self):
        assert self.run("import os, blocksim.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])",
                        OPENBLAS_NUM_THREADS="3") == ["3"]

    def test_library_import_leaves_the_environment_alone(self):
        assert self.run("import os, blocksim.network\n"
                        "print(os.environ.get('OPENBLAS_NUM_THREADS'))") == ["None"]


class TestVersion:
    def test_version_flag(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "blocksim" in result.output
