"""Tests of the benchmark itself: every output check rejects a corrupted
output, and a tiny-size run of every workload completes end to end.

    python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The files each tiny workload command writes, and its stdout."""
    base = tmp_path_factory.mktemp("outputs")
    found = {}
    for name in workloads.NAMES:
        cmd = workloads.command(name, SEED, "tiny")
        rec = run.run_blocksim(cmd.argv, base / name)
        assert rec.exit_code == 0, rec.stderr
        found[name] = {f: (base / name / f).read_text() for f in cmd.outputs}
        found[name]["stdout"] = rec.stdout
    return found


def params(workload):
    return workloads.params(workload, SEED, "tiny")


TINY = workloads.SCALES["tiny"]


def replace_cell(table, row, column, value):
    lines = table.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def cell(table, row, column):
    lines = table.splitlines()
    return lines[row + 1].split(",")[lines[0].split(",").index(column)]


# -- efficiency-sweep -------------------------------------------------------


def test_efficiency_table_passes(outputs):
    assert checks.check_efficiency(outputs["efficiency-sweep"]["efficiency.csv"],
                                   TINY.eff_n) == []


@pytest.mark.parametrize("row, column, value", [
    (7, "predicted_p", "0.5"),
    (7, "beta_mean", "0.02"),
    (7, "abs_error", "0.0"),
    (3, "ratio", "0.0015"),
    (30, "mean_p", "1.5"),
    (40, "mean_p", "0.99"),       # rises along the grid
    (1, "mean_p", "0.9"),         # far from 1/(1+ratio) at a small ratio
])
def test_efficiency_corruption_fails(outputs, row, column, value):
    table = outputs["efficiency-sweep"]["efficiency.csv"]
    assert checks.check_efficiency(replace_cell(table, row, column, value), TINY.eff_n)


def test_efficiency_missing_row_fails(outputs):
    lines = outputs["efficiency-sweep"]["efficiency.csv"].splitlines()
    del lines[5]
    assert checks.check_efficiency("\n".join(lines) + "\n", TINY.eff_n)


# -- convergence-sweep ------------------------------------------------------


def test_convergence_table_passes(outputs):
    table = outputs["convergence-sweep"]["convergence.csv"]
    assert checks.check_convergence(table, TINY.conv_reps, TINY.conv_tolerance) == []
    assert checks.convergence_row_by_network(table, params("convergence-sweep"), 10) == []


@pytest.mark.parametrize("row, column, value", [
    (0, "mean_p", "0.99"),        # m=1 never forks
    (0, "q25", "0.98"),
    (9, "mean_p", "0.2"),         # m=1000 far from inf
    (10, "mean_p", "0.99"),       # inf far from m=1000
    (3, "replications", "3"),
])
def test_convergence_corruption_fails(outputs, row, column, value):
    table = outputs["convergence-sweep"]["convergence.csv"]
    bad = replace_cell(table, row, column, value)
    assert checks.check_convergence(bad, TINY.conv_reps, TINY.conv_tolerance)


def test_convergence_row_order_fails(outputs):
    lines = outputs["convergence-sweep"]["convergence.csv"].splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    bad = "\n".join(lines) + "\n"
    assert checks.check_convergence(bad, TINY.conv_reps, TINY.conv_tolerance)


def test_convergence_row_against_network_fails(outputs):
    table = outputs["convergence-sweep"]["convergence.csv"]
    mean = float(cell(table, 3, "mean_p"))
    bad = replace_cell(table, 3, "mean_p", repr(mean + 1e-6))
    assert checks.convergence_row_by_network(bad, params("convergence-sweep"), 10)


# -- network-tree -----------------------------------------------------------


def network_files(outputs):
    out = outputs["network-tree"]
    return out["outcome.json"], out["tree.json"], out["series.json"]


def test_network_tree_passes(outputs):
    outcome, tree, series = network_files(outputs)
    assert checks.check_network_tree(outcome, tree, series, TINY.net_m, TINY.net_n) == []
    assert checks.network_tree_by_matrix(outcome, params("network-tree")) == []


def corrupt_tree(tree, key, index, change):
    doc = json.loads(tree)
    doc[key][index] = change(doc[key][index])
    return json.dumps(doc)


@pytest.mark.parametrize("key, index, change", [
    ("parents", 200, lambda p: 0),
    ("parents", 10, lambda p: 10_000),
    ("times", 100, lambda t: t - 1000.0),
    ("producers", 50, lambda w: TINY.net_m),
])
def test_network_tree_corruption_fails(outputs, key, index, change):
    outcome, tree, series = network_files(outputs)
    bad = corrupt_tree(tree, key, index, change)
    assert checks.check_network_tree(outcome, bad, series, TINY.net_m, TINY.net_n)


def test_network_series_and_outcome_corruption_fails(outputs):
    outcome, tree, series = network_files(outputs)
    doc = json.loads(series)
    doc["height_series"][-1] += 1
    assert checks.check_network_tree(outcome, tree, json.dumps(doc),
                                     TINY.net_m, TINY.net_n)
    out = json.loads(outcome)
    out["height"] += 1
    out["p_n"] = out["height"] / out["n"]
    bad = json.dumps(out)
    assert checks.check_network_tree(bad, tree, series, TINY.net_m, TINY.net_n)
    assert checks.network_tree_by_matrix(bad, params("network-tree"))


# -- validate-full ----------------------------------------------------------


def test_validate_output_passes(outputs):
    assert checks.check_validate(outputs["validate-full"]["stdout"], 0) == []


def test_validate_fail_line_fails(outputs):
    stdout = outputs["validate-full"]["stdout"]
    bad = stdout.replace("[ok] pruning_exactness", "[FAIL] pruning_exactness")
    assert bad != stdout
    assert checks.check_validate(bad, 0)
    assert checks.check_validate(stdout, 1)


def test_inject_fault_check():
    stdout = "[FAIL] engine_equivalence: 3/23 configs disagree\n"
    assert checks.check_inject_fault(stdout, 1) == []
    assert checks.check_inject_fault(stdout, 0)
    assert checks.check_inject_fault("[ok] engine_equivalence: 23 configs\n", 1)


# -- trace arithmetic -------------------------------------------------------


def test_self_time_subtracts_children():
    doc = {"names": ["cli.command", "infinite.simulate_infinite", "rng.uniforms"],
           "span_name": [0, 1, 2, 1], "start": [0.0, 1.0, 1.5, 5.0],
           "end": [10.0, 4.0, 2.0, 6.0], "parent": [-1, 0, 1, 0], "counts": {}}
    totals = spans.span_totals(doc)
    assert totals["cli.command"]["self_s"] == pytest.approx(6.0)
    assert totals["infinite.simulate_infinite"]["total_s"] == pytest.approx(4.0)
    assert totals["infinite.simulate_infinite"]["self_s"] == pytest.approx(3.5)
    assert spans.layer_metrics(doc)["rng.self_s"] == pytest.approx(0.5)


def test_pooled_trace_takes_montecarlo_self_time_from_serial_run():
    def trace(wait, own):
        # run_replications spans [0, wait]; the serial run's engine is a child.
        names = ["montecarlo.run_replications", "infinite.simulate_infinite"]
        if own is None:
            return {"names": names[:1], "span_name": [0], "start": [0.0],
                    "end": [wait], "parent": [-1], "counts": {}}
        return {"names": names, "span_name": [0, 1], "start": [0.0, own],
                "end": [wait, wait], "parent": [-1, 0], "counts": {}}

    metrics, unseen = spans.merge_pool_run(trace(5.0, None), trace(8.0, 0.25))
    assert metrics["montecarlo.pool_wait_s"] == pytest.approx(5.0)
    assert metrics["montecarlo.self_s"] == pytest.approx(0.25)
    assert metrics["infinite.self_s"] == pytest.approx(7.75)
    assert unseen == ["infinite.simulate_infinite"]


def test_importtime_counts_each_package_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         numpy.core",
        "import time:       200 |        300 |       numpy",
        "import time:        50 |         50 |         numpy.testing",
        "import time:       400 |        450 |       scipy.special",
        "import time:        10 |        760 |     blocksim.distributions",
        "import time:        30 |        790 |   blocksim",
        "import time:        20 |         20 |   click",
        "import time:        10 |        820 | blocksim.cli",
    ])
    got = spans.importtime_metrics(stderr)
    assert got == pytest.approx({"setup.import_numpy_s": 300e-6,
                                 "setup.import_scipy_s": 450e-6,
                                 "setup.import_click_s": 20e-6,
                                 "setup.import_blocksim_s": 820e-6})


# -- end to end at tiny sizes -----------------------------------------------


def bench(tmp_path, workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                         "--trace", str(trace), "--scale", "tiny",
                         "--out-dir", str(tmp_path)])
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_completes(tmp_path, workload):
    result = bench(tmp_path, workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_ROUNDS + 1
    assert set(result["metrics"]) == {"wall_s", "blocks_per_s", "cpu_s",
                                      "peak_rss_mb", "setup_s"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_sees_pool_and_engine(tmp_path):
    result = bench(tmp_path, "efficiency-sweep", 1)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["montecarlo.pools_started"] == workloads.RATIO_POINTS
    assert metrics["infinite.runs"] == workloads.RATIO_POINTS * TINY.eff_reps
    report = json.loads((tmp_path / "efficiency-sweep" / "trace-report.json").read_text())
    assert "infinite.simulate_infinite" in report["unseen_in_pool_workers"]
    assert report["engine_blocks"] == workloads.blocks("efficiency-sweep", SEED, "tiny")


def test_tiny_traced_validate_counts_the_blocks_it_claims(tmp_path):
    # blocks_per_s of validate-full rests on re-drawing the suites' sizes.
    result = bench(tmp_path, "validate-full", 1)
    assert result["correct"] and result["failed"] == 0
    report = json.loads((tmp_path / "validate-full" / "trace-report.json").read_text())
    assert report["engine_blocks"] == workloads.blocks("validate-full", SEED, "tiny")


def test_failed_replay_is_a_problem(tmp_path):
    bench_run = run.Run("network-tree", SEED, "tiny", tmp_path)
    assert len(bench_run.timed(0, min_rounds=1)) == 1
    manifest = tmp_path / "run" / bench_run.cmd["manifest"]
    doc = json.loads(manifest.read_text())
    doc["outputs"]["tree.json"] = "0" * 64
    manifest.write_text(json.dumps(doc))
    bench_run.check_replay()
    assert "replay exited 1" in bench_run.problems
    assert bench_run.failures
