"""Output checks for the benchmark workloads.

Each check returns a list of problems, empty when the output is right.
None compares against a stored copy of earlier output: each value is
either recomputed here, or tested for a property the model guarantees.
The checks that re-run an engine import blocksim; the rest read text.

    python3 bench/checks.py WORKLOAD SEED SCALE RUN_DIR

checks the outputs a workload's command left in RUN_DIR and prints the
problems found as one JSON list.
The benchmark runs it in a process of its own, so that re-running an
engine does not grow the process that starts the timed commands.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

import workloads
from workloads import WORKER_SWEEP

# Standard errors a sweep value may stray before a check calls it wrong.
SE_MULTIPLE = 5.0
# Sweep point re-run on the event-driven engine in the convergence check.
NETWORK_CHECK_M = 10


def _rows(table: str) -> tuple[list[str], list[dict]]:
    reader = csv.DictReader(io.StringIO(table))
    return list(reader.fieldnames or []), list(reader)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def ratio_grid() -> tuple[float, ...]:
    import numpy as np

    return tuple(float(r) for r in np.logspace(-3.0, 2.0, workloads.RATIO_POINTS))


def check_efficiency(table: str, n: int) -> list[str]:
    """The efficiency table over the 51-point ratio grid, production mean 1."""
    grid = ratio_grid()
    columns, rows = _rows(table)
    want = ["ratio", "alpha_mean", "beta_mean", "mean_p", "std_err",
            "predicted_p", "abs_error"]
    if columns != want:
        return [f"efficiency columns {columns}, expected {want}"]
    if len(rows) != len(grid):
        return [f"efficiency table has {len(rows)} rows, expected {len(grid)}"]
    problems = []
    prev = None
    for i, (row, ratio) in enumerate(zip(rows, grid)):
        r = {k: float(v) for k, v in row.items()}
        if r["ratio"] != ratio:
            problems.append(f"row {i}: ratio {r['ratio']!r}, grid has {ratio!r}")
        predicted = 1.0 / (1.0 + ratio)
        for key, value in (("alpha_mean", 1.0), ("beta_mean", ratio),
                           ("predicted_p", predicted),
                           ("abs_error", abs(r["mean_p"] - predicted))):
            if not _close(r[key], value):
                problems.append(f"row {i}: {key}={r[key]!r}, recomputed {value!r}")
        if not 0.0 < r["mean_p"] <= 1.0:
            problems.append(f"row {i}: mean_p={r['mean_p']!r} outside (0, 1]")
        if r["std_err"] < 0.0:
            problems.append(f"row {i}: negative std_err {r['std_err']!r}")
        # p_n moves in steps of 1/n, so allow one step beyond the noise.
        if ratio <= 0.01:
            slack = SE_MULTIPLE * r["std_err"] + 1.0 / n
            if abs(r["mean_p"] - predicted) > slack:
                problems.append(f"row {i}: mean_p={r['mean_p']!r} is more than "
                                f"{slack:.3g} from 1/(1+ratio)={predicted!r}")
        if prev is not None:
            slack = SE_MULTIPLE * math.hypot(prev["std_err"], r["std_err"]) + 1.0 / n
            if r["mean_p"] - prev["mean_p"] > slack:
                problems.append(f"row {i}: mean_p rises from {prev['mean_p']!r} to "
                                f"{r['mean_p']!r} along the grid")
        prev = r
    return problems


def check_convergence(table: str, replications: int, tolerance: float) -> list[str]:
    """The convergence table over the default worker sweep plus ``inf``."""
    columns, rows = _rows(table)
    want = ["m", "mean_p", "q25", "q75", "replications"]
    if columns != want:
        return [f"convergence columns {columns}, expected {want}"]
    labels = [row["m"] for row in rows]
    expected = [str(m) for m in WORKER_SWEEP] + ["inf"]
    if labels != expected:
        return [f"convergence rows {labels}, expected {expected}"]
    problems = []
    by_m = {}
    for row in rows:
        r = {k: float(v) for k, v in row.items() if k != "m"}
        by_m[row["m"]] = r
        if int(r["replications"]) != replications:
            problems.append(f"m={row['m']}: {row['replications']} replications, "
                            f"expected {replications}")
        if not (0.0 < r["q25"] <= r["q75"] <= 1.0 and 0.0 < r["mean_p"] <= 1.0):
            problems.append(f"m={row['m']}: values out of order or range: {row}")
    one = by_m["1"]
    if (one["mean_p"], one["q25"], one["q75"]) != (1.0, 1.0, 1.0):
        problems.append(f"m=1 row is {one}; a single worker never forks, "
                        "so every statistic must be exactly 1.0")
    for m in ("500", "1000"):
        gap = abs(by_m[m]["mean_p"] - by_m["inf"]["mean_p"])
        if gap > tolerance:
            problems.append(f"m={m}: mean_p {by_m[m]['mean_p']!r} is {gap:.4f} from "
                            f"the inf row, above the tolerance {tolerance}")
    return problems


def convergence_row_by_network(table: str, params: dict, m: int) -> list[str]:
    """Re-run sweep point ``m`` on the event-driven engine.

    ``params`` is the manifest's parameter record.  Every replication of
    the point is re-run under its derived seed with ``simulate_network``,
    an implementation independent of the matrix engine that wrote the
    table, and the row's mean and quartiles must come out the same.
    """
    import numpy as np
    from blocksim.distributions import spec_from_dict
    from blocksim.network import NetSimConfig, simulate_network
    from blocksim.rng import mix64

    index = WORKER_SWEEP.index(m)
    point_seed = mix64(int(params["seed"]), index)
    values = []
    for r in range(int(params["replications"])):
        cfg = NetSimConfig(m=m, n=int(params["n"]),
                           alpha=spec_from_dict(params["alpha"]),
                           beta=spec_from_dict(params["beta"]),
                           seed=mix64(point_seed, r), record_tree=False)
        values.append(simulate_network(cfg).proportion)
    arr = np.asarray(values)
    want = {"mean_p": float(arr.mean())}
    want["q25"], want["q75"] = (float(q) for q in np.quantile(arr, (0.25, 0.75)))
    row = next(r for r in _rows(table)[1] if r["m"] == str(m))
    return [f"m={m}: {key}={row[key]} but the network engine gives {value!r}"
            for key, value in want.items() if not _close(float(row[key]), value)]


def tree_depths(parents: list[int]) -> list[int]:
    """Node-count depth of every block from the parents array; origin is 1."""
    depths = [1]
    for k, p in enumerate(parents, start=1):
        if not 0 <= p < k:
            raise ValueError(f"block {k} has parent {p}, not an earlier block")
        depths.append(depths[p] + 1)
    return depths


def check_network_tree(outcome: str, tree: str, series: str, m: int, n: int) -> list[str]:
    """The network engine's outcome, JSON tree and height series agree."""
    out = json.loads(outcome)
    doc = json.loads(tree)
    heights = json.loads(series)["height_series"]
    parents, producers, times = doc["parents"], doc["producers"], doc["times"]
    problems = []
    if len(times) != n or len(parents) != n - 1 or len(producers) != n - 1:
        return [f"tree sizes {len(times)}/{len(parents)}/{len(producers)} "
                f"do not fit n={n}"]
    try:
        depths = tree_depths(parents)
    except ValueError as exc:
        return [str(exc)]
    if depths != heights:
        first = next(k for k, (a, b) in enumerate(zip(depths, heights)) if a != b)
        problems.append(f"block {first}: depth {depths[first]} from the parents, "
                        f"{heights[first]} in the height series")
    if max(depths) != out["height"]:
        problems.append(f"height {out['height']} but the deepest block has depth "
                        f"{max(depths)}")
    if out["n"] != n or out["p_n"] != out["height"] / n:
        problems.append(f"p_n={out['p_n']!r} is not height/n={out['height']}/{n}")
    if times[0] != 0.0 or any(b <= a for a, b in zip(times, times[1:])):
        problems.append("block times do not start at 0 and strictly increase")
    if any(not 0 <= w < m for w in producers):
        problems.append(f"a producer lies outside [0, {m})")
    return problems


def network_tree_by_matrix(outcome: str, params: dict) -> list[str]:
    """The matrix engine under the same seed gives the network's p_n."""
    from blocksim.distributions import spec_from_dict
    from blocksim.matrix import simulate_matrix
    from blocksim.network import NetSimConfig

    cfg = NetSimConfig(m=int(params["m"]), n=int(params["n"]),
                       alpha=spec_from_dict(params["alpha"]),
                       beta=spec_from_dict(params["beta"]),
                       seed=int(params["seed"]), record_tree=False)
    got = simulate_matrix(cfg).proportion
    want = json.loads(outcome)["p_n"]
    return [] if got == want else [f"matrix engine gives p_n={got!r}, network {want!r}"]


SUITES = ("engine_equivalence", "pruning_exactness", "mixture_cdf_bound")


def check_validate(stdout: str, exit_code: int) -> list[str]:
    """``blocksim validate`` passes: exit 0 and one [ok] line per suite."""
    problems = [] if exit_code == 0 else [f"validate exited {exit_code}"]
    lines = stdout.splitlines()
    marks = [line.split(":", 1)[0] for line in lines]
    want = [f"[ok] {suite}" for suite in SUITES]
    if marks != want:
        problems.append(f"validate printed {marks}, expected {want}")
    return problems


def check_inject_fault(stdout: str, exit_code: int) -> list[str]:
    """``validate --quick --inject-fault`` must catch the injected fault."""
    problems = [] if exit_code == 1 else [f"validate --inject-fault exited {exit_code}, "
                                          "expected 1"]
    if not stdout.startswith("[FAIL] engine_equivalence"):
        problems.append("the equivalence suite did not report the injected fault")
    return problems


def verify(workload: str, seed: int, scale: str, run_dir: Path) -> list[str]:
    """Every check of the outputs one workload command left in ``run_dir``."""
    p = workloads.params(workload, seed, scale)
    sizes = workloads.SCALES[scale]
    if workload == "efficiency-sweep":
        table = (run_dir / "efficiency.csv").read_text()
        return check_efficiency(table, p["n"])
    if workload == "convergence-sweep":
        table = (run_dir / "convergence.csv").read_text()
        return (check_convergence(table, p["replications"], sizes.conv_tolerance)
                + convergence_row_by_network(table, p, NETWORK_CHECK_M))
    if workload == "network-tree":
        outcome, tree, series = ((run_dir / name).read_text()
                                 for name in ("outcome.json", "tree.json", "series.json"))
        return (check_network_tree(outcome, tree, series, m=p["m"], n=p["n"])
                + network_tree_by_matrix(outcome, p))
    return check_validate((run_dir / ".stdout").read_text(), 0)


if __name__ == "__main__":
    workload, seed, scale, run_dir = sys.argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(json.dumps(verify(workload, int(seed), scale, Path(run_dir))))
