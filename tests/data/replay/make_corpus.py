"""Write the replay corpus: the manifests of a few tiny CLI commands.

Run it from the repository root with the package to record on the path:

    PYTHONPATH=src python tests/data/replay/make_corpus.py

Each command runs in a temporary directory and only its manifest is
kept, as ``<name>.json`` beside this script: ``replay`` recomputes every
output from the manifest alone.  A manifest already in the corpus is
never rewritten, so a change that moves output bytes adds commands here
under new names and leaves the old manifests as they are.
"""

import json
import shutil
import sys
from pathlib import Path

from click.testing import CliRunner

from blocksim.cli import main

CORPUS = Path(__file__).resolve().parent

# name -> argv; every command writes its manifest to manifest.json.
SIM = ["simulate", "--alpha", "exp:1", "--n", "60", "--out", "outcome.json"]
EXP = ["experiment", "--alpha", "exp:1", "--beta", "exp:0.5", "--n", "40",
       "--out", "table.csv"]
COMMANDS = {
    "simulate-network-json-tree": SIM + [
        "--engine", "network", "--beta", "exp:0.5", "--m", "4", "--seed", "11",
        "--tree-out", "tree.json", "--tree-format", "json"],
    # Spans several 4,096-value export slices and 64 KiB write slices.
    "simulate-network-json-tree-large": [
        "simulate", "--alpha", "exp:1", "--n", "12000", "--out", "outcome.json",
        "--engine", "network", "--beta", "exp:0.5", "--m", "100", "--seed", "16",
        "--tree-out", "tree.json", "--tree-format", "json", "--series-out", "series.json"],
    "simulate-network-dot-tree-series": SIM + [
        "--engine", "network", "--beta", "gamma:2:0.5", "--m", "5", "--seed", "12",
        "--tree-out", "tree.dot", "--series-out", "series.json"],
    "simulate-matrix-series": SIM + [
        "--engine", "matrix", "--beta", "chi2:3", "--m", "6", "--seed", "13",
        "--series-out", "series.json"],
    "simulate-infinite-series": SIM + [
        "--engine", "infinite", "--beta", "const:0.7", "--seed", "14",
        "--series-out", "series.json"],
    "simulate-config-file": [
        "simulate", "--config", "config.json", "--out", "outcome.json"],
    "experiment-convergence": EXP + [
        "--kind", "convergence", "--sweep", "1,3,8", "--reps", "3", "--seed", "21"],
    "experiment-efficiency": EXP + [
        "--kind", "efficiency", "--sweep", "0.01,1,5", "--reps", "3", "--seed", "22"],
    # Pooled: 7 replications per sweep point, so pool chunks end inside a set.
    "experiment-convergence-jobs2": EXP + [
        "--kind", "convergence", "--sweep", "1,3,8", "--reps", "7", "--seed", "27",
        "--jobs", "2"],
    "experiment-efficiency-jobs2": EXP + [
        "--kind", "efficiency", "--sweep", "0.01,1,5", "--reps", "7", "--seed", "28",
        "--jobs", "2"],
    "experiment-pdf-histogram": EXP + [
        "--kind", "pdf-histogram", "--m", "5", "--reps", "20", "--bins", "4",
        "--seed", "23"],
    "experiment-single-network": EXP + [
        "--kind", "single", "--engine", "network", "--m", "4", "--reps", "3", "--seed", "24"],
    "experiment-single-matrix": EXP + [
        "--kind", "single", "--engine", "matrix", "--m", "4", "--reps", "3", "--seed", "25"],
    "experiment-single-infinite": EXP + [
        "--kind", "single", "--engine", "infinite", "--reps", "3", "--seed", "26"],
}
# The config file of simulate-config-file, with distributions as objects.
CONFIG = {"engine": "matrix", "m": 3, "n": 50, "seed": 15,
          "alpha": {"kind": "gamma", "mean": 1.0, "shape": 2.0},
          "beta": {"kind": "exponential", "mean": 0.3}}


def record(name: str, argv: list[str], runner: CliRunner) -> None:
    target = CORPUS / f"{name}.json"
    if target.exists():
        print(f"kept {target.name}")
        return
    with runner.isolated_filesystem():
        Path("config.json").write_text(json.dumps(CONFIG))
        result = runner.invoke(main, argv + ["--manifest", "manifest.json"])
        if result.exit_code != 0:
            sys.exit(f"{name}: exit {result.exit_code}\n{result.output}")
        shutil.copyfile("manifest.json", target)
    print(f"wrote {target.name}")


if __name__ == "__main__":
    runner = CliRunner()
    for name, argv in COMMANDS.items():
        record(name, argv, runner)
