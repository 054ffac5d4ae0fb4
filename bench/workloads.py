"""The four benchmark workloads: the blocksim command each one runs.

Every workload turns the benchmark's ``--seed`` into one program seed and
passes the program only generated flags.  All workloads use exponential
production with mean 1 (``exp:1``); the delay distribution is exponential
too, so its mean is the delay/production ratio.

Two scales exist.  ``full`` is what the benchmark measures; ``tiny``
runs the same commands at sizes that finish in about a second, for the
benchmark's own tests.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

NAMES = ("efficiency-sweep", "convergence-sweep", "network-tree", "validate-full")

# The program's default sweeps, restated here so the checks do not take
# them from the program they check: 51 log-spaced delay/production
# ratios from 1e-3 to 1e2, and these worker counts.
RATIO_POINTS = 51
WORKER_SWEEP = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

ALPHA = "exp:1"


@dataclass(frozen=True)
class Sizes:
    eff_n: int
    eff_reps: int
    conv_n: int
    conv_reps: int
    # Largest |mean_p(m) - mean_p(inf)| allowed for m in {500, 1000}.
    conv_tolerance: float
    net_m: int
    net_n: int
    validate_quick: bool


SCALES = {
    # conv_tolerance: at n=4000 and 6 replications, one run's p_n has a
    # standard deviation near 0.009 at ratio 1, so the difference of two
    # means has about 0.0052; 0.025 is 4.8 of those.
    "full": Sizes(eff_n=2000, eff_reps=40, conv_n=4000, conv_reps=6,
                  conv_tolerance=0.025, net_m=100, net_n=40000,
                  validate_quick=False),
    "tiny": Sizes(eff_n=100, eff_reps=4, conv_n=200, conv_reps=4,
                  conv_tolerance=0.15, net_m=10, net_n=500,
                  validate_quick=True),
}


def program_seed(workload: str, seed: int, scale: str = "full") -> int:
    """The ``--seed`` handed to blocksim for this workload and benchmark seed.

    The validation suites draw their config sizes from the seed, so the
    work of one ``validate`` varies by about 8% between seeds.  Its seed is
    re-drawn until the suites' block count and naive-scan pairs are both
    within 1% of their medians: the seed changes which configs run, but
    not how much work they are.
    """
    draw = random.Random(f"{workload}/{seed}")
    pseed = draw.randrange(1 << 31)
    if workload == "validate-full":
        quick = SCALES[scale].validate_quick
        typical = _typical_validate_sizes(quick)
        while not all(abs(a / b - 1.0) <= 0.01
                      for a, b in zip(validate_sizes(pseed, quick), typical)):
            pseed = draw.randrange(1 << 31)
    return pseed


@dataclass(frozen=True)
class Command:
    """One workload command: its CLI arguments and what it writes."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]     # file names written into the run directory
    manifest: str | None         # manifest file name, None for validate


def command(workload: str, seed: int, scale: str, jobs: int | None = None) -> Command:
    """The command ``workload`` runs for benchmark seed ``seed``.

    ``jobs`` overrides the worker count of the efficiency sweep; the
    traced run uses it to see the engine calls a pool would hide.
    """
    s = SCALES[scale]
    pseed = program_seed(workload, seed, scale)
    if workload == "efficiency-sweep":
        argv = ("experiment", "--kind", "efficiency", "--alpha", ALPHA,
                "--beta", "exp:1", "--n", str(s.eff_n), "--reps", str(s.eff_reps),
                "--jobs", str(2 if jobs is None else jobs), "--seed", str(pseed),
                "--out", "efficiency.csv")
        return Command(argv, ("efficiency.csv",), "efficiency.csv.manifest.json")
    if workload == "convergence-sweep":
        argv = ("experiment", "--kind", "convergence", "--alpha", ALPHA,
                "--beta", "exp:1", "--n", str(s.conv_n), "--reps", str(s.conv_reps),
                "--jobs", "1", "--seed", str(pseed), "--out", "convergence.csv")
        return Command(argv, ("convergence.csv",), "convergence.csv.manifest.json")
    if workload == "network-tree":
        argv = ("simulate", "--engine", "network", "--alpha", ALPHA,
                "--beta", "exp:1", "--m", str(s.net_m), "--n", str(s.net_n),
                "--seed", str(pseed), "--out", "outcome.json",
                "--tree-out", "tree.json", "--tree-format", "json",
                "--series-out", "series.json")
        return Command(argv, ("outcome.json", "tree.json", "series.json"),
                       "outcome.json.manifest.json")
    if workload == "validate-full":
        argv = ("validate", "--seed", str(pseed))
        if s.validate_quick:
            argv += ("--quick",)
        return Command(argv, (), None)
    raise ValueError(f"unknown workload {workload!r}")


def params(workload: str, seed: int, scale: str) -> dict:
    """The command's parameters, in the form of the manifest's record."""
    s = SCALES[scale]
    exp1 = {"kind": "exponential", "mean": 1.0}
    n, reps, m = {
        "efficiency-sweep": (s.eff_n, s.eff_reps, None),
        "convergence-sweep": (s.conv_n, s.conv_reps, None),
        "network-tree": (s.net_n, None, s.net_m),
    }.get(workload, (None, None, None))
    return {"seed": program_seed(workload, seed, scale), "n": n, "replications": reps,
            "m": m, "alpha": exp1, "beta": exp1}


def blocks(workload: str, seed: int, scale: str) -> int:
    """Blocks produced by all engine runs of the workload's command."""
    s = SCALES[scale]
    if workload == "efficiency-sweep":
        return RATIO_POINTS * s.eff_reps * (s.eff_n - 1)
    if workload == "convergence-sweep":
        return (len(WORKER_SWEEP) + 1) * s.conv_reps * (s.conv_n - 1)
    if workload == "network-tree":
        return s.net_n - 1
    return validate_sizes(program_seed(workload, seed, scale), s.validate_quick)[0]


def validate_sizes(base_seed: int, quick: bool) -> tuple[int, int]:
    """Blocks of all engine runs of ``blocksim validate``, and naive-scan pairs.

    Re-draws the suites' randomized config sizes the way the suites do:
    equivalence runs each config on the network and matrix engines,
    pruning runs the matrix engine (with the naive scan beside the
    pruned one) once and the unbounded engine twice (pruned and
    unpruned, at most 600 blocks) per config.
    """
    from blocksim.rng import SampleStream

    configs, runs, max_n = (20, 10, 500) if quick else (100, 50, 2000)
    blocks = pairs = 0
    stream = SampleStream(base_seed, 1000)
    for _ in range(configs):
        n = 10 + int(stream.uniforms(4)[1] * 491)
        blocks += 2 * (n - 1)
    blocks += 3 * 2 * (60 - 1)          # tie-rich constant/constant configs
    stream = SampleStream(base_seed, 1001)
    for i in range(runs):
        u = stream.uniforms(3)
        n = max_n if i < 3 else 50 + int(u[0] * 750)
        blocks += (n - 1) + 2 * (min(n, 600) - 1)
        pairs += (n - 1) * (n - 2) // 2
    return blocks, pairs


def _typical_validate_sizes(quick: bool) -> tuple[float, float]:
    """Median block count and naive-scan pairs over 401 seeds."""
    sizes = [validate_sizes(random.Random(f"validate-reference/{i}").randrange(1 << 31),
                            quick) for i in range(401)]
    return tuple(statistics.median(column) for column in zip(*sizes))


if __name__ == "__main__":
    # python3 bench/workloads.py WORKLOAD SEED SCALE: the command as JSON.
    name, seed, scale = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    cmd = command(name, seed, scale)
    print(json.dumps({"argv": cmd.argv, "outputs": cmd.outputs,
                      "manifest": cmd.manifest,
                      "serial_argv": command(name, seed, scale, jobs=1).argv,
                      "blocks": blocks(name, seed, scale)}))
