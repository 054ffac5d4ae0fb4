"""Benchmark of blocksim: four user commands, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each command runs as a fresh blocksim
process started by ``bench/launch.py``; this process starts them one at
a time (a closed loop with one client) and waits for each.

With ``--trace 0`` the workload's command is repeated, at least three
times, for as long as the whole run, replay and checks included, fits in
``--seconds``; the medians of the end-to-end metrics are reported.  With
``--trace 1`` the command runs once untraced and once traced, and the
per-layer metrics of the traced run are reported with the tracing
overhead.  Either way every output is checked, the
command's manifest is replayed, and the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Outputs, traces and reports go to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
MIN_ROUNDS = 3


@dataclass
class Record:
    """One blocksim process as the benchmark saw it."""

    exit_code: int
    setup_s: float | None      # None when the command never got ready
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_blocksim(argv, cwd: Path, trace_file: Path | None = None,
                 python_flags: tuple[str, ...] = ()) -> Record:
    """Start one blocksim command in a fresh interpreter and wait for it.

    CPU time and peak RSS come from ``wait4``, which covers the command
    and every descendant it waited for, pool workers included.
    """
    cwd.mkdir(parents=True, exist_ok=True)
    ready = cwd / ".ready"
    ready.unlink(missing_ok=True)
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    cmd = [sys.executable, *python_flags, str(LAUNCH), str(ready),
           str(trace_file) if trace_file else "-", "--", *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    ready_at = float(ready.read_text()) if ready.exists() else None
    return Record(exit_code=proc.returncode,
                  setup_s=None if ready_at is None else ready_at - started,
                  wall_s=ended - (started if ready_at is None else ready_at),
                  cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0,
                  stdout=out_path.read_text(errors="replace"),
                  stderr=err_path.read_text(errors="replace"))


def digests(run_dir: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in names}


class Run:
    """One benchmark invocation: its processes, problems and counters."""

    def __init__(self, workload: str, seed: int, scale: str, out_dir: Path):
        self.started = time.monotonic()
        self.workload = workload
        self.out_dir = out_dir
        self.helper_args = [workload, str(seed), scale]
        self.records: list[Record] = []
        self.failures: list[str] = []
        self.problems: list[str] = []
        # The command comes from a helper process too (see ``timed``): the
        # validate seed is chosen by re-drawing the suites' sizes with numpy.
        proc = subprocess.run([sys.executable, str(HERE / "workloads.py"), *self.helper_args],
                              capture_output=True, text=True, check=True)
        self.cmd = json.loads(proc.stdout)

    def launch(self, argv, cwd: Path, expect_exit: int = 0, **kwargs) -> Record:
        rec = run_blocksim(argv, cwd, **kwargs)
        self.records.append(rec)
        if rec.exit_code != expect_exit:
            tail = rec.stderr.strip().splitlines()[-1:] or [""]
            self.failures.append(f"`blocksim {' '.join(argv)}` exited "
                                 f"{rec.exit_code}: {tail[0]}")
        return rec

    # -- the timed loop ---------------------------------------------------

    def timed(self, seconds: float, min_rounds: int = MIN_ROUNDS) -> list[Record]:
        """Repeat the command at least ``min_rounds`` times, within ``seconds``.

        ``seconds`` counts from the start of the run and covers the output
        checks and the manifest replay that follows the loop, which costs
        about one more command: another repeat starts only if it and the
        replay, each as long as the longest repeat so far, still fit.

        Every repeat must write the same bytes (or, for validate, print
        the same lines) as the first, which is checked in full after the
        first repeat.  The full check re-runs engines, so it runs in a
        process of its own, between two timed commands: a child starts
        with its parent's peak RSS as its own, so this process must stay
        smaller than the commands it times.  It imports neither numpy nor
        blocksim for that reason.
        """
        run_dir = self.out_dir / "run"
        done: list[Record] = []
        first = None
        attempts = 0
        longest = 0.0
        deadline = self.started + seconds
        while attempts < min_rounds or time.monotonic() + 2 * longest <= deadline:
            attempts += 1
            began = time.monotonic()
            rec = self.launch(self.cmd["argv"], run_dir)
            longest = max(longest, time.monotonic() - began)
            if rec.exit_code != 0:
                continue
            done.append(rec)
            seen = digests(run_dir, self.cmd["outputs"]) if self.cmd["outputs"] else rec.stdout
            if first is None:
                first = seen
                self.verify(run_dir)
            elif seen != first:
                self.problems.append(f"repeat {len(done)} differs from the first run")
        return done

    # -- output checks ----------------------------------------------------

    def verify(self, run_dir: Path) -> None:
        """Check the outputs in ``run_dir``.

        Runs ``checks.py`` in a process of its own (see ``timed``).
        """
        proc = subprocess.run([sys.executable, str(HERE / "checks.py"), *self.helper_args,
                               str(run_dir)], capture_output=True, text=True)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            self.problems.append(f"output checks crashed: {tail[0]}")
            return
        self.problems.extend(json.loads(proc.stdout))

    def check_replay(self) -> None:
        """Replay the manifest and compare every output byte for byte.

        ``validate`` writes no files and no manifest; its stand-in is the
        injected-fault self-test, which the suite must fail.
        """
        import checks

        run_dir = self.out_dir / "run"
        if self.cmd["manifest"] is None:
            seed = self.cmd["argv"][self.cmd["argv"].index("--seed") + 1]
            argv = ("validate", "--quick", "--inject-fault", "--seed", seed)
            rec = self.launch(argv, self.out_dir / "fault", expect_exit=1)
            self.problems.extend(checks.check_inject_fault(rec.stdout, rec.exit_code))
            return
        replay_dir = self.out_dir / "replay"
        shutil.rmtree(replay_dir, ignore_errors=True)
        rec = self.launch(("replay", str(run_dir / self.cmd["manifest"]),
                           "--out-dir", str(replay_dir)), self.out_dir)
        if rec.exit_code != 0:
            self.problems.append(f"replay exited {rec.exit_code}")
        for name in self.cmd["outputs"]:
            if not (replay_dir / name).is_file():
                self.problems.append(f"replay: {name} was not written")
            elif (replay_dir / name).read_bytes() != (run_dir / name).read_bytes():
                self.problems.append(f"replay: {name} differs from the original")

    # -- metrics ----------------------------------------------------------

    def end_to_end(self, seconds: float) -> dict[str, float]:
        done = self.timed(seconds)
        self.check_replay()
        if not done:
            raise SystemExit("no command of the workload finished")
        (self.out_dir / "samples.json").write_text(json.dumps(
            {"timed": [{k: getattr(r, k) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
                       for r in done],
             "setup_s": [r.setup_s for r in self.records]}, indent=1) + "\n")
        return {
            "wall_s": statistics.median(r.wall_s for r in done),
            "blocks_per_s": statistics.median(self.cmd["blocks"] / r.wall_s for r in done),
            "cpu_s": statistics.median(r.cpu_s for r in done),
            # A mean: at m=1000 the peak falls on one of two levels about
            # 10% apart from one command to the next, and a median of a few
            # repeats would jump between them.
            "peak_rss_mb": statistics.mean(r.peak_rss_mb for r in done),
            "setup_s": statistics.median(r.setup_s for r in self.records
                                         if r.setup_s is not None),
        }

    def per_layer(self) -> dict[str, float]:
        """One untraced and one traced run; the difference is the overhead.

        The efficiency sweep's pool workers are invisible to a trace of
        the parent, so its worker-side layers come from a ``--jobs 1``
        traced run of the same table.
        """
        import spans

        done = self.timed(0, min_rounds=1)
        if not done:
            raise SystemExit("the untraced command failed")
        untraced = done[0]
        self.check_replay()
        trace_dir = self.out_dir / "traced"
        trace_file = self.out_dir / "trace.json"
        traced = self.launch(self.cmd["argv"], trace_dir, trace_file=trace_file)
        if traced.exit_code != 0:
            raise SystemExit("the traced command failed")
        self.same_outputs(trace_dir, "traced run", traced, untraced)
        doc = spans.load(trace_file)
        engines = doc
        report = {"traces": {"command": spans.span_totals(doc)}}
        if self.workload == "efficiency-sweep":
            serial_dir = self.out_dir / "traced-jobs1"
            serial_file = self.out_dir / "trace-jobs1.json"
            serial_rec = self.launch(self.cmd["serial_argv"], serial_dir,
                                     trace_file=serial_file)
            if serial_rec.exit_code != 0:
                raise SystemExit("the --jobs 1 traced command failed")
            self.same_outputs(serial_dir, "--jobs 1 traced run", serial_rec, untraced)
            serial = engines = spans.load(serial_file)
            metrics, unseen = spans.merge_pool_run(doc, serial)
            report["traces"]["command --jobs 1"] = spans.span_totals(serial)
            report["unseen_in_pool_workers"] = unseen
            report["worker_layers_from_jobs1"] = list(spans.WORKER_LAYERS)
        else:
            metrics = spans.layer_metrics(doc)
        # The block count behind blocks_per_s is computed, not measured
        # (for validate by re-drawing the suites' sizes): hold it to the
        # engine runs the trace saw.
        seen = spans.engine_blocks(engines)
        if seen != self.cmd["blocks"]:
            self.problems.append(f"the engine runs produced {seen} blocks, "
                                 f"the workload counts {self.cmd['blocks']}")
        report["engine_blocks"] = seen
        probe = self.launch(("--version",), self.out_dir / "importtime",
                            python_flags=("-X", "importtime"))
        metrics.update(spans.importtime_metrics(probe.stderr))
        metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
        report.update(untraced_wall_s=untraced.wall_s, traced_wall_s=traced.wall_s,
                      metrics=metrics)
        (self.out_dir / "trace-report.json").write_text(
            json.dumps(report, indent=1, sort_keys=True) + "\n")
        return metrics

    def same_outputs(self, other: Path, what: str, rec: Record, first: Record) -> None:
        """Another run of the command wrote the same bytes, or printed the same lines."""
        run_dir = self.out_dir / "run"
        if self.cmd["outputs"]:
            same = digests(other, self.cmd["outputs"]) == digests(run_dir, self.cmd["outputs"])
        else:
            same = rec.stdout == first.stdout
        if not same:
            self.problems.append(f"{what}: outputs differ from the untraced run")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the benchmark's own tests")
    parser.add_argument("--out-dir", type=Path, default=None)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "blocksim" / "cli.py").is_file():
        print(f"error: no blocksim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    out_dir = (args.out_dir or ROOT / ".bench_out") / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    run = Run(args.workload, args.seed, args.scale, out_dir)
    if args.trace:
        values, wanted = run.per_layer(), spec["per_layer"]
    else:
        values, wanted = run.end_to_end(args.seconds), spec["end_to_end"]
    for problem in run.failures + run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": len(run.records),
        "failed": len(run.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
