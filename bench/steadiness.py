"""Repeat the benchmark over many seeds and summarize the spread.

    python3 bench/steadiness.py run --seeds 1-10 --trace 0 --out set1.jsonl
    python3 bench/steadiness.py summarize set1.jsonl

``run`` calls ``bench/run.py`` once per seed and for every workload of
BENCHMARK.json, one after another, and appends each result as one JSON
line.  ``summarize`` prints, per workload and metric, the median, the
quartiles from ``statistics.quantiles(values, n=4)``, the spread (third
minus first quartile, as a share of the median) and the metric's bound,
as markdown.
With traced results it prints one table of per-layer medians, one
column per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(args) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for seed in seeds(args.seeds):
        for name in [w["name"] for w in spec["workloads"]]:
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            samples = ROOT / ".bench_out" / name / "samples.json"
            record = {"workload": name, "seed": seed, "exit": proc.returncode,
                      "elapsed_s": time.monotonic() - started,
                      "result": json.loads(lines[-1]) if lines else None,
                      "samples": (json.loads(samples.read_text())
                                  if samples.exists() and not args.trace else None)}
            with open(args.out, "a") as f:
                f.write(json.dumps(record) + "\n")
            print(f"{name} seed {seed}: exit {proc.returncode}, "
                  f"{record['elapsed_s']:.1f} s", file=sys.stderr)


def summarize(args) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for path in args.files:
        by_workload = defaultdict(list)
        for line in Path(path).read_text().splitlines():
            record = json.loads(line)
            by_workload[record["workload"]].append(record)
        print(f"\n{path}\n")
        if any("trace.overhead_s" in r["result"]["metrics"]
               for records in by_workload.values() for r in records if r["result"]):
            per_layer_table(by_workload)
            continue
        for name, records in by_workload.items():
            results = [r["result"] for r in records if r["result"]]
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            print(f"**{name}**: {len(results)} runs, seeds "
                  f"{min(r['seed'] for r in records)}-{max(r['seed'] for r in records)}, "
                  f"all correct: {all(r['correct'] for r in results)}, "
                  f"failed {failed}/{attempted}, run length median "
                  f"{statistics.median(r['elapsed_s'] for r in records):.1f} s, "
                  f"max {max(r['elapsed_s'] for r in records):.1f} s\n")
            print("| metric | unit | median | q1 | q3 | spread | bound |")
            print("| --- | --- | --- | --- | --- | --- | --- |")
            for metric, first in results[0]["metrics"].items():
                values = [r["metrics"][metric]["value"] for r in results]
                med = statistics.median(values)
                q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                             else values * 3)
                spread = (q3 - q1) / med if med else 0.0
                bound = bounds.get(metric)
                print(f"| {metric} | {first['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                      f"| {spread:.4f} | {'' if bound is None else bound} |")
            print()


def per_layer_table(by_workload: dict) -> None:
    """Per-layer medians with one column per workload."""
    names = list(by_workload)
    results = {name: [r["result"] for r in records if r["result"]]
               for name, records in by_workload.items()}
    print("| metric | unit | " + " | ".join(names) + " |")
    print("| --- | --- | " + " | ".join("---" for _ in names) + " |")
    first = results[names[0]][0]["metrics"]
    for metric, value in first.items():
        cells = [statistics.median(r["metrics"][metric]["value"] for r in results[name])
                 for name in names]
        print(f"| {metric} | {value['unit']} | "
              + " | ".join(f"{c:,.0f}" if c == int(c) else f"{c:.4g}" for c in cells) + " |")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--seeds", required=True, help="a seed or a range like 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=run)
    s = sub.add_parser("summarize")
    s.add_argument("files", nargs="+")
    s.set_defaults(fn=summarize)
    args = parser.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
