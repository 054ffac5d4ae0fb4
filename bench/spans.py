"""Per-layer trace of one blocksim command, recorded from outside.

``instrument`` wraps the public functions of each blocksim module, and
every call into a layer becomes a span: name, start, end and parent.
Counts are recorded at the same boundaries.  Spans stay in memory and
are written out once, when the command ends.  Nothing under ``src/``
changes: a wrapper replaces every module-level reference to the
original function, so calls through ``from .x import f`` are seen too.

``layer_metrics`` turns a written trace into the per-layer
metrics the benchmark reports.  A layer is the module a span's name
starts with; its self time is the time its spans cover minus the time
their child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

LAYERS = ("rng", "distributions", "infinite", "matrix", "network", "montecarlo",
          "validate", "blocktree", "manifest", "cli")
ROLES = {1: "production", 2: "producer", 3: "delay"}


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.samplers: list = []

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span per call; ``after(args, kwargs, result)`` counts."""
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self.stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def harvest_samplers(self) -> None:
        """Credit the draws the engine's buffered samplers served."""
        self.counts["distributions.values_used"] += sum(s.drawn for s in self.samplers)
        self.samplers.clear()

    def dump(self, path) -> None:
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        doc = {"names": table,
               "span_name": [index[n] for n in self.names],
               "start": self.starts, "end": self.ends, "parent": self.parents,
               "counts": dict(self.counts)}
        with open(path, "w") as f:
            f.write(json.dumps(doc, separators=(",", ":")))


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every imported blocksim module."""
    from blocksim import (blocktree, cli, distributions, infinite, manifest, matrix,
                          montecarlo, network, rng, validate)

    modules = [mod for name, mod in list(sys.modules.items())
               if name == "blocksim" or name.startswith("blocksim.")]
    counts = tracer.counts

    def function(module, attr, after=None):
        original = getattr(module, attr)
        layer = module.__name__.rsplit(".", 1)[-1]
        traced = tracer.wrap(f"{layer}.{attr.lstrip('_')}", original, after)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, key, traced)
        for key, value in montecarlo.ENGINES.items():
            if value is original:
                montecarlo.ENGINES[key] = traced

    def method(cls, attr, name, after=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), after))

    # rng: draws per stream role, and the streams themselves.
    def on_uniforms(args, kwargs, result):
        role = ROLES.get(args[0].stream_id, "other")
        counts[f"rng.draws_{role}"] += len(result)

    def on_take(args, kwargs, result):
        counts["distributions.values_fetched"] += len(result)

    method(rng.SampleStream, "__init__", "rng.SampleStream",
           lambda a, k, r: counts.update(("rng.streams_created",)))
    method(rng.SampleStream, "uniforms", "rng.uniforms", on_uniforms)
    method(rng.SampleStream, "take_uniforms", "rng.take_uniforms", on_take)

    # distributions: vectorized sampling and the buffered sampler's refills.
    function(distributions, "sample_many", after=lambda a, k, r: counts.update(
        {"distributions.values_sampled": len(r)}))
    method(distributions.BufferedSampler, "__init__", "distributions.BufferedSampler",
           lambda a, k, r: tracer.samplers.append(a[0]))

    # infinite
    def on_infinite(args, kwargs, outcome):
        tracer.harvest_samplers()
        counts["infinite.runs"] += 1
        counts["infinite.blocks"] += outcome.n - 1
        counts["infinite.pairs_tested"] += outcome.stats["pairs_tested"]
        counts["infinite.delay_draws"] += outcome.stats["delay_draws"]

    function(infinite, "simulate_infinite", on_infinite)

    # matrix: the eager delay matrix against the pairs the scan reads.
    def on_matrix(args, kwargs, outcome):
        cfg = _arg(args, kwargs, 0, "config")
        counts["matrix.runs"] += 1
        counts["matrix.blocks"] += cfg.n - 1
        counts["matrix.delays_drawn"] += (cfg.n - 1) * (cfg.m - 1)
        counts["matrix.pairs_tested"] += round(
            outcome.stats["mean_scan_window"] * (cfg.n - 1))

    function(matrix, "simulate_matrix", on_matrix)
    function(matrix, "visible_height_naive")

    # network
    def on_network(args, kwargs, outcome):
        tracer.harvest_samplers()
        counts["network.runs"] += 1
        counts["network.blocks"] += outcome.n - 1
        counts["network.messages_sent"] += outcome.stats["messages_sent"]
        counts["network.undelivered"] += outcome.stats["undelivered"]

    function(network, "simulate_network", on_network)
    function(network, "delivery_sweep")

    # montecarlo: replications and the process pools started for them.
    def on_replications(args, kwargs, result):
        counts["montecarlo.replications"] += _arg(args, kwargs, 2, "replications")

    function(montecarlo, "run_replications", on_replications)

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            counts["montecarlo.pools_started"] += 1
            super().__init__(*args, **kwargs)

    montecarlo.ProcessPoolExecutor = CountingPool

    # validate
    for suite in ("check_equivalence", "check_pruning", "check_mixture_bound"):
        function(validate, suite)

    # blocktree, manifest and the cli's own work around the engines.
    function(blocktree, "export_tree", lambda a, k, r: counts.update(
        {"blocktree.export_bytes": len(r)}))
    function(manifest, "sha256_file", lambda a, k, r: counts.update(
        {"manifest.bytes_hashed": os.path.getsize(_arg(a, k, 0, "path"))}))
    function(manifest, "write_manifest", lambda a, k, r: counts.update(
        {"cli.bytes_written": os.path.getsize(_arg(a, k, 1, "path"))}))
    function(cli, "_write_bytes", lambda a, k, r: counts.update(
        {"cli.bytes_written": len(_arg(a, k, 1, "data").encode())}))
    function(cli, "run_simulate")
    function(cli, "run_experiment_files")


# ---------------------------------------------------------------------------
# Summaries


def load(path) -> dict:
    with open(path) as f:
        return json.load(f)


def span_totals(doc: dict) -> dict[str, dict]:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    names = doc["names"]
    which, start, end, parent = doc["span_name"], doc["start"], doc["end"], doc["parent"]
    duration = [e - s for s, e in zip(start, end)]
    child = [0.0] * len(duration)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += duration[i]
    totals = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    for i, n in enumerate(which):
        t = totals[names[n]]
        t["calls"] += 1
        t["total_s"] += duration[i]
        t["self_s"] += duration[i] - child[i]
    return totals


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(doc: dict) -> dict[str, float]:
    """The per-layer metrics of one trace."""
    t = span_totals(doc)
    c = Counter(doc["counts"])

    def total(name):
        return t.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    out = {f"{layer}.self_s": sum(v["self_s"] for k, v in t.items()
                                  if k.split(".", 1)[0] == layer)
           for layer in LAYERS}
    out.update({
        "rng.draws_production": c["rng.draws_production"],
        "rng.draws_producer": c["rng.draws_producer"],
        "rng.draws_delay": c["rng.draws_delay"],
        "rng.uniforms_s": total("rng.uniforms"),
        "rng.streams_created": c["rng.streams_created"],
        "distributions.sample_many_s": total("distributions.sample_many"),
        "distributions.values_sampled": c["distributions.values_sampled"],
        "distributions.values_fetched": c["distributions.values_fetched"],
        "distributions.values_used": c["distributions.values_used"],
        "distributions.use_ratio": _ratio(c["distributions.values_used"],
                                          c["distributions.values_fetched"]),
        "infinite.runs": c["infinite.runs"],
        "infinite.simulate_s": total("infinite.simulate_infinite"),
        "infinite.pairs_tested": c["infinite.pairs_tested"],
        "infinite.delay_draws": c["infinite.delay_draws"],
        "infinite.scan_window_mean": _ratio(c["infinite.pairs_tested"],
                                            c["infinite.blocks"]),
        "infinite.us_per_pair": 1e6 * _ratio(total("infinite.simulate_infinite"),
                                             c["infinite.pairs_tested"]),
        "matrix.runs": c["matrix.runs"],
        "matrix.simulate_s": total("matrix.simulate_matrix"),
        "matrix.delays_drawn": c["matrix.delays_drawn"],
        "matrix.pairs_tested": c["matrix.pairs_tested"],
        "matrix.read_per_drawn": _ratio(c["matrix.pairs_tested"],
                                        c["matrix.delays_drawn"]),
        "matrix.scan_window_mean": _ratio(c["matrix.pairs_tested"], c["matrix.blocks"]),
        "matrix.naive_scan_s": total("matrix.visible_height_naive"),
        "matrix.naive_scan_calls": calls("matrix.visible_height_naive"),
        "network.runs": c["network.runs"],
        "network.simulate_s": total("network.simulate_network"),
        "network.messages_sent": c["network.messages_sent"],
        "network.undelivered": c["network.undelivered"],
        "network.us_per_message": 1e6 * _ratio(total("network.simulate_network"),
                                               c["network.messages_sent"]),
        "network.delivery_sweep_s": total("network.delivery_sweep"),
        "network.delivery_sweep_calls": calls("network.delivery_sweep"),
        "montecarlo.run_replications_calls": calls("montecarlo.run_replications"),
        "montecarlo.replications": c["montecarlo.replications"],
        "montecarlo.pools_started": c["montecarlo.pools_started"],
        "montecarlo.run_replications_s": total("montecarlo.run_replications"),
        # Only a pooled run waits; see ``merge_pool_run``.
        "montecarlo.pool_wait_s": 0.0,
        "validate.equivalence_s": total("validate.check_equivalence"),
        "validate.pruning_s": total("validate.check_pruning"),
        "validate.mixture_bound_s": total("validate.check_mixture_bound"),
        "blocktree.export_s": total("blocktree.export_tree"),
        "blocktree.export_bytes": c["blocktree.export_bytes"],
        "manifest.sha256_s": total("manifest.sha256_file"),
        "manifest.bytes_hashed": c["manifest.bytes_hashed"],
        "cli.run_self_s": sum(t.get(n, {}).get("self_s", 0.0)
                              for n in ("cli.run_simulate", "cli.run_experiment_files")),
        "cli.bytes_written": c["cli.bytes_written"],
        "trace.spans": len(doc["span_name"]),
    })
    return out


def engine_blocks(doc: dict) -> int:
    """Blocks produced by all engine runs a trace saw."""
    return sum(doc["counts"].get(f"{engine}.blocks", 0)
               for engine in ("infinite", "matrix", "network"))


# Layers whose work runs inside pool workers when ``--jobs`` is above 1.
WORKER_LAYERS = ("rng", "distributions", "infinite", "matrix", "network")


def merge_pool_run(pooled: dict, serial: dict) -> tuple[dict, list[str]]:
    """Metrics of a pooled run, with worker-side layers from a serial run.

    A trace of the parent process cannot see spans inside pool workers.
    Their layers are taken from a ``--jobs 1`` run of the same command,
    whose outputs are the same.  In the pooled trace, the time the parent
    waits for the workers has no child spans, so ``montecarlo.self_s``
    comes from the serial run too, and the pooled run's montecarlo self
    time is ``montecarlo.pool_wait_s``: starting the pools, handing out
    the replications and waiting for their results.  Returns the metrics
    and the span names the pooled trace did not see.
    """
    metrics = layer_metrics(pooled)
    metrics["montecarlo.pool_wait_s"] = metrics["montecarlo.self_s"]
    serial_metrics = layer_metrics(serial)
    for key, value in serial_metrics.items():
        if key.split(".", 1)[0] in WORKER_LAYERS:
            metrics[key] = value
    metrics["montecarlo.self_s"] = serial_metrics["montecarlo.self_s"]
    unseen = sorted(set(serial["names"]) - set(pooled["names"]))
    return metrics, unseen


def importtime_metrics(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per package from ``python -X importtime``.

    A package's figure sums the cumulative time of its outermost entries.
    An entry nested under the same package, or under numpy, scipy or
    click, is already inside that one's time: numpy modules that scipy
    imports count for scipy.  Everything counts for blocksim, which
    imports the other three.
    """
    packages = {"numpy": "setup.import_numpy_s", "scipy": "setup.import_scipy_s",
                "click": "setup.import_click_s", "blocksim": "setup.import_blocksim_s"}
    # Entries are printed children first, each with its depth as indentation.
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, int(cumulative), name.strip()))
    out = {metric: 0.0 for metric in packages.values()}
    for i, (depth, cumulative, name) in enumerate(entries):
        top = name.split(".", 1)[0]
        if top not in packages:
            continue
        # The enclosing entries are the later ones at each smaller depth.
        nested = False
        want = depth - 1
        for d, _, other in entries[i + 1:]:
            if want < 0:
                break
            if d == want:
                outer = other.split(".", 1)[0]
                if outer == top or (outer in packages and outer != "blocksim"):
                    nested = True
                    break
                want -= 1
        if not nested:
            out[packages[top]] += cumulative / 1e6
    return out
