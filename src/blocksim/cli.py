"""Command-line front end.

Four commands: ``simulate`` runs one engine once and writes an outcome
JSON (plus optional tree/series files), ``experiment`` runs a sweep and
writes a CSV table, ``validate`` runs the cross-check suites, and
``replay`` re-executes a recorded manifest and verifies the outputs
byte for byte.

Configuration comes from flags, an optional JSON config file, the
BLOCKSIM_SEED environment variable (for the seed only), and defaults,
in that order of precedence.  Exit codes: 0 success, 1 validation or
replay mismatch, 2 usage or configuration error.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

import click

from . import __version__
from .blocktree import classify, export_tree
from .distributions import DistributionSpec, parse_spec, spec_from_dict
from .errors import ConfigError
from .infinite import InfSimConfig, simulate_infinite
from .manifest import SCHEMA_VERSION, RunManifest, load_manifest, sha256_file, write_manifest
from .matrix import simulate_matrix
from .montecarlo import ExperimentPlan, default_ratio_grid, run_experiment
from .network import NetSimConfig, simulate_network
from .rng import StreamBundle
from .validate import run_validation

_ENGINE_CHOICES = ("network", "matrix", "infinite")
# The params each replayable command reads without a default.
_REPLAY_PARAMS = {
    "simulate": ("engine", "alpha", "beta", "n", "seed", "output_names"),
    "experiment": ("kind", "alpha", "beta", "n", "seed", "replications", "output_names"),
}
_KIND_ALIASES = {
    "convergence": "convergence",
    "efficiency": "efficiency",
    "pdf-histogram": "pdf_histogram",
    "pdf_histogram": "pdf_histogram",
    "single": "single",
}


# ---------------------------------------------------------------------------
# Config resolution helpers


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return doc


def _resolve(flag, file_cfg: dict, key: str, default=None):
    """Precedence: explicit flag, then config file, then default."""
    if flag is not None:
        return flag
    if key in file_cfg:
        return file_cfg[key]
    return default


def _int_field(value, key: str) -> int:
    """An integer parameter from a flag, a config file or a manifest.

    Integers, integral floats and integer strings pass; anything else
    (booleans included) is a ConfigError naming the field.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _float_list(values, key: str) -> list[float]:
    """A list of numbers from a config file or a manifest, or a ConfigError."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers, got {values!r}")
    try:
        return [float(x) for x in values]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key} list: {exc}") from None


def _output_names(params: dict, roles: tuple[str, ...]) -> dict:
    """A manifest's output names: plain file names, one per required role."""
    names = params["output_names"]
    if not isinstance(names, dict):
        raise ConfigError(f"output_names must be a JSON object, got {names!r}")
    for role, name in names.items():
        if name is None and role not in roles:
            continue
        if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
            raise ConfigError(f"output name for {role!r} must be a plain file name, "
                              f"got {name!r}")
    missing = [role for role in roles if role not in names]
    if missing:
        raise ConfigError(f"output_names lack {', '.join(missing)}")
    return names


def _resolve_seed(flag, file_cfg: dict) -> int:
    if flag is not None:
        return flag
    if "seed" in file_cfg:
        return _int_field(file_cfg["seed"], "seed")
    env = os.environ.get("BLOCKSIM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"BLOCKSIM_SEED must be an integer, got {env!r}") from exc
    return 0


def _resolve_spec(flag, file_cfg: dict, key: str) -> DistributionSpec:
    """A distribution from a flag string or a config-file dict."""
    if flag is not None:
        return parse_spec(flag)
    if key in file_cfg:
        value = file_cfg[key]
        if isinstance(value, str):
            return parse_spec(value)
        if isinstance(value, dict):
            return spec_from_dict(value)
        raise ConfigError(f"config field {key!r} must be a string or object")
    raise ConfigError(f"missing distribution: pass --{key} or set {key!r} in the config file")


def _guard(fn):
    """Map configuration errors to exit code 2 with a clean message."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapped


# ---------------------------------------------------------------------------
# Core runners, shared between the direct commands and replay


def _write_bytes(path: Path, data: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(data)
    return sha256_file(path)


def run_simulate(params: dict, out_paths: dict) -> dict[str, str]:
    """Execute one simulation run and write its files.

    params holds plain JSON values (specs as dicts); out_paths maps the
    roles "outcome", "tree", "series" to target paths.  Returns
    {basename: sha256} for every file written.
    """
    engine = params["engine"]
    if engine not in _ENGINE_CHOICES:
        raise ConfigError(f"unknown engine {engine!r}")
    alpha = spec_from_dict(params["alpha"])
    beta = spec_from_dict(params["beta"])
    n = _int_field(params["n"], "n")
    seed = _int_field(params["seed"], "seed")
    want_tree = out_paths.get("tree") is not None
    want_series = out_paths.get("series") is not None

    if want_tree and engine != "network":
        raise ConfigError("--tree-out needs the network engine; "
                          "the closed-form engines track heights only")

    if engine == "infinite":
        outcome = simulate_infinite(InfSimConfig(
            n=n, alpha=alpha, beta=beta, seed=seed, record_series=want_series))
    else:
        if params.get("m") is None:
            raise ConfigError(f"the {engine} engine needs a worker count --m")
        cfg = NetSimConfig(m=_int_field(params["m"], "m"), n=n, alpha=alpha, beta=beta,
                           seed=seed, record_tree=want_tree,
                           record_series=want_series)
        outcome = (simulate_network if engine == "network" else simulate_matrix)(cfg)

    digests = {}
    doc = {"engine": engine, "n": n, "seed": seed,
           "p_n": outcome.proportion, "height": outcome.height}
    out = Path(out_paths["outcome"])
    digests[out.name] = _write_bytes(out, json.dumps(doc, sort_keys=True, indent=2) + "\n")

    if want_tree:
        tree_path = Path(out_paths["tree"])
        digests[tree_path.name] = _write_bytes(
            tree_path, export_tree(outcome.tree, params.get("tree_format", "dot")))
    if want_series:
        series_path = Path(out_paths["series"])
        digests[series_path.name] = _write_bytes(
            series_path,
            json.dumps({"height_series": list(outcome.height_series)}) + "\n")
    return digests


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run_experiment_files(params: dict, out_paths: dict) -> dict[str, str]:
    """Execute an experiment plan and write its CSV table."""
    plan = ExperimentPlan(
        kind=params["kind"],
        alpha=spec_from_dict(params["alpha"]),
        beta=spec_from_dict(params["beta"]),
        n=_int_field(params["n"], "n"),
        base_seed=_int_field(params["seed"], "seed"),
        replications=_int_field(params["replications"], "replications"),
        sweep=tuple(_float_list(params.get("sweep", []), "sweep")),
        m=_int_field(params.get("m", 100), "m"),
        bins=_int_field(params.get("bins", 20), "bins"),
        engine=params.get("engine", "infinite"),
    )
    result = run_experiment(plan, jobs=_int_field(params.get("jobs", 1), "jobs"))

    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(_format_cell(c) for c in row))
    table = Path(out_paths["table"])
    digest = _write_bytes(table, "\n".join(lines) + "\n")

    for note in _experiment_notes(result):
        click.echo(note)
    return {table.name: digest}


def _experiment_notes(result) -> list[str]:
    notes = []
    if result.kind == "efficiency" and result.extras.get("chaotic_ratios"):
        ratios = ", ".join(f"{r:g}" for r in result.extras["chaotic_ratios"])
        notes.append(f"note: prediction is unreliable at ratios > 1 (sweep hit: {ratios})")
    if result.kind == "pdf_histogram":
        notes.append(
            "ks_distance={ks:.4f} mean_Am={am:.5f} mean_Ainf={ai:.5f} shift={sh:+.5f}".format(
                ks=result.extras["ks_distance"], am=result.extras["mean_Am"],
                ai=result.extras["mean_Ainf"], sh=result.extras["mean_shift"]))
    return notes


def _finish_with_manifest(command: str, params: dict, base_seed: int,
                          digests: dict, manifest_path, stream_seeds,
                          started: float) -> None:
    manifest = RunManifest(
        command=command,
        params=params,
        base_seed=base_seed,
        version=__version__,
        outputs=digests,
        stream_seeds=stream_seeds,
        duration_s=round(time.perf_counter() - started, 6),
    )
    write_manifest(manifest, manifest_path)


# ---------------------------------------------------------------------------
# Commands


@click.group()
@click.version_option(version=__version__, prog_name="blocksim")
def main():
    """Simulate longest-chain block production under broadcast delay."""


@main.command()
@click.option("--engine", type=click.Choice(_ENGINE_CHOICES), default=None,
              help="Simulation engine (default: matrix).")
@click.option("--alpha", "alpha_flag", default=None, metavar="SPEC",
              help="Production-time distribution, e.g. exp:1, gamma:0.5:2, const:1.")
@click.option("--beta", "beta_flag", default=None, metavar="SPEC",
              help="Broadcast-delay distribution, e.g. exp:0.1, const:0.")
@click.option("--m", "m_flag", type=int, default=None, help="Worker count (bounded engines).")
@click.option("--n", "n_flag", type=int, default=None,
              help="Total blocks to produce, origin included.")
@click.option("--seed", type=int, default=None,
              help="Base seed (default: config file, then BLOCKSIM_SEED, then 0).")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON config file; flags override its fields.")
@click.option("--out", "out_path", type=click.Path(), default="outcome.json",
              show_default=True, help="Outcome JSON path.")
@click.option("--tree-out", type=click.Path(), default=None,
              help="Write the block tree (network engine only).")
@click.option("--tree-format", type=click.Choice(("dot", "json")), default="dot",
              show_default=True)
@click.option("--series-out", type=click.Path(), default=None,
              help="Write the per-block height series as JSON.")
@click.option("--manifest", "manifest_path", type=click.Path(), default=None,
              help="Manifest path (default: <out>.manifest.json).")
@_guard
def simulate(engine, alpha_flag, beta_flag, m_flag, n_flag, seed, config_path,
             out_path, tree_out, tree_format, series_out, manifest_path):
    """Run one simulation and write the outcome files."""
    started = time.perf_counter()
    file_cfg = _load_config_file(config_path)
    engine = _resolve(engine, file_cfg, "engine", "matrix")
    alpha = _resolve_spec(alpha_flag, file_cfg, "alpha")
    beta = _resolve_spec(beta_flag, file_cfg, "beta")
    n = _resolve(n_flag, file_cfg, "n")
    if n is None:
        raise ConfigError("missing block count: pass --n or set it in the config file")
    m = _resolve(m_flag, file_cfg, "m")
    base_seed = _resolve_seed(seed, file_cfg)

    params = {
        "engine": engine,
        "alpha": alpha.to_dict(),
        "beta": beta.to_dict(),
        "m": _int_field(m, "m") if m is not None else None,
        "n": _int_field(n, "n"),
        "seed": base_seed,
        "tree_format": tree_format,
        "output_names": {
            "outcome": Path(out_path).name,
            "tree": Path(tree_out).name if tree_out else None,
            "series": Path(series_out).name if series_out else None,
        },
    }
    out_paths = {"outcome": out_path, "tree": tree_out, "series": series_out}
    digests = run_simulate(params, out_paths)

    doc = json.loads(Path(out_path).read_text())
    ratio = beta.mean / alpha.mean
    regime = classify(alpha.mean, beta.mean)
    click.echo(f"p_n={doc['p_n']:.6f} height={doc['height']} n={n} engine={engine}")
    click.echo(f"regime={regime} (delay/production ratio {ratio:g})")

    _finish_with_manifest(
        "simulate", params, base_seed, digests,
        manifest_path or out_path + ".manifest.json",
        StreamBundle.for_run(base_seed).seed_echo(), started)


@main.command()
@click.option("--kind", type=click.Choice(tuple(_KIND_ALIASES)), default=None,
              help="Experiment family.")
@click.option("--alpha", "alpha_flag", default=None, metavar="SPEC")
@click.option("--beta", "beta_flag", default=None, metavar="SPEC")
@click.option("--n", "n_flag", type=int, default=None)
@click.option("--reps", type=int, default=None,
              help="Replications per point (default 100; 1000 for pdf-histogram).")
@click.option("--sweep", default=None, metavar="LIST",
              help="Comma-separated worker counts (convergence) or mean ratios "
                   "(efficiency); efficiency defaults to a log grid 1e-3..1e2.")
@click.option("--m", "m_flag", type=int, default=None,
              help="Bounded-engine worker count for pdf-histogram/single (default 100).")
@click.option("--bins", type=int, default=None, help="Histogram bins (default 20).")
@click.option("--engine", type=click.Choice(_ENGINE_CHOICES), default=None,
              help="Engine for kind=single (default infinite).")
@click.option("--seed", type=int, default=None)
@click.option("--jobs", type=int, default=None,
              help="Concurrent replication workers (default 1).")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_path", type=click.Path(), default="experiment.csv",
              show_default=True, help="CSV table path.")
@click.option("--manifest", "manifest_path", type=click.Path(), default=None)
@_guard
def experiment(kind, alpha_flag, beta_flag, n_flag, reps, sweep, m_flag, bins,
               engine, seed, jobs, config_path, out_path, manifest_path):
    """Run a sweep experiment and write its CSV table."""
    started = time.perf_counter()
    file_cfg = _load_config_file(config_path)
    kind = _resolve(kind, file_cfg, "kind")
    if kind is None:
        raise ConfigError("missing experiment kind: pass --kind or set it in the config file")
    if not isinstance(kind, str):
        raise ConfigError(f"unknown experiment kind {kind!r}")
    kind = _KIND_ALIASES.get(kind, kind)
    alpha = _resolve_spec(alpha_flag, file_cfg, "alpha")
    beta = _resolve_spec(beta_flag, file_cfg, "beta")
    n = _resolve(n_flag, file_cfg, "n")
    if n is None:
        raise ConfigError("missing block count: pass --n or set it in the config file")
    reps = _resolve(reps, file_cfg, "reps", 1000 if kind == "pdf_histogram" else 100)
    base_seed = _resolve_seed(seed, file_cfg)

    sweep = _resolve(sweep, file_cfg, "sweep")
    if isinstance(sweep, str):
        sweep = [x for x in sweep.split(",") if x.strip()]
    elif sweep is None and kind == "efficiency":
        sweep = default_ratio_grid()
    elif sweep is None and kind == "convergence":
        sweep = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]
    sweep = _float_list([] if sweep is None else sweep, "sweep")

    params = {
        "kind": kind,
        "alpha": alpha.to_dict(),
        "beta": beta.to_dict(),
        "n": _int_field(n, "n"),
        "replications": _int_field(reps, "reps"),
        "sweep": sweep,
        "m": _int_field(_resolve(m_flag, file_cfg, "m", 100), "m"),
        "bins": _int_field(_resolve(bins, file_cfg, "bins", 20), "bins"),
        "engine": _resolve(engine, file_cfg, "engine", "infinite"),
        "seed": base_seed,
        "jobs": _int_field(_resolve(jobs, file_cfg, "jobs", 1), "jobs"),
        "output_names": {"table": Path(out_path).name},
    }
    digests = run_experiment_files(params, {"table": out_path})
    click.echo(f"wrote {out_path} ({len(digests)} file)")
    _finish_with_manifest("experiment", params, base_seed, digests,
                          manifest_path or out_path + ".manifest.json",
                          None, started)


@main.command()
@click.option("--quick", is_flag=True, help="Small subset, finishes in seconds.")
@click.option("--inject-fault", is_flag=True,
              help="Flip the matrix engine to non-strict visibility; the "
                   "equivalence suite must then fail (self-test of the suite).")
@click.option("--seed", type=int, default=None)
@_guard
def validate(quick, inject_fault, seed):
    """Run the engine cross-check suites; exit 1 on any failure."""
    base_seed = _resolve_seed(seed, {})
    results = run_validation(base_seed=base_seed, quick=quick,
                             strict_visibility=not inject_fault)
    all_ok = True
    for res in results:
        mark = "ok" if res.passed else "FAIL"
        click.echo(f"[{mark}] {res.name}: {res.detail}")
        all_ok = all_ok and res.passed
    if not all_ok:
        sys.exit(1)


@main.command()
@click.argument("manifest_file", type=click.Path(exists=True))
@click.option("--out-dir", type=click.Path(), default="replay-out", show_default=True,
              help="Directory for the re-created outputs.")
@click.option("--check/--no-check", default=True, show_default=True,
              help="Compare digests against the manifest.")
@_guard
def replay(manifest_file, out_dir, check):
    """Re-run a recorded command and verify byte-identical outputs."""
    manifest = load_manifest(manifest_file)
    if (manifest.version, manifest.schema_version) != (__version__, SCHEMA_VERSION):
        raise ConfigError(
            f"manifest was written by blocksim {manifest.version} (schema "
            f"{manifest.schema_version}); this is blocksim {__version__} (schema "
            f"{SCHEMA_VERSION})")
    if manifest.command not in _REPLAY_PARAMS:
        raise ConfigError(f"manifest records unknown command {manifest.command!r}")
    missing = [key for key in _REPLAY_PARAMS[manifest.command] if key not in manifest.params]
    if missing:
        raise ConfigError(f"manifest params lack {', '.join(missing)}")
    out_dir = Path(out_dir)
    if manifest.command == "simulate":
        names = _output_names(manifest.params, ("outcome",))
        out_paths = {role: (out_dir / name if name else None)
                     for role, name in names.items()}
        digests = run_simulate(manifest.params, out_paths)
    else:
        names = _output_names(manifest.params, ("table",))
        digests = run_experiment_files(manifest.params,
                                       {"table": out_dir / names["table"]})

    if not check:
        click.echo(f"re-created {len(digests)} file(s) in {out_dir}")
        return
    bad = []
    for name, digest in manifest.outputs.items():
        got = digests.get(name)
        status = "match" if got == digest else "MISMATCH"
        if got != digest:
            bad.append(name)
        click.echo(f"{name}: {status}")
    if bad:
        click.echo(f"replay differs for: {', '.join(bad)}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
