"""Command-line front end.

Four commands: ``simulate`` runs one engine once and writes an outcome
JSON (plus optional tree/series files), ``experiment`` runs a sweep and
writes a CSV table, ``validate`` runs the cross-check suites, and
``replay`` re-executes a recorded manifest and verifies the outputs
byte for byte.

Configuration comes from flags, an optional JSON config file, the
BLOCKSIM_SEED environment variable (for the seed only), and defaults,
in that order of precedence, all resolved through one field table per
command.  ``replay`` reads a manifest's params through the same table,
as it would read a config file, with the manifest's base seed as its
only flag.  Exit codes: 0 success, 1 validation or replay mismatch,
2 usage or configuration error.
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
from .manifest import (SCHEMA_VERSION, RunManifest, check_writable, load_manifest, sha256_file,
                       write_manifest, write_text)
from .montecarlo import ENGINES, EXPERIMENTS, ExperimentPlan, engine_config, run_experiment
from .validate import run_validation

_ENGINE_CHOICES = tuple(ENGINES)
_TREE_FORMATS = ("dot", "json")
# Each kind by its own name and with dashes for underscores.
_KIND_ALIASES = {alias: kind for kind in EXPERIMENTS
                 for alias in dict.fromkeys((kind.replace("_", "-"), kind))}


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


def _output_names(params: dict, roles: tuple[str, ...]) -> dict:
    """A manifest's output names: plain file names, one per required role."""
    names = params.get("output_names")
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


def _env_seed(fields=None) -> int:
    """The seed from BLOCKSIM_SEED, or 0 when it is unset."""
    env = os.environ.get("BLOCKSIM_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"BLOCKSIM_SEED must be an integer, got {env!r}") from None


def _spec(value, key: str) -> DistributionSpec:
    """A distribution from a spec string or a config-file object."""
    if isinstance(value, str):
        return parse_spec(value)
    if isinstance(value, dict):
        return spec_from_dict(value)
    raise ConfigError(f"{key} must be a spec string or object, got {value!r}")


def _engine(value, key: str) -> str:
    if value not in _ENGINE_CHOICES:
        raise ConfigError(f"unknown engine {value!r}")
    return value


def _kind(value, key: str) -> str:
    if not isinstance(value, str) or value not in _KIND_ALIASES:
        raise ConfigError(f"unknown experiment kind {value!r}")
    return _KIND_ALIASES[value]


def _worker_count(value, key: str) -> int:
    m = _int_field(value, key)
    if m < 1:
        raise ConfigError(f"worker count {key} must be >= 1, got {m}")
    return m


def _sweep(value, key: str) -> list[float]:
    """A sweep from a comma-separated string or a list of numbers."""
    if isinstance(value, str):
        value = [x for x in value.split(",") if x.strip()]
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    try:
        return [float(x) for x in value]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key} list: {exc}") from None


_REQUIRED = object()
# Each command's config fields, in resolution order, with their defaults.
# A callable default is computed from the fields resolved before it.
_FIELDS = {
    "simulate": {"engine": "matrix", "alpha": _REQUIRED, "beta": _REQUIRED,
                 "m": None, "n": _REQUIRED, "seed": _env_seed},
    "experiment": {
        "kind": _REQUIRED, "alpha": _REQUIRED, "beta": _REQUIRED, "n": _REQUIRED,
        "reps": lambda f: EXPERIMENTS[f["kind"]].reps,
        "sweep": lambda f: EXPERIMENTS[f["kind"]].sweep,
        "m": 100, "bins": 20, "engine": "infinite", "seed": _env_seed, "jobs": 1,
    },
}
_PARSERS = {"engine": _engine, "kind": _kind, "alpha": _spec, "beta": _spec,
            "m": _worker_count, "n": _int_field, "reps": _int_field, "sweep": _sweep,
            "bins": _int_field, "seed": _int_field, "jobs": _int_field}


def _resolve_fields(command: str, flags: dict, source: dict) -> dict:
    """The command's fields: flag, then source, then default.

    The source is a config file or the params of a manifest being
    replayed; a null in it counts as unset.  Every value but a None
    default is parsed.
    """
    fields = {}
    for key, default in _FIELDS[command].items():
        value = flags[key] if flags.get(key) is not None else source.get(key)
        if value is None:
            value = default(fields) if callable(default) else default
        if value is _REQUIRED:
            raise ConfigError(f"missing {key}: no flag, config file or manifest sets it")
        parse = _PARSERS.get(key)
        fields[key] = parse(value, key) if parse and value is not None else value
    return fields


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


def _check_targets(outputs, manifest=None) -> None:
    """Fail before anything runs or prints if a target cannot be written."""
    outputs = [p for p in outputs if p is not None]
    for path in outputs:
        check_writable(path, make_parents=True)
    if manifest is not None:
        # Written without making directories, after the outputs' writes made theirs.
        made = {d for p in outputs for d in Path(p).resolve().parents}
        check_writable(manifest, make_parents=Path(manifest).resolve().parent in made)


def _write_bytes(path: Path, data: str) -> str:
    write_text(path, data, make_parents=True)
    return sha256_file(path)


def run_simulate(fields: dict, tree_format: str | None, out_paths: dict):
    """Execute one simulation run and write its files.

    fields are the resolved simulate fields; out_paths maps the roles
    "outcome", "tree", "series" to target paths.  Returns the outcome
    and {basename: sha256} for every file written.
    """
    engine, n, seed = fields["engine"], fields["n"], fields["seed"]
    want_tree = out_paths.get("tree") is not None

    if want_tree and engine != "network":
        raise ConfigError("--tree-out needs the network engine; "
                          "the closed-form engines track heights only")
    if want_tree and tree_format not in _TREE_FORMATS:
        raise ConfigError(f"unsupported tree format {tree_format!r} (use dot or json)")

    outcome = ENGINES[engine](engine_config(engine, fields["alpha"], fields["beta"], n,
                                            fields["m"], seed, record_tree=want_tree))

    doc = {"engine": engine, "n": n, "seed": seed,
           "p_n": outcome.proportion, "height": outcome.height}
    render = {"outcome": lambda: json.dumps(doc, sort_keys=True, indent=2) + "\n",
              "tree": lambda: export_tree(outcome.tree, tree_format),
              "series": lambda: json.dumps({"height_series": list(outcome.height_series)}) + "\n"}
    digests = {}
    for role, text in render.items():
        if out_paths.get(role) is not None:
            path = Path(out_paths[role])
            digests[path.name] = _write_bytes(path, text())
    return outcome, digests


def run_experiment_files(fields: dict, out_paths: dict) -> dict[str, str]:
    """Execute the experiment the resolved fields describe and write its CSV table."""
    plan = ExperimentPlan(
        kind=fields["kind"], alpha=fields["alpha"], beta=fields["beta"], n=fields["n"],
        base_seed=fields["seed"], replications=fields["reps"], sweep=tuple(fields["sweep"]),
        m=fields["m"], bins=fields["bins"], engine=fields["engine"])
    result = run_experiment(plan, jobs=fields["jobs"])

    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(repr(c) if isinstance(c, float) else str(c) for c in row))
    table = Path(out_paths["table"])
    digest = _write_bytes(table, "\n".join(lines) + "\n")
    if result.note:
        click.echo(result.note)
    return {table.name: digest}


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
@click.option("--alpha", default=None, metavar="SPEC",
              help="Production-time distribution, e.g. exp:1, gamma:0.5:2, const:1.")
@click.option("--beta", default=None, metavar="SPEC",
              help="Broadcast-delay distribution, e.g. exp:0.1, const:0.")
@click.option("--m", type=int, default=None, help="Worker count (bounded engines).")
@click.option("--n", type=int, default=None,
              help="Total blocks to produce, origin included.")
@click.option("--seed", type=int, default=None,
              help="Base seed (default: config file, then BLOCKSIM_SEED, then 0).")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON config file; flags override its fields.")
@click.option("--out", "out_path", type=click.Path(), default="outcome.json",
              show_default=True, help="Outcome JSON path.")
@click.option("--tree-out", type=click.Path(), default=None,
              help="Write the block tree (network engine only).")
@click.option("--tree-format", type=click.Choice(_TREE_FORMATS), default="dot",
              show_default=True)
@click.option("--series-out", type=click.Path(), default=None,
              help="Write the per-block height series as JSON.")
@click.option("--manifest", "manifest_path", type=click.Path(), default=None,
              help="Manifest path (default: <out>.manifest.json).")
@_guard
def simulate(**flags):
    """Run one simulation and write the outcome files."""
    started = time.perf_counter()
    fields = _resolve_fields("simulate", flags, _load_config_file(flags["config_path"]))
    alpha, beta = fields["alpha"], fields["beta"]
    out_paths = {"outcome": flags["out_path"], "tree": flags["tree_out"],
                 "series": flags["series_out"]}
    params = {
        **fields,
        "alpha": alpha.to_dict(),
        "beta": beta.to_dict(),
        "tree_format": flags["tree_format"],
        "output_names": {role: Path(p).name if p else None for role, p in out_paths.items()},
    }
    manifest_path = flags["manifest_path"] or flags["out_path"] + ".manifest.json"
    _check_targets(out_paths.values(), manifest_path)
    outcome, digests = run_simulate(fields, flags["tree_format"], out_paths)

    click.echo(f"p_n={outcome.proportion:.6f} height={outcome.height} n={fields['n']} "
               f"engine={fields['engine']}")
    click.echo(f"regime={classify(alpha.mean, beta.mean)} "
               f"(delay/production ratio {beta.mean / alpha.mean:g})")

    _finish_with_manifest("simulate", params, fields["seed"], digests, manifest_path,
                          outcome.seed_echo, started)


@main.command()
@click.option("--kind", type=click.Choice(tuple(_KIND_ALIASES)), default=None,
              help="Experiment family.")
@click.option("--alpha", default=None, metavar="SPEC")
@click.option("--beta", default=None, metavar="SPEC")
@click.option("--n", type=int, default=None)
@click.option("--reps", type=int, default=None,
              help="Replications per point (default 100; 1000 for pdf-histogram).")
@click.option("--sweep", default=None, metavar="LIST",
              help="Comma-separated worker counts (convergence) or mean ratios "
                   "(efficiency); efficiency defaults to a log grid 1e-3..1e2.")
@click.option("--m", type=int, default=None,
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
def experiment(**flags):
    """Run a sweep experiment and write its CSV table."""
    started = time.perf_counter()
    fields = _resolve_fields("experiment", flags, _load_config_file(flags["config_path"]))
    out_path = flags["out_path"]
    params = {**fields, "alpha": fields["alpha"].to_dict(), "beta": fields["beta"].to_dict(),
              "output_names": {"table": Path(out_path).name}}
    params["replications"] = params.pop("reps")
    manifest_path = flags["manifest_path"] or out_path + ".manifest.json"
    _check_targets([out_path], manifest_path)
    digests = run_experiment_files(fields, {"table": out_path})
    click.echo(f"wrote {out_path} ({len(digests)} file)")
    _finish_with_manifest("experiment", params, fields["seed"], digests, manifest_path,
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
    base_seed = _env_seed() if seed is None else seed
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
    if manifest.command not in _FIELDS:
        raise ConfigError(f"manifest records unknown command {manifest.command!r}")
    params, out_dir = manifest.params, Path(out_dir)
    # The table's reps field is recorded as replications.
    source = {**params, "reps": params.get("replications")}
    fields = _resolve_fields(manifest.command, {"seed": manifest.base_seed}, source)
    names = _output_names(params, ("outcome",) if manifest.command == "simulate" else ("table",))
    out_paths = {role: (out_dir / name if name else None) for role, name in names.items()}
    _check_targets(out_paths.values())
    if manifest.command == "simulate":
        _, digests = run_simulate(fields, params.get("tree_format"), out_paths)
    else:
        digests = run_experiment_files(fields, out_paths)

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
