"""Command-line front end.

Four commands: ``simulate`` runs one engine once and writes an outcome
JSON (plus optional tree/series files), ``experiment`` runs a sweep and
writes a CSV table, ``validate`` runs the cross-check suites, and
``replay`` re-executes a recorded manifest and verifies the outputs
byte for byte.

Each command's config fields live in one table, ``_FIELDS``: a field's
default, its parser and its help text.  The table makes the field's
flag (``--tree-format`` for ``tree_format``), which click collects as
plain text, so a value from a flag, from a JSON config file or from a
replayed manifest goes through the same parser and fails the same way:
exit 2 and one ``error:`` line.  A flag beats the config file, which
beats BLOCKSIM_SEED (for the seed only) and then the default.  Config
file keys are the field names (``reps``, ``tree_format``); a key that
names no field exits 2.  ``replay`` reads a manifest's params as it
would read a config file, with the manifest's base seed as its only
flag.  Exit codes: 0 success, 1 validation or replay mismatch, 2 usage
or configuration error, 3 the run failed (out of memory, or a pool
worker died); no manifest is written for a failed run.
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

# blocksim calls no BLAS routine, but numpy's and scipy's OpenBLAS each
# start a thread pool when they load, and its idle threads spin on CPU.
# One thread starts none.  A caller's own value wins; library imports
# leave the environment alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .blocktree import classify, export_tree, sliced_json
from .distributions import DistributionSpec, parse_spec, spec_from_dict
from .errors import ConfigError, RunError
from .manifest import (SCHEMA_VERSION, RunManifest, check_writable, load_manifest, sha256_file,
                       write_manifest, write_text)
from .montecarlo import ENGINES, EXPERIMENTS, run_experiment
from .network import NetSimConfig
from .validate import run_validation

# ---------------------------------------------------------------------------
# Config resolution helpers


def _load_config_file(path, command: str) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = [repr(key) for key in doc if key not in _FIELDS[command]]
    if unknown:
        raise ConfigError(f"config file {path}: unknown key {', '.join(unknown)}; "
                          f"{command} fields are {', '.join(_FIELDS[command])}")
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


def _choice(what: str, names):
    """A parser for one of ``names``; dashes in a value stand for underscores."""
    def parse(value, key: str) -> str:
        name = value.replace("-", "_") if isinstance(value, str) else None
        if name not in names:
            raise ConfigError(f"unknown {what} {value!r} (use {', '.join(names)})")
        return name
    return parse


def _worker_count(value, key: str) -> int:
    m = _int_field(value, key)
    if m < 1:
        raise ConfigError(f"worker count {key} must be >= 1, got {m}")
    return m


def _sweep(value, key: str) -> list[float]:
    """A sweep from a comma-separated string or a list of numbers, not booleans."""
    if isinstance(value, str):
        value = [x for x in value.split(",") if x.strip()]
    if not isinstance(value, (list, tuple)) or any(isinstance(x, bool) for x in value):
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    try:
        return [float(x) for x in value]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key} list: {exc}") from None


_REQUIRED = object()
# Fields that both simulate and experiment read.
_ALPHA = (_REQUIRED, _spec, "Production-time distribution, e.g. exp:1, gamma:0.5:2, const:1.")
_BETA = (_REQUIRED, _spec, "Broadcast-delay distribution, e.g. exp:0.1, const:0.")
_N = (_REQUIRED, _int_field, "Total blocks to produce, origin included.")
_SEED = (_env_seed, _int_field, "Base seed (default: BLOCKSIM_SEED, else 0).")
# Each command's config fields, in resolution order, as (default, parser,
# help).  A callable default is computed from the fields resolved before it.
_FIELDS = {
    "simulate": {
        "engine": ("matrix", _choice("engine", ENGINES),
                   f"Simulation engine: {', '.join(ENGINES)}."),
        "alpha": _ALPHA, "beta": _BETA,
        "m": (None, _worker_count, "Worker count (bounded engines)."),
        "n": _N, "seed": _SEED,
        "tree_format": ("dot", _choice("tree format", ("dot", "json")),
                        "Format of the --tree-out file: dot or json."),
    },
    "experiment": {
        "kind": (_REQUIRED, _choice("experiment kind", EXPERIMENTS),
                 f"Experiment family: {', '.join(k.replace('_', '-') for k in EXPERIMENTS)}."),
        "alpha": _ALPHA, "beta": _BETA, "n": _N,
        "reps": (lambda f: EXPERIMENTS[f["kind"]].reps, _int_field,
                 "Replications per point (default: set by the kind)."),
        "sweep": (lambda f: EXPERIMENTS[f["kind"]].sweep, _sweep,
                  "Comma-separated worker counts (convergence) or mean ratios "
                  "(efficiency) (default: set by the kind)."),
        "m": (100, _worker_count, "Bounded-engine worker count for pdf-histogram/single."),
        "bins": (20, _int_field, "Histogram bins."),
        "engine": ("infinite", _choice("engine", ENGINES), "Engine for kind=single."),
        "seed": _SEED,
        "jobs": (1, _int_field, "Concurrent replication workers."),
    },
}


def _resolve_fields(command: str, flags: dict, source: dict) -> dict:
    """The command's fields: flag, then source, then default.

    The source is a config file or the params of a manifest being
    replayed; a null in it counts as unset.  Every value but a None
    default is parsed.
    """
    fields = {}
    for key, (default, parse, _) in _FIELDS[command].items():
        value = flags[key] if flags.get(key) is not None else source.get(key)
        if value is None:
            value = default(fields) if callable(default) else default
        if value is _REQUIRED:
            raise ConfigError(f"missing {key}: no flag, config file or manifest sets it")
        fields[key] = value if value is None else parse(value, key)
    return fields


def _input_options(command: str):
    """One text option per field of the command, then --config and --manifest.

    A field's option has no type and no default: click only collects
    the text, and _resolve_fields parses it as it parses a config file.
    """
    options = []
    for key, (default, _, text) in _FIELDS[command].items():
        if not (callable(default) or default in (None, _REQUIRED)):
            text = f"{text}  [default: {default}]"
        options.append(click.option(f"--{key.replace('_', '-')}", key, metavar=key.upper(),
                                    help=text))
    options += [
        click.option("--config", type=click.Path(),
                     help="JSON config file; flags override its fields."),
        click.option("--manifest", type=click.Path(),
                     help="Manifest path (default: <out>.manifest.json).")]
    return lambda fn: functools.reduce(lambda f, option: option(f), reversed(options), fn)


def _run_failures() -> tuple:
    """The exceptions of a run that failed on valid input.

    Called only once an exception reaches ``_guard``, so the pool's
    module loads for no command that raised none.
    """
    from concurrent.futures.process import BrokenProcessPool
    return RunError, MemoryError, BrokenProcessPool


def _guard(fn):
    """Map configuration errors to exit code 2, and failed runs to exit
    code 3, each with one ``error:`` line; any other exception is a bug
    and keeps its traceback."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except Exception as exc:
            if not isinstance(exc, _run_failures()):
                raise
            click.echo(f"error: {str(exc) or type(exc).__name__}", err=True)
            sys.exit(3)

    return wrapped


# ---------------------------------------------------------------------------
# Core runners, shared between the direct commands and replay


def _check_targets(out_paths: dict, manifest=None) -> None:
    """Fail before anything runs or prints if a target cannot be written,
    if two targets (out_paths by role, and the manifest) are one file, or
    if two outputs share a name: the manifest keys their digests by name,
    and replay writes them into one directory."""
    seen = {}
    for role, path in [*out_paths.items(), ("manifest", manifest)]:
        if path is not None:
            other = seen.setdefault(Path(path).resolve(), role)
            if other != role:
                raise ConfigError(f"the {other} and {role} outputs are both {path}")
    named = {}
    for role, path in out_paths.items():
        if path is not None:
            other = named.setdefault(Path(path).name, role)
            if other != role:
                raise ConfigError(f"the {other} and {role} outputs are both named "
                                  f"{Path(path).name}")
    outputs = [p for p in out_paths.values() if p is not None]
    for path in outputs:
        check_writable(path, make_parents=True)
    if manifest is not None:
        # Written without making directories, after the outputs' writes made theirs.
        made = {d for p in outputs for d in Path(p).resolve().parents}
        check_writable(manifest, make_parents=Path(manifest).resolve().parent in made)


def _write_bytes(path: Path, data: str) -> str:
    write_text(path, data, make_parents=True)
    return sha256_file(path)


def run_simulate(fields: dict, out_paths: dict):
    """Execute one simulation run and write its files.

    fields are the resolved simulate fields; out_paths maps the roles
    "outcome", "tree", "series" to target paths.  Returns {basename:
    sha256} for every file written, the lines to print and the run's
    stream seeds.
    """
    engine, alpha, beta, n, seed = (fields[k] for k in ("engine", "alpha", "beta", "n", "seed"))
    want_tree = out_paths.get("tree") is not None
    if want_tree and engine != "network":
        raise ConfigError("--tree-out needs the network engine; "
                          "the closed-form engines track heights only")

    outcome = ENGINES[engine](NetSimConfig(m=fields["m"], n=n, alpha=alpha, beta=beta,
                                           seed=seed, record_tree=want_tree))

    doc = {"engine": engine, "n": n, "seed": seed,
           "p_n": outcome.proportion, "height": outcome.height}
    render = {"outcome": lambda: json.dumps(doc, sort_keys=True, indent=2) + "\n",
              "tree": lambda: export_tree(outcome.tree, fields["tree_format"]),
              "series": lambda: sliced_json({"height_series": outcome.height_series},
                                            (", ", ": ")) + "\n"}
    digests = {}
    for role, text in render.items():
        if out_paths.get(role) is not None:
            path = Path(out_paths[role])
            digests[path.name] = _write_bytes(path, text())
    lines = [f"p_n={outcome.proportion:.6f} height={outcome.height} n={n} engine={engine}",
             f"regime={classify(alpha.mean, beta.mean)} "
             f"(delay/production ratio {beta.mean / alpha.mean:g})"]
    return digests, lines, outcome.seed_echo


def run_experiment_files(fields: dict, out_paths: dict):
    """Execute the experiment the resolved fields describe and write its CSV table.

    Returns {basename: sha256} of the table, the lines to print and no
    stream seeds.
    """
    result = run_experiment(**fields)

    csv = [",".join(result.columns)]
    for row in result.rows:
        csv.append(",".join(repr(c) if isinstance(c, float) else str(c) for c in row))
    table = Path(out_paths["table"])
    digests = {table.name: _write_bytes(table, "\n".join(csv) + "\n")}
    wrote = f"wrote {out_paths['table']} ({len(digests)} file)"
    return digests, [line for line in (result.note, wrote) if line], None


# Each command's output roles, the first one required, and its runner.  The
# runner is looked up when it runs, so a wrapped module function is the one run.
_RUNNERS = {
    "simulate": (("outcome", "tree", "series"), lambda *a: run_simulate(*a)),
    "experiment": (("table",), lambda *a: run_experiment_files(*a)),
}


def _run_command(command: str, flags: dict) -> None:
    """Resolve the fields, check the targets, run, and record the manifest."""
    started = time.perf_counter()
    fields = _resolve_fields(command, flags, _load_config_file(flags["config"], command))
    roles, run = _RUNNERS[command]
    out_paths = {role: flags[role] for role in roles}
    manifest_path = flags["manifest"] or out_paths[roles[0]] + ".manifest.json"
    _check_targets(out_paths, manifest_path)
    digests, lines, stream_seeds = run(fields, out_paths)
    for line in lines:
        click.echo(line)

    params = {**fields, "alpha": fields["alpha"].to_dict(), "beta": fields["beta"].to_dict(),
              "output_names": {role: Path(p).name if p else None for role, p in out_paths.items()}}
    if "reps" in params:
        params["replications"] = params.pop("reps")
    write_manifest(RunManifest(
        command=command, params=params, base_seed=fields["seed"], version=__version__,
        outputs=digests, stream_seeds=stream_seeds,
        duration_s=round(time.perf_counter() - started, 6)), manifest_path)


# ---------------------------------------------------------------------------
# Commands


@click.group()
@click.version_option(version=__version__, prog_name="blocksim")
def main():
    """Simulate longest-chain block production under broadcast delay."""


@main.command()
@_input_options("simulate")
@click.option("--out", "outcome", type=click.Path(), default="outcome.json",
              show_default=True, help="Outcome JSON path.")
@click.option("--tree-out", "tree", type=click.Path(),
              help="Write the block tree (network engine only).")
@click.option("--series-out", "series", type=click.Path(),
              help="Write the per-block height series as JSON.")
@_guard
def simulate(**flags):
    """Run one simulation and write the outcome files."""
    _run_command("simulate", flags)


@main.command()
@_input_options("experiment")
@click.option("--out", "table", type=click.Path(), default="experiment.csv",
              show_default=True, help="CSV table path.")
@_guard
def experiment(**flags):
    """Run a sweep experiment and write its CSV table."""
    _run_command("experiment", flags)


@main.command()
@click.option("--quick", is_flag=True, help="Small subset, finishes in seconds.")
@click.option("--inject-fault", is_flag=True,
              help="Flip the matrix engine to non-strict visibility; the "
                   "equivalence suite must then fail (self-test of the suite).")
@click.option("--seed", metavar="SEED", help=_SEED[2])
@_guard
def validate(quick, inject_fault, seed):
    """Run the engine cross-check suites; exit 1 on any failure."""
    base_seed = _env_seed() if seed is None else _int_field(seed, "seed")
    results = run_validation(base_seed=base_seed, quick=quick,
                             strict_visibility=not inject_fault)
    for res in results:
        click.echo(f"[{'ok' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
    if not all(res.passed for res in results):
        sys.exit(1)


@main.command()
@click.argument("manifest_file", type=click.Path())
@click.option("--out-dir", type=click.Path(), default="replay-out", show_default=True,
              help="Directory for the re-created outputs.")
@click.option("--check/--no-check", default=True, show_default=True,
              help="Compare digests against the manifest.")
@_guard
def replay(manifest_file, out_dir, check):
    """Re-run a recorded command and verify byte-identical outputs.

    Prints what the recorded command printed, then one line per output.
    """
    manifest = load_manifest(manifest_file)
    if (manifest.version, manifest.schema_version) != (__version__, SCHEMA_VERSION):
        raise ConfigError(
            f"manifest was written by blocksim {manifest.version} (schema "
            f"{manifest.schema_version}); this is blocksim {__version__} (schema "
            f"{SCHEMA_VERSION})")
    if manifest.command not in _RUNNERS:
        raise ConfigError(f"manifest records unknown command {manifest.command!r}")
    params, out_dir = manifest.params, Path(out_dir)
    # The table's reps field is recorded as replications.
    source = {**params, "reps": params.get("replications")}
    fields = _resolve_fields(manifest.command, {"seed": manifest.base_seed}, source)
    roles, run = _RUNNERS[manifest.command]
    names = _output_names(params, roles[:1])
    out_paths = {role: (out_dir / name if name else None) for role, name in names.items()}
    _check_targets(out_paths)
    digests, lines, _ = run(fields, out_paths)
    for line in lines:
        click.echo(line)

    if not check:
        click.echo(f"re-created {len(digests)} file(s) in {out_dir}")
        return
    bad = [name for name, digest in manifest.outputs.items() if digests.get(name) != digest]
    for name in manifest.outputs:
        click.echo(f"{name}: {'MISMATCH' if name in bad else 'match'}")
    if bad:
        click.echo(f"replay differs for: {', '.join(bad)}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
