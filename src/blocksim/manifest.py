"""Run manifests: the record that makes every output reproducible.

Every CLI command that writes files also writes a manifest naming the
artifact version, the fully resolved parameters (seeds included), the
derived per-role stream seeds when a single run is involved, and a
sha256 digest per output file.  Re-running from the manifest must
reproduce the digests bit for bit; the replay command automates that.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError

# Version of the manifest layout and of the CSV schemas it points at.
SCHEMA_VERSION = 1

# Characters encoded and written at a time by write_text.
WRITE_SLICE = 1 << 16


@dataclass
class RunManifest:
    command: str
    params: dict
    base_seed: int
    version: str
    outputs: dict[str, str] = field(default_factory=dict)
    stream_seeds: dict | None = None
    duration_s: float = 0.0
    schema_version: int = SCHEMA_VERSION


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_text(path, data: str, make_parents: bool = False) -> None:
    """Write ``data`` to ``path`` as UTF-8; a path that cannot be written
    raises ConfigError.  The text is encoded and written WRITE_SLICE
    characters at a time, so no encoded copy of the whole text is made.
    Any exception once the file is open removes it, so no truncated file
    is left; a path that could not be opened stays as it was."""
    path, opened = Path(path), False
    try:
        if make_parents:
            path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as f:
            opened = True
            for start in range(0, len(data), WRITE_SLICE):
                f.write(data[start:start + WRITE_SLICE].encode())
    except BaseException as exc:
        if opened:
            with contextlib.suppress(OSError):
                path.unlink()
        if not isinstance(exc, OSError):
            raise
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def check_writable(path, make_parents: bool = False) -> None:
    """Raise the ConfigError write_text would raise for ``path``, writing nothing."""
    path = Path(path)
    # The directory that must exist: write_text makes an output's missing ones.
    parent = next((p for p in path.parents if p.exists() or not make_parents), path.parent)
    code = (errno.EISDIR if path.is_dir() else None if parent.is_dir()
            else errno.ENOTDIR if parent.exists() else errno.ENOENT)
    if code:
        raise ConfigError(f"cannot write {path}: {os.strerror(code)}")


def read_object(path, what: str) -> dict:
    """The JSON object in the file at ``path``.  A file that cannot be
    read or decoded, is not JSON, is nested too deeply to parse or holds
    no object raises ConfigError naming ``what`` and the path."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return doc


def write_manifest(manifest: RunManifest, path) -> None:
    write_text(path, json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n")


def load_manifest(path) -> RunManifest:
    """Read a manifest; a file that is not one raises ConfigError."""
    doc = read_object(path, "manifest")
    known = fields(RunManifest)
    missing = [f.name for f in known
               if f.default is MISSING and f.default_factory is MISSING and f.name not in doc]
    if missing:
        raise ConfigError(f"manifest {path} lacks {', '.join(missing)}")
    for name in ("params", "outputs"):
        if not isinstance(doc.get(name, {}), dict):
            raise ConfigError(f"manifest {path}: {name} must be a JSON object")
    if not isinstance(doc["command"], str):
        raise ConfigError(f"manifest {path}: command must be a string")
    if not isinstance(doc["base_seed"], int) or isinstance(doc["base_seed"], bool):
        raise ConfigError(f"manifest {path}: base_seed must be an integer")
    return RunManifest(**{f.name: doc[f.name] for f in known if f.name in doc})
