import errno
import hashlib
import json
import os
from pathlib import Path

import pytest

from blocksim.errors import ConfigError
from blocksim.manifest import (SCHEMA_VERSION, WRITE_SLICE, RunManifest,
                               load_manifest, sha256_file, write_manifest,
                               write_text)


def sample_manifest():
    return RunManifest(command="simulate",
                       params={"n": 10, "seed": 3},
                       base_seed=3,
                       version="0.1.0",
                       outputs={"outcome.json": "ab" * 32},
                       stream_seeds={"production": 1, "producer": 2, "delay": 3},
                       duration_s=0.5)


class TestManifestIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.manifest.json"
        write_manifest(sample_manifest(), path)
        assert load_manifest(path) == sample_manifest()

    def test_schema_version_recorded(self, tmp_path):
        path = tmp_path / "run.manifest.json"
        write_manifest(sample_manifest(), path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION

    def test_unknown_fields_ignored_on_load(self, tmp_path):
        path = tmp_path / "run.manifest.json"
        write_manifest(sample_manifest(), path)
        doc = json.loads(path.read_text())
        doc["future_field"] = {"x": 1}
        path.write_text(json.dumps(doc))
        assert load_manifest(path) == sample_manifest()

    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_manifest(sample_manifest(), a)
        write_manifest(sample_manifest(), b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().endswith("\n")

    def test_a_file_that_cannot_be_opened_stays(self, tmp_path, monkeypatch):
        # Only a file the failed write opened is removed.
        path = tmp_path / "outcome.json"
        path.write_text("kept")

        def refuse(self, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

        monkeypatch.setattr(Path, "open", refuse)
        with pytest.raises(ConfigError, match=f"cannot write {path}: "):
            write_text(path, "new")
        monkeypatch.undo()
        assert path.read_text() == "kept"

    def test_a_write_that_runs_out_of_memory_leaves_no_file(self, tmp_path):
        # The first slice is written; the second cannot be made.  The file
        # goes, and the MemoryError keeps its type (the CLI exits 3 on it).
        class OutOfMemoryAfterOneSlice(str):
            def __getitem__(self, key):
                if key.start:
                    raise MemoryError
                return super().__getitem__(key)

        path = tmp_path / "tree.json"
        with pytest.raises(MemoryError):
            write_text(path, OutOfMemoryAfterOneSlice("x" * (WRITE_SLICE + 1)))
        assert not path.exists()


class TestSha256:
    def test_matches_hashlib(self, tmp_path):
        path = tmp_path / "data.bin"
        payload = b"a" * 100_000 + b"tail"
        path.write_bytes(payload)
        assert sha256_file(path) == hashlib.sha256(payload).hexdigest()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        assert sha256_file(path) == hashlib.sha256(b"").hexdigest()
