"""Replay across versions: every committed manifest must still match.

The manifests in tests/data/replay were written by earlier versions of
the package (tests/data/replay/make_corpus.py); replaying one here
recomputes its outputs from the manifest alone.  A change that moves
output bytes adds new manifests and leaves these as they are.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from blocksim.cli import main
from blocksim.montecarlo import ENGINES, EXPERIMENTS

CORPUS = Path(__file__).resolve().parent / "data" / "replay"
MANIFESTS = sorted(CORPUS.glob("*.json"))


@pytest.fixture(autouse=True)
def no_ambient_seed(monkeypatch):
    monkeypatch.delenv("BLOCKSIM_SEED", raising=False)


def test_corpus_covers_every_engine_and_kind():
    runs = {(doc["command"], doc["params"].get("kind"), doc["params"]["engine"])
            for doc in (json.loads(p.read_text()) for p in MANIFESTS)}
    assert {("simulate", None, e) for e in ENGINES} <= runs
    assert {k for c, k, _ in runs if c == "experiment"} == set(EXPERIMENTS)
    assert {("experiment", "single", e) for e in ENGINES} <= runs


@pytest.mark.parametrize("manifest", MANIFESTS, ids=[p.stem for p in MANIFESTS])
def test_manifest_replays_byte_for_byte(manifest, tmp_path):
    result = CliRunner().invoke(main, ["replay", str(manifest), "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    outputs = json.loads(manifest.read_text())["outputs"]
    assert outputs
    for name in outputs:
        assert f"{name}: match" in result.output.splitlines()
