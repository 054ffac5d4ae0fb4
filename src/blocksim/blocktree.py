"""Global blockchain data model: the rooted block tree, its export, and
the regime label of a delay/production ratio.

Blocks are numbered in creation order; block 0 is the unique origin.
The tree is stored as a parent array (block k attaches to parent[k] < k),
which keeps a tree of n blocks in O(n) memory.  Height is a node count:
the origin-only tree has height 1.

The exporters build their text SLICE values at a time: each slice is
formatted on its own (by json.dumps, or as dot lines) and the pieces are
joined once, so the bytes are those of one json.dumps of the whole tree
while the memory the export takes stays near twice the text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ConfigError

# Regime thresholds on the ratio delay_mean / production_mean.  The
# asymptotic regimes have no sharp boundary; these cutoffs are a
# documented convention and callers should surface the raw ratio too.
SLOW_BELOW = 0.01
CHAOTIC_ABOVE = 100.0

# Values per slice when a file is built from a tree's or a run's numbers.
SLICE = 4096


@dataclass(frozen=True)
class BlockTree:
    """Rooted tree of blocks in creation order, checked when built.

    parents[i] is the parent of block i+1 (the origin has none).
    times[k] is block k's absolute creation time; strictly increasing.
    producers[i] is the worker that produced block i+1.  tree_to_json
    writes these three fields, so ``BlockTree(**json.loads(text))``
    reads a tree back.
    """

    parents: tuple[int, ...]
    times: tuple[float, ...]
    producers: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(int(p) for p in self.parents))
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "producers", tuple(int(w) for w in self.producers))
        n = len(self.times)
        if n < 1:
            raise ValueError("a tree has at least the origin block")
        if len(self.parents) != n - 1:
            raise ValueError("parents must cover blocks 1..n-1")
        if len(self.producers) != n - 1:
            raise ValueError("producers must cover blocks 1..n-1")
        if self.times[0] != 0.0:
            raise ValueError("origin creation time must be 0")
        # Times strictly increase, so a finite last time makes every one finite.
        if not math.isfinite(self.times[-1]):
            raise ValueError(f"creation times must be finite, got {self.times[-1]}")
        for k in range(1, n):
            if not (0 <= self.parents[k - 1] < k):
                raise ValueError(f"block {k} must attach to an earlier block")
            if not (self.times[k] > self.times[k - 1]):
                raise ValueError("creation times must be strictly increasing")

    @property
    def n_blocks(self) -> int:
        return len(self.times)


def classify(alpha_mean: float, beta_mean: float) -> str:
    """Regime label from the delay/production mean ratio.

    Returns "slow" (ratio < 0.01), "chaotic" (ratio > 100), or "fast".
    The boundaries are soft; report the raw ratio alongside the label.
    """
    if alpha_mean <= 0:
        raise ConfigError("production mean must be > 0")
    if beta_mean < 0:
        raise ConfigError("delay mean must be >= 0")
    ratio = beta_mean / alpha_mean
    if ratio < SLOW_BELOW:
        return "slow"
    if ratio > CHAOTIC_ABOVE:
        return "chaotic"
    return "fast"


# ---------------------------------------------------------------------------
# Export


def sliced_json(doc: dict, separators: tuple[str, str]) -> str:
    """``json.dumps(doc, separators=separators)`` for a dict of sequences,
    each formatted SLICE values at a time: only one slice's number
    strings exist at once, not one per value of the whole doc."""
    item, key = separators
    parts = ["{"]
    for i, (name, values) in enumerate(doc.items()):
        parts += [item if i else "", json.dumps(name), key, "["]
        for start in range(0, len(values), SLICE):
            chunk = json.dumps(values[start:start + SLICE], separators=separators)
            parts += [item if start else "", chunk[1:-1]]
        parts.append("]")
    parts.append("}")
    return "".join(parts)


def tree_to_json(tree: BlockTree) -> str:
    return sliced_json({"parents": tree.parents, "producers": tree.producers,
                        "times": tree.times}, (",", ":"))


def tree_to_dot(tree: BlockTree) -> str:
    """DOT digraph with one edge child -> parent per non-origin block."""
    parts = ["digraph blocktree {\n"]
    for start in range(1, tree.n_blocks, SLICE):
        edges = enumerate(tree.parents[start - 1:start - 1 + SLICE], start)
        parts.append("".join(f"  {k} -> {p};\n" for k, p in edges))
    parts.append("}\n")
    return "".join(parts)


def export_tree(tree: BlockTree, fmt: str) -> str:
    if fmt == "json":
        return tree_to_json(tree)
    if fmt == "dot":
        return tree_to_dot(tree)
    raise ConfigError(f"unsupported tree format {fmt!r} (use dot or json)")
