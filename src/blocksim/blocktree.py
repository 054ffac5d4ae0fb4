"""Global blockchain data model: the rooted block tree, its export, and
the regime label of a delay/production ratio.

Blocks are numbered in creation order; block 0 is the unique origin.
The tree is stored as three flat read-only numpy arrays: a parent array
(block k attaches to parent[k] < k), the creation times and the
producers, so a tree of n blocks takes 24 bytes per block.  Height is a
node count: the origin-only tree has height 1.

The exporters build their text SLICE values at a time: each slice is
turned into Python numbers and formatted on its own (by json.dumps, or
as dot lines), and the pieces are joined once, so the bytes are those
of one json.dumps of the whole tree while the memory the export takes
stays near twice the text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError

# Regime thresholds on the ratio delay_mean / production_mean.  The
# asymptotic regimes have no sharp boundary; these cutoffs are a
# documented convention and callers should surface the raw ratio too.
SLOW_BELOW = 0.01
CHAOTIC_ABOVE = 100.0

# Values per slice when a file is built from a tree's or a run's numbers.
SLICE = 4096


# What each field holds: the numpy kinds it accepts and the dtype it is kept as.
_HOLDS = {"integers": ("iu", np.int64), "numbers": ("iuf", np.float64)}


def _flat(name: str, values, holds: str) -> np.ndarray:
    """``values`` as a read-only 1-D array, not copied when it already is
    one of the kept dtype; ValueError unless it holds ``holds``."""
    kinds, dtype = _HOLDS[holds]
    array = np.asarray(values)
    if array.ndim != 1:
        raise ValueError(f"{name} must be a flat sequence")
    # numpy reads bools mixed with numbers as numbers, so look for them too.
    if array.size and (array.dtype.kind not in kinds or not isinstance(values, np.ndarray)
                       and not {bool, np.bool_}.isdisjoint(map(type, values))):
        raise ValueError(f"{name} must hold {holds}")
    array = array.astype(dtype, copy=False).view()
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class BlockTree:
    """Rooted tree of blocks in creation order, checked when built.

    parents[i] is the parent of block i+1 (the origin has none).
    times[k] is block k's absolute creation time; strictly increasing.
    producers[i] is the worker that produced block i+1.  Any sequences
    of numbers are accepted and kept as read-only int64, float64 and
    int64 arrays; an array of that dtype is kept without a copy, so its
    owner must not change it afterwards.  tree_to_json writes these
    three fields, so ``BlockTree(**json.loads(text))`` reads a tree back.
    """

    parents: np.ndarray
    times: np.ndarray
    producers: np.ndarray

    def __post_init__(self):
        parents = _flat("parents", self.parents, "integers")
        times = _flat("times", self.times, "numbers")
        producers = _flat("producers", self.producers, "integers")
        for name, array in (("parents", parents), ("times", times), ("producers", producers)):
            object.__setattr__(self, name, array)
        n = len(times)
        if n < 1:
            raise ValueError("a tree has at least the origin block")
        if len(parents) != n - 1:
            raise ValueError("parents must cover blocks 1..n-1")
        if len(producers) != n - 1:
            raise ValueError("producers must cover blocks 1..n-1")
        if times[0] != 0.0:
            raise ValueError("origin creation time must be 0")
        # Times strictly increase, so a finite last time makes every one finite.
        if not np.isfinite(times[-1]):
            raise ValueError(f"creation times must be finite, got {times[-1]}")
        # The earliest block that breaks a rule is named; within one block
        # its parent is checked before its time and its producer.
        rules = (((parents < 0) | (parents >= np.arange(1, n)),
                  "block {k} must attach to an earlier block"),
                 (~(times[1:] > times[:-1]), "creation times must be strictly increasing"),
                 (producers < 0, "block {k} has a negative producer"))
        broken = [(int(np.argmax(bad)) + 1, text) for bad, text in rules if bad.any()]
        if broken:
            k, text = min(broken, key=lambda rule: rule[0])
            raise ValueError(text.format(k=k))

    def __eq__(self, other):
        if not isinstance(other, BlockTree):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

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
    """``json.dumps(doc, separators=separators)`` for a dict of sequences
    or 1-D arrays, each formatted SLICE values at a time: only one slice's
    numbers and number strings exist at once, not one per value of the
    whole doc."""
    item, key = separators
    parts = ["{"]
    for i, (name, values) in enumerate(doc.items()):
        parts += [item if i else "", json.dumps(name), key, "["]
        for start in range(0, len(values), SLICE):
            part = values[start:start + SLICE]
            chunk = json.dumps(part.tolist() if isinstance(part, np.ndarray) else part,
                               separators=separators)
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
        edges = enumerate(tree.parents[start - 1:start - 1 + SLICE].tolist(), start)
        parts.append("".join(f"  {k} -> {p};\n" for k, p in edges))
    parts.append("}\n")
    return "".join(parts)


def export_tree(tree: BlockTree, fmt: str) -> str:
    if fmt == "json":
        return tree_to_json(tree)
    if fmt == "dot":
        return tree_to_dot(tree)
    raise ConfigError(f"unsupported tree format {fmt!r} (use dot or json)")
