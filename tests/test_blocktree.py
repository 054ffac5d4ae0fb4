import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blocksim.blocktree import (SLICE, BlockTree, classify, export_tree, sliced_json,
                                tree_to_dot, tree_to_json)
from blocksim.errors import ConfigError


def chain(n):
    return BlockTree(parents=tuple(range(n - 1)), times=tuple(float(i) for i in range(n)),
                     producers=(0,) * (n - 1))


def two_branch_seven():
    # Two competing branches off the origin: 0<-1<-5 and 0<-2<-3<-6,
    # with 4 hanging off 2.  Longest branch 0,2,3,6.
    return BlockTree(parents=(0, 0, 2, 2, 1, 3),
                     times=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
                     producers=(0, 1, 1, 1, 0, 1))


def random_tree(rng, n):
    parents = tuple(int(rng.integers(0, k)) for k in range(1, n))
    times = tuple(np.cumsum(np.concatenate(([0.0], rng.random(n - 1) + 1e-3))))
    producers = tuple(int(w) for w in rng.integers(0, 5, size=n - 1))
    return BlockTree(parents=parents, times=times, producers=producers)


class TestValidation:
    def test_origin_only(self):
        t = BlockTree(parents=(), times=(0.0,), producers=())
        assert t.n_blocks == 1

    def test_parent_must_precede(self):
        with pytest.raises(ValueError):
            BlockTree(parents=(1,), times=(0.0, 1.0), producers=(0,))

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            BlockTree(parents=(0,), times=(0.0, 0.0), producers=(0,))

    def test_origin_time_zero(self):
        with pytest.raises(ValueError):
            BlockTree(parents=(), times=(1.0,), producers=())

    @pytest.mark.parametrize("last", [math.inf, math.nan])
    def test_times_must_be_finite(self, last):
        # An infinite time would be written as Infinity, which is not JSON.
        with pytest.raises(ValueError):
            BlockTree(parents=(0,), times=(0.0, last), producers=(0,))
        with pytest.raises(ValueError):
            BlockTree(parents=(0, 1), times=(0.0, 1.0, last), producers=(0, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            BlockTree(parents=(0, 0), times=(0.0, 1.0), producers=(0,))
        with pytest.raises(ValueError):
            BlockTree(parents=(0,), times=(0.0, 1.0), producers=(1, 2))

    @pytest.mark.parametrize("fields, message", [
        # Once read as parents (0, 1) and producers (0, 1).
        (dict(parents=(0.7, True), times=(0.0, 1.0, 2.0), producers=(0, 1.9)),
         "parents must hold integers"),
        (dict(parents=(0, True), times=(0.0, 1.0, 2.0), producers=(0, 1)),
         "parents must hold integers"),
        (dict(parents=(True,), times=(0.0, 1.0), producers=(0,)),
         "parents must hold integers"),
        (dict(parents=(0, 0), times=(0.0, 1.0, 2.0), producers=(0, 1.9)),
         "producers must hold integers"),
        (dict(parents=(0,), times=(0.0, 1.0), producers=(np.True_,)),
         "producers must hold integers"),
        # Once read as the numbers the strings spell.
        (dict(parents=("0",), times=("0", "1"), producers=(0,)),
         "parents must hold integers"),
        (dict(parents=(0,), times=("0", "1"), producers=(0,)),
         "times must hold numbers"),
        (dict(parents=(0,), times=(0.0, True), producers=(0,)),
         "times must hold numbers"),
        (dict(parents=(0,), times=(0.0, None), producers=(0,)),
         "times must hold numbers"),
        (dict(parents=(0,), times=((0.0, 1.0),), producers=(0,)),
         "times must be a flat sequence"),
        (dict(parents=(0, 0), times=(0.0, 1.0, 2.0), producers=(0, -1)),
         "block 2 has a negative producer"),
    ])
    def test_values_are_not_changed_to_fit(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BlockTree(**fields)

    def test_empty_sequences_of_any_type(self):
        for empty in ((), [], np.asarray([]), np.zeros(0, dtype=np.int64)):
            assert BlockTree(parents=empty, times=(0,), producers=empty).n_blocks == 1

    @pytest.mark.parametrize("parents, times, producers, message", [
        ((0, 0, 5, 9), (0.0, 1.0, 2.0, 3.0, 4.0), (0, 0, 0, 0),
         "block 3 must attach to an earlier block"),
        ((0, 0, 5, 9), (0.0, 1.0, 1.0, 3.0, 4.0), (0, 0, 0, 0),
         "creation times must be strictly increasing"),
        ((0, 0, 5, 9), (0.0, 1.0, 2.0, 3.0, 4.0), (0, -1, 0, 0),
         "block 2 has a negative producer"),
        # One block that breaks two rules is reported for its parent.
        ((0, 2, 0), (0.0, 1.0, 0.5, 3.0), (0, 0, 0),
         "block 2 must attach to an earlier block"),
    ])
    def test_earliest_bad_block_is_named(self, parents, times, producers, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BlockTree(parents=parents, times=times, producers=producers)

    def test_fields_are_read_only_arrays_kept_without_a_copy(self):
        times = np.array([0.0, 1.0, 2.5])
        tree = BlockTree(parents=[0, 1], times=times, producers=np.array([3, 0]))
        assert (tree.parents.dtype, tree.times.dtype, tree.producers.dtype) == (
            np.int64, np.float64, np.int64)
        assert np.shares_memory(tree.times, times)
        for field in (tree.parents, tree.times, tree.producers):
            with pytest.raises(ValueError):
                field[0] = 1
        assert times.flags.writeable
        assert tree == BlockTree(parents=(0, 1), times=(0, 1, 2.5), producers=(3, 0))
        assert tree != BlockTree(parents=(0, 0), times=(0, 1, 2.5), producers=(3, 0))
        assert tree != "tree"


class TestClassify:
    def test_regimes(self):
        assert classify(1.0, 0.0) == "slow"
        assert classify(1.0, 0.005) == "slow"
        assert classify(1.0, 1.0) == "fast"
        assert classify(1.0, 1000.0) == "chaotic"

    def test_boundary_ratios(self):
        assert classify(1.0, 0.01) == "fast"
        assert classify(1.0, 100.0) == "fast"

    def test_bitcoin_like_ratio_is_fast_side(self):
        # 600s per block vs 12.6s delay: ratio 0.021 lands just above the
        # slow cutoff, so the soft label is fast.
        assert classify(600.0, 12.6) == "fast"

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            classify(0.0, 1.0)
        with pytest.raises(ConfigError):
            classify(1.0, -1.0)


class TestExport:
    def test_origin_only_json(self):
        t = BlockTree(parents=(), times=(0.0,), producers=())
        assert tree_to_json(t) == '{"parents":[],"producers":[],"times":[0.0]}'

    def test_two_block_dot_edge(self):
        assert "1 -> 0" in tree_to_dot(chain(2))

    def test_dot_shape(self):
        dot = tree_to_dot(two_branch_seven())
        assert dot.startswith("digraph")
        assert dot.count("->") == 6

    def test_unsupported_format(self):
        with pytest.raises(ConfigError):
            export_tree(chain(2), "svg")

    def test_round_trip_100_random_trees(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            t = random_tree(rng, int(rng.integers(1, 80)))
            assert BlockTree(**json.loads(tree_to_json(t))) == t

    @settings(max_examples=50)
    @given(st.data())
    def test_round_trip_property(self, data):
        n = data.draw(st.integers(min_value=1, max_value=25))
        parents = tuple(
            data.draw(st.integers(min_value=0, max_value=k)) for k in range(n - 1))
        gaps = data.draw(st.lists(
            st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
            min_size=n - 1, max_size=n - 1))
        times = (0.0, *np.cumsum(gaps))
        producers = tuple(data.draw(st.integers(min_value=0, max_value=9)) for _ in parents)
        t = BlockTree(parents=parents, times=tuple(float(x) for x in times), producers=producers)
        assert BlockTree(**json.loads(tree_to_json(t))) == t


def one_edge_per_line(tree):
    """The dot text as it was written before it was built in slices."""
    lines = ["digraph blocktree {"]
    for k in range(1, tree.n_blocks):
        lines.append(f"  {k} -> {tree.parents[k - 1]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def ulp_tree(n, base, seed=0):
    """n blocks whose times start at base and step by one ulp or a few."""
    rng = np.random.default_rng(seed)
    times = [0.0, base][:n]
    for k in range(2, n):
        step = math.ulp(times[-1]) * (1 if k % 2 else int(rng.integers(1, 1000)))
        times.append(times[-1] + step)
    return BlockTree(parents=tuple(int(rng.integers(0, k)) for k in range(1, n)),
                     times=tuple(times),
                     producers=tuple(int(w) for w in rng.integers(0, 10**6, size=n - 1)))


class TestSlicedExport:
    """Files built SLICE values at a time hold the bytes of one json.dumps."""

    SIZES = [1, 2, SLICE - 1, SLICE, SLICE + 1, 3 * SLICE + 1]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("base", [1.0, 1e16])
    def test_tree_bytes(self, n, base):
        tree = ulp_tree(n, base)
        doc = {"parents": tree.parents.tolist(), "producers": tree.producers.tolist(),
               "times": tree.times.tolist()}
        assert tree_to_json(tree) == json.dumps(doc, separators=(",", ":"))
        assert tree_to_dot(tree) == one_edge_per_line(tree)

    @pytest.mark.parametrize("n", SIZES)
    def test_series_bytes(self, n):
        heights = tuple(int(h) for h in np.random.default_rng(n).integers(1, 10**9, size=n))
        assert (sliced_json({"height_series": heights}, (", ", ": "))
                == json.dumps({"height_series": list(heights)}))

    def test_empty_and_non_finite_values(self):
        doc = {"a": (), "b": (0.0, math.inf, -math.inf), "c": ()}
        for separators in [(",", ":"), (", ", ": ")]:
            assert sliced_json(doc, separators) == json.dumps(doc, separators=separators)

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_peak_memory_is_a_small_multiple_of_the_text(self, fmt):
        # On this tree, one json.dumps of the whole tree peaked at 4.13
        # times its text and one string per dot line at 6.34 times; built
        # in slices, both peak near 2 times.
        tree = ulp_tree(40_001, 1e16)
        tracemalloc.start()
        try:
            text = export_tree(tree, fmt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(text)
