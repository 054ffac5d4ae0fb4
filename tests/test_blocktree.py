import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blocksim.blocktree import BlockTree, classify, export_tree, tree_to_dot, tree_to_json
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

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            BlockTree(parents=(0, 0), times=(0.0, 1.0), producers=(0,))
        with pytest.raises(ValueError):
            BlockTree(parents=(0,), times=(0.0, 1.0), producers=(1, 2))


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
