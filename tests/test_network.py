from dataclasses import replace

import pytest

from blocksim.blocktree import height, proportion_valid
from blocksim.distributions import constant, exponential
from blocksim.errors import ConfigError, InvariantError
from blocksim.network import (NetSimConfig, SimOutcome, delivery_sweep,
                              simulate_network)
from blocksim.rng import ScriptedStream, StreamBundle


def scripted_bundle(production, producer, delay):
    return StreamBundle(production=ScriptedStream(production),
                        producer=ScriptedStream(producer),
                        delay=ScriptedStream(delay))


def base_config(**overrides):
    params = dict(m=5, n=200, alpha=exponential(1.0), beta=exponential(0.1),
                  seed=42)
    params.update(overrides)
    return NetSimConfig(**params)


class TestDeliverySweep:
    def test_empty_queue_is_noop(self):
        pending, tips, heights = [], [0], [1]
        delivery_sweep(pending, 5.0, tips, heights)
        assert (pending, tips, heights) == ([], [0], [1])

    def test_arrival_at_now_stays_queued(self):
        pending = [(2.0, 0, 0, 7, 5)]
        tips, heights = [0], [1]
        delivery_sweep(pending, 2.0, tips, heights)
        assert pending == [(2.0, 0, 0, 7, 5)]
        assert heights == [1]

    def test_strictly_earlier_arrival_applies(self):
        pending = [(1.9, 0, 0, 7, 5)]
        tips, heights = [0], [1]
        delivery_sweep(pending, 2.0, tips, heights)
        assert pending == []
        assert (tips, heights) == ([7], [5])

    def test_equal_height_keeps_incumbent(self):
        pending = [(1.0, 0, 0, 7, 3)]
        tips, heights = [4], [3]
        delivery_sweep(pending, 2.0, tips, heights)
        assert (tips, heights) == ([4], [3])

    def test_two_heights_end_at_higher_either_order(self):
        for first, second in [((1.0, 0, 0, 7, 3), (1.5, 1, 0, 9, 5)),
                              ((1.0, 0, 0, 9, 5), (1.5, 1, 0, 7, 3))]:
            pending = sorted([first, second])
            tips, heights = [0], [1]
            delivery_sweep(pending, 2.0, tips, heights)
            assert (tips, heights) == ([9], [5])

    def test_simultaneous_arrivals_apply_in_send_order(self):
        pending = sorted([(2.0, 0, 0, 10, 4), (2.0, 1, 0, 11, 4)])
        tips, heights = [0], [1]
        delivery_sweep(pending, 3.0, tips, heights)
        assert (tips, heights) == ([10], [4])

    def test_only_recipient_updated(self):
        pending = [(1.0, 0, 1, 7, 5)]
        tips, heights = [0, 0], [1, 1]
        delivery_sweep(pending, 2.0, tips, heights)
        assert (tips, heights) == ([0, 7], [1, 5])


class TestHandTrace:
    # Two workers, unit production times, delay 1.5.  Workers alternate
    # producing; each sees the other's announcements one step late, so
    # the branches interleave: parents 0,0,1,2 and final height 3 of 5.
    def run_trace(self, n):
        config = NetSimConfig(m=2, n=n, alpha=constant(1.0),
                              beta=constant(1.5), seed=0, record_series=True)
        streams = scripted_bundle([0.5] * (n - 1),
                                  [0.0, 0.5, 0.0, 0.5][: n - 1],
                                  [0.5] * (n - 1))
        return simulate_network(config, streams, check_invariants=True)

    def test_five_block_trace(self):
        out = self.run_trace(5)
        assert out.height == 3
        assert out.proportion == pytest.approx(3 / 5)
        assert out.tree.parents == (0, 0, 1, 2)
        assert out.tree.producers == (0, 1, 0, 1)
        assert out.tree.times == (0.0, 1.0, 2.0, 3.0, 4.0)
        assert out.height_series == (1, 2, 2, 3, 3)
        assert out.positions.positions == (3, 4)

    def test_trace_prefixes(self):
        assert self.run_trace(2).height == 2
        assert self.run_trace(3).height == 2
        assert self.run_trace(4).height == 3

    def test_exhausting_script_raises(self):
        with pytest.raises(IndexError):
            self.run_trace(6)


class TestTrivialRegimes:
    def test_single_worker_is_pure_chain(self):
        out = simulate_network(base_config(m=1, n=50), check_invariants=True)
        assert out.proportion == 1.0
        assert out.tree.parents == tuple(range(49))
        assert out.stats["messages_sent"] == 0

    def test_zero_delay_is_pure_chain(self):
        out = simulate_network(base_config(beta=constant(0.0), n=100),
                               check_invariants=True)
        assert out.proportion == 1.0
        assert out.tree.parents == tuple(range(99))

    def test_origin_only_run(self):
        out = simulate_network(base_config(n=1))
        assert (out.height, out.proportion) == (1, 1.0)
        assert out.tree.n_blocks == 1


class TestOutcome:
    def test_invariants_and_stats(self):
        config = base_config(record_series=True)
        out = simulate_network(config, check_invariants=True)
        assert out.tree.n_blocks == config.n
        assert out.stats["messages_sent"] == (config.n - 1) * (config.m - 1)
        assert 0 <= out.stats["undelivered"] <= out.stats["messages_sent"]
        assert len(out.height_series) == config.n
        assert out.height == height(out.tree)
        assert out.proportion == proportion_valid(out.tree)

    def test_height_series_matches_tree_depths(self):
        out = simulate_network(base_config(record_series=True))
        assert list(out.height_series) == out.tree.depths()

    def test_record_tree_off(self):
        out = simulate_network(base_config(record_tree=False))
        assert out.tree is None
        assert out.positions is not None

    def test_seed_echo_present(self):
        out = simulate_network(base_config())
        assert set(out.seed_echo) == {"production", "producer", "delay"}

    def test_inconsistent_outcome_rejected(self):
        with pytest.raises(InvariantError):
            SimOutcome(proportion=0.5, height=2, n=5)


class TestDeterminism:
    def test_same_seed_same_run(self):
        a = simulate_network(base_config())
        b = simulate_network(base_config())
        assert a.tree == b.tree
        assert a.proportion == b.proportion

    def test_different_seed_differs(self):
        a = simulate_network(base_config())
        b = simulate_network(replace(base_config(), seed=43))
        assert a.tree != b.tree


class TestConfigValidation:
    def test_bad_m(self):
        with pytest.raises(ConfigError):
            base_config(m=0)

    def test_bad_n(self):
        with pytest.raises(ConfigError):
            base_config(n=0)

    def test_zero_production_time_rejected(self):
        with pytest.raises(ConfigError):
            base_config(alpha=constant(0.0))
