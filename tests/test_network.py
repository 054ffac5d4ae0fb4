from dataclasses import replace
import hashlib
import json
import tracemalloc

import pytest

from blocksim import network
from blocksim.blocktree import export_tree
from blocksim.distributions import constant, exponential, gamma
from blocksim.errors import ConfigError
from blocksim.montecarlo import ENGINES
from blocksim.network import NetSimConfig, delivery_sweep, simulate_network
from blocksim.rng import StreamBundle
from conftest import checked
from helpers import ScriptedStream


def scripted_bundle(production, producer, delay):
    return StreamBundle(production=ScriptedStream(production),
                        producer=ScriptedStream(producer),
                        delay=ScriptedStream(delay))


def base_config(**overrides):
    params = dict(m=5, n=200, alpha=exponential(1.0), beta=exponential(0.1),
                  seed=42)
    params.update(overrides)
    return NetSimConfig(**params)


def producer_uniforms(workers, m):
    """Producer draws that pick ``workers`` in turn out of m."""
    return [(w + 0.5) / m for w in workers]


def record_sweeps(monkeypatch, config, streams):
    """Run ``config`` on ``streams`` and list what each delivery_sweep call
    is handed, as (recipient, block) pairs in the order they apply.
    """
    calls = []

    def record(recipients, blocks, *state):
        calls.append(list(zip(recipients, blocks)))
        delivery_sweep(recipients, blocks, *state)

    monkeypatch.setattr(network, "delivery_sweep", record)
    return checked(simulate_network(config, streams)), calls


class TestDeliverySweep:
    # delivery_sweep applies the messages it is handed in order;
    # simulate_network hands it, before each block k, the messages that
    # arrive strictly before t[k], in (arrival, block, recipient) order.
    def test_empty_queue_is_noop(self):
        tips, heights = [0], [1]
        delivery_sweep([], [], [1, 5], tips, heights)
        assert (tips, heights) == ([0], [1])

    def test_arrival_at_now_stays_queued(self, monkeypatch):
        # Block 1's message reaches worker 1 at 2.0, exactly when worker 1
        # creates block 2: it is handed over only before block 3.
        config = NetSimConfig(m=2, n=4, alpha=constant(1.0), beta=constant(1.0), seed=0)
        streams = scripted_bundle([0.5] * 3, producer_uniforms([0, 1, 0], 2), [0.5] * 3)
        out, calls = record_sweeps(monkeypatch, config, streams)
        assert calls == [[], [], [(1, 1)]]
        assert out.tree.parents.tolist() == [0, 0, 1]

    def test_strictly_earlier_arrival_applies(self, monkeypatch):
        config = NetSimConfig(m=2, n=4, alpha=constant(1.0), beta=constant(0.5), seed=0)
        streams = scripted_bundle([0.5] * 3, producer_uniforms([0, 1, 0], 2), [0.5] * 3)
        out, calls = record_sweeps(monkeypatch, config, streams)
        assert calls == [[], [(1, 1)], [(0, 2)]]
        assert out.tree.parents.tolist() == [0, 1, 2]

    def test_equal_height_keeps_incumbent(self):
        tips, heights = [4], [3]
        delivery_sweep([0], [7], [1] * 7 + [3], tips, heights)
        assert (tips, heights) == ([4], [3])

    def test_two_heights_end_at_higher_either_order(self):
        block_heights = [1] * 7 + [3, 1, 5]
        for blocks in ([7, 9], [9, 7]):
            tips, heights = [0], [1]
            delivery_sweep([0, 0], blocks, block_heights, tips, heights)
            assert (tips, heights) == ([9], [5])

    def test_simultaneous_arrivals_apply_in_send_order(self, monkeypatch):
        # Production and delay share one distribution, so a delay drawn
        # from the same uniform as block 2's production time is that time
        # to the bit: the messages of block 1 (worker 0) arrive exactly at
        # t[2].  Block 2's (worker 1) delays are the smallest positive
        # double, so its messages arrive at t[2] too.  All four apply
        # before block 3 (worker 2).  Both blocks have height 2.
        config = NetSimConfig(m=3, n=4, alpha=exponential(1.0), beta=exponential(1.0),
                              seed=0)
        streams = scripted_bundle([0.5] * 3, producer_uniforms([0, 1, 2], 3),
                                  [0.5, 0.5, 0.0, 0.0, 0.5, 0.5])
        out, calls = record_sweeps(monkeypatch, config, streams)
        assert calls == [[], [], [(1, 1), (2, 1), (0, 2), (2, 2)]]
        # Worker 2 adopts block 1 and keeps it against block 2, of equal
        # height, so it builds block 3 on block 1.
        assert out.tree.parents.tolist() == [0, 0, 1]

    def test_only_recipient_updated(self):
        tips, heights = [0, 0], [1, 1]
        delivery_sweep([1], [7], [1] * 7 + [5], tips, heights)
        assert (tips, heights) == ([0, 7], [1, 5])

    def test_equal_arrivals_from_two_blocks_apply_lower_block_first(self, monkeypatch):
        # Blocks 2 (worker 1) and 3 (worker 2) announce height 2 to idle
        # worker 3 at the same instant, t[3], tied the same way as in
        # test_simultaneous_arrivals_apply_in_send_order.  With 1, 6 and
        # 2**12 values per row block, the two blocks' messages meet after
        # waiting in separate row blocks, after one waited and one is new,
        # and as new messages of one row block.
        config = NetSimConfig(m=4, n=5, alpha=exponential(1.0), beta=exponential(1.0), seed=0)
        for row_values in (1, 6, network.ROW_VALUES):
            monkeypatch.setattr(network, "ROW_VALUES", row_values)
            streams = scripted_bundle([0.5] * 4, producer_uniforms([0, 1, 2, 3], 4),
                                      [0.9] * 3 + [0.5] * 3 + [0.0] * 3 + [0.9] * 3)
            out, calls = record_sweeps(monkeypatch, config, streams)
            assert calls == [[], [], [], [(0, 2), (2, 2), (3, 2), (0, 3), (1, 3), (3, 3)]]
            assert out.tree.parents.tolist() == [0, 0, 0, 2]

    def test_equal_arrivals_within_a_block_apply_in_recipient_order(self, monkeypatch):
        # One row of 99 delays taking two values: long enough, with runs
        # of ties, that an unstable sort would reorder the ties.
        # A third of the row, with delays of 11.5, applies only before
        # block 3.  With one block per row block the whole row waits in
        # flight, split over two row blocks.
        u = [(0.1, 0.5, 0.99999)[k % 3] for k in range(99)]
        config = NetSimConfig(m=100, n=4, alpha=constant(10.0), beta=exponential(1.0), seed=0)
        others = [j for j in range(100) if j != 37]
        expected = [(others[k], 1) for k in sorted(range(99), key=lambda k: (u[k], k))]
        for row_values in (1, network.ROW_VALUES):
            monkeypatch.setattr(network, "ROW_VALUES", row_values)
            streams = scripted_bundle([0.5] * 3, producer_uniforms([37, 0, 0], 100),
                                      u + [0.99999] * 198)
            _, calls = record_sweeps(monkeypatch, config, streams)
            assert (calls[1], calls[2]) == (expected[:66], expected[66:])

    def test_partly_delivered_block_stays_queued_at_next_message(self, monkeypatch):
        # Block 1's messages reach workers 2, 3 and 1 at 1.11, 1.69 and
        # 3.30; later blocks' messages arrive after the last block.  With
        # one block per row block, the last one waits across two.
        config = NetSimConfig(m=4, n=5, alpha=constant(1.0), beta=exponential(1.0), seed=0)
        for row_values in (1, network.ROW_VALUES):
            monkeypatch.setattr(network, "ROW_VALUES", row_values)
            streams = scripted_bundle([0.5] * 4, producer_uniforms([0] * 4, 4),
                                      [0.9, 0.1, 0.5] + [0.9] * 9)
            out, calls = record_sweeps(monkeypatch, config, streams)
            assert calls == [[], [(2, 1), (3, 1)], [], [(1, 1)]]
            assert out.stats == {"messages_sent": 12, "undelivered": 9}


class TestHandTrace:
    # Two workers, unit production times, delay 1.5.  Workers alternate
    # producing; each sees the other's announcements one step late, so
    # the branches interleave: parents 0,0,1,2 and final height 3 of 5.
    def run_trace(self, n):
        config = NetSimConfig(m=2, n=n, alpha=constant(1.0),
                              beta=constant(1.5), seed=0)
        streams = scripted_bundle([0.5] * (n - 1),
                                  [0.0, 0.5, 0.0, 0.5][: n - 1],
                                  [0.5] * (n - 1))
        return checked(simulate_network(config, streams))

    def test_five_block_trace(self):
        out = self.run_trace(5)
        assert out.height == 3
        assert out.proportion == pytest.approx(3 / 5)
        assert out.tree.parents.tolist() == [0, 0, 1, 2]
        assert out.tree.producers.tolist() == [0, 1, 0, 1]
        assert out.tree.times.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert out.height_series == (1, 2, 2, 3, 3)
        assert out.positions == (3, 4)

    def test_trace_prefixes(self):
        assert self.run_trace(2).height == 2
        assert self.run_trace(3).height == 2
        assert self.run_trace(4).height == 3

    def test_exhausting_script_raises(self):
        with pytest.raises(IndexError):
            self.run_trace(6)


class TestTrivialRegimes:
    def test_single_worker_is_pure_chain(self):
        out = checked(simulate_network(base_config(m=1, n=50)))
        assert out.proportion == 1.0
        assert out.tree.parents.tolist() == list(range(49))
        assert out.stats["messages_sent"] == 0

    def test_zero_delay_is_pure_chain(self):
        out = checked(simulate_network(base_config(beta=constant(0.0), n=100)))
        assert out.proportion == 1.0
        assert out.tree.parents.tolist() == list(range(99))

    def test_origin_only_run(self):
        out = simulate_network(base_config(n=1))
        assert (out.height, out.proportion) == (1, 1.0)
        assert out.tree.n_blocks == 1


class TestOutcome:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_every_engine_returns_the_same_record(self, engine):
        # No config field selects what a run returns: every engine gives
        # the per-block heights, and p_n is the height over n.
        config = NetSimConfig(m=6, n=300, alpha=exponential(1.0), beta=exponential(1.0), seed=5)
        out = ENGINES[engine](config)
        assert len(out.height_series) == out.n == 300
        assert max(out.height_series) == out.height
        assert out.proportion == out.height / out.n

    def test_invariants_and_stats(self):
        config = base_config()
        out = checked(simulate_network(config))
        assert out.tree.n_blocks == config.n
        assert out.stats["messages_sent"] == (config.n - 1) * (config.m - 1)
        assert 0 <= out.stats["undelivered"] <= out.stats["messages_sent"]
        assert len(out.height_series) == config.n
        assert out.proportion == out.height / config.n

    def test_height_series_matches_tree_depths(self):
        # Depths from the parent array alone, origin at depth 1.
        out = simulate_network(base_config())
        depths = [1]
        for p in out.tree.parents:
            depths.append(depths[p] + 1)
        assert list(out.height_series) == depths

    def test_worker_positions(self):
        # Each worker ends at a block of the tree no lower than the last
        # block it made; the maker of the last block ends at it.
        config = base_config()
        out = simulate_network(config)
        series, producers = out.height_series, out.tree.producers
        last_made = {w: k for k, w in enumerate(producers, 1)}
        assert len(out.positions) == config.m
        for w, b in enumerate(out.positions):
            assert 0 <= b < config.n
            assert series[b] >= series[last_made.get(w, 0)]
        assert out.positions[producers[-1]] == config.n - 1

    def test_record_tree_off(self):
        out = simulate_network(base_config(record_tree=False))
        assert out.tree is None
        assert out.positions is not None

    def test_seed_echo_present(self):
        out = simulate_network(base_config())
        assert set(out.seed_echo) == {"production", "producer", "delay"}


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


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinned:
    # Digests of the tree JSON, the height series and the final worker
    # positions, with the stats, as the one-entry-per-message queue
    # produced them; how messages wait in flight must not move a byte.
    CASES = [
        ((1, 50, exponential(1.0), exponential(0.1), 3),
         "3e4a868420df8c14fd6cda21e2b5d31483763ce53f8da642c6522107c4e61c0d",
         "d33590f5c8c43e6f873c01869865493c280d92b3518f34f11b6b708d13c47b06",
         "5ab8ca08b0c3abadeb62685c82ae3e53b159bb88ad1c7caf71fc821f2bf494a3",
         {"messages_sent": 0, "undelivered": 0}),
        ((2, 500, exponential(1.0), exponential(1.0), 5),
         "42a121db3cdcfa768c154b53541624b613781ac656751c47cd7493cfaa638a46",
         "f16ca8b06a085ee20e8efcfe4f63ba8bb6c1a1674e1c616ad28bb403e15cca18",
         "4e7107c56dc1ba594b5de0547af90414c394e9fdcb94d89bc067817a28545d20",
         {"messages_sent": 499, "undelivered": 2}),
        ((100, 2000, exponential(1.0), exponential(1.0), 7),
         "03c51816841e489b6e70f4f09df7257d675537ff8e8f24718931b87691fca4a5",
         "a6b33b6d2e33879985666c0e180c46c182efc7647d1e3f8a16ece7615efc9b63",
         "b997b8d56c58bbc8e5169f481a4beabb4b8bdd6f8be7d9525f82118b679e9276",
         {"messages_sent": 197901, "undelivered": 249}),
        ((10, 1500, exponential(1.0), gamma(shape=0.5, mean=2.0), 11),
         "6666c9da9e08e9ea49f00285e2fcc28673097801112d813346638b8d068db589",
         "cc6abd28d179a8f37e9b301e66284d0978ff34a421478a43bfa000235c0353b0",
         "a13da9f1d8a5427252628177b1ee19eef6173290134fc5ad6b9993baa7de19ad",
         {"messages_sent": 13491, "undelivered": 16}),
        ((7, 800, constant(1.0), constant(1.0), 13),
         "92242bc5841b2d9f6ac65fef1492947a717c95730374da111ca31f5b76a2ee92",
         "350bc79279cdbcc0ef356aa65333ef97f88fce0d4252f9133ceea25c3ff54283",
         "b790f00b50a7fdeb101669fd24c1fa8ad7d839ba6e56b00665d20701e943e2c9",
         {"messages_sent": 4794, "undelivered": 12}),
        ((5, 600, constant(1.0), constant(2.0), 17),
         "0fdc9bcb691da371ee9a9d87c7b46220968bd0aa309186de3c46284089765e56",
         "e76bcfea29aae0f8c77a893a508b60727aa7c0b817adbbdcadf225f6f5a787d1",
         "7a3fe935914c6509fb412d216a952a8908514e1f0ee9d226976608078d9325a3",
         {"messages_sent": 2396, "undelivered": 12}),
        # Messages outlive several row blocks of 141 blocks each.
        ((30, 1500, exponential(1.0), exponential(50.0), 19),
         "d5cfb4a311bae6872972e18536dd266a809210732e5767fbc1cc79ca81fbfc42",
         "3d9eb0c79faa303c1997ac19e830029b01b509b3285ed747b6df88c3d62fbe7d",
         "d2a87c8335a9e45ff05b980262035105bd3f927c501ef8c834165a9f0865cf21",
         {"messages_sent": 43471, "undelivered": 1403}),
        # Every message arrives exactly when its block is created.
        ((6, 700, exponential(1.0), constant(0.0), 23),
         "8763f7b2ef1910faf2d7e5c45f2f846b5fa8efc5c94862796fc92cc4f37aef3f",
         "b52f99d2193527a611dccb20bb22428fb09ddc88d782572d6226e210faaf42b4",
         "e45b608c8bd37ad847008b1a73d8e780a827539aab03d6a36ef1a24cb9e4fdb6",
         {"messages_sent": 3495, "undelivered": 5}),
    ]

    @pytest.mark.parametrize("params,tree,series,positions,stats", CASES,
                             ids=["m1", "m2", "m100", "gamma", "const-tie", "const-late",
                                  "chaotic", "const-zero"])
    def test_outputs_unchanged(self, params, tree, series, positions, stats):
        m, n, alpha, beta, seed = params
        out = checked(simulate_network(NetSimConfig(m=m, n=n, alpha=alpha, beta=beta,
                                                    seed=seed)))
        assert sha256(export_tree(out.tree, "json")) == tree
        assert sha256(json.dumps(out.height_series)) == series
        assert sha256(json.dumps(out.positions)) == positions
        assert out.stats == stats

    def test_draws_one_delay_per_message(self):
        streams = StreamBundle.for_run(7)
        out = simulate_network(base_config(m=100, n=2000), streams)
        assert streams.delay.position == out.stats["messages_sent"]
        assert streams.production.position == streams.producer.position == 1999


class TestMemory:
    def traced_peak(self, config):
        tracemalloc.start()
        try:
            simulate_network(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_delays_are_not_drawn_up_front(self):
        # (n-1)(m-1) = 998,001 delays would take 8 MB as float64 alone;
        # row blocks of 2**12 values and the messages in flight take about
        # 2 MB.  n stays at 1000 because tracing every allocation makes
        # the run about eight times slower.
        config = NetSimConfig(m=1000, n=1000, alpha=exponential(1.0),
                              beta=exponential(1.0), seed=1, record_tree=False)
        assert self.traced_peak(config) < 6 * 2**20

    def test_tree_is_kept_as_flat_arrays(self):
        # The tree's 30,000 numbers take 0.23 MB as int64/float64 arrays.
        # Held as Python ints and floats, copied into tuples when the tree
        # was built, the outcome kept 1.13 MB and the run peaked at 1.82 MB.
        config = NetSimConfig(m=100, n=10_000, alpha=exponential(1.0),
                              beta=exponential(1.0), seed=1, record_tree=True)
        # A first run makes what any run makes once, about 0.7 MB.
        simulate_network(replace(config, n=10))
        tracemalloc.start()
        try:
            out = simulate_network(config)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.tree.n_blocks == config.n
        assert kept < 0.85 * 2**20
        assert peak < 1.5 * 2**20

    def test_long_delays_keep_messages_in_flight_as_arrays(self):
        # Delays of 100 production times keep about 100,000 messages in
        # flight, 16 bytes each; the run peaks near 5 MB.  Holding each
        # block's messages as Python lists peaked at 49 MB, and filing
        # them as slices that keep their whole row block alive at 15 MB.
        config = NetSimConfig(m=1000, n=1000, alpha=exponential(1.0),
                              beta=exponential(100.0), seed=1, record_tree=False)
        assert self.traced_peak(config) < 8 * 2**20
