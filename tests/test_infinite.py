import hashlib
from dataclasses import replace

import pytest

from blocksim.distributions import constant, exponential, gamma
from blocksim import infinite
from blocksim.errors import ConfigError, InvariantError
from blocksim.infinite import simulate_infinite
from blocksim.network import NetSimConfig
from blocksim.rng import StreamBundle
from helpers import faulty_pruned_scan


def base_config(**overrides):
    params = dict(n=300, alpha=exponential(1.0), beta=exponential(0.1),
                  seed=21)
    params.update(overrides)
    return NetSimConfig(**params)


class TestTrivialRegimes:
    def test_zero_delay_is_pure_chain(self):
        out = simulate_infinite(base_config(beta=constant(0.0), n=100))
        assert out.proportion == 1.0
        assert out.height_series == tuple(range(1, 101))

    def test_origin_only(self):
        out = simulate_infinite(base_config(n=1))
        assert (out.height, out.proportion) == (1, 1.0)
        assert out.stats["delay_draws"] == 0

    def test_two_blocks(self):
        out = simulate_infinite(base_config(n=2))
        assert out.height == 2
        assert out.stats["delay_draws"] == 0

    def test_huge_delay_caps_height_at_two(self):
        # No block after the first ever sees another non-origin block.
        out = simulate_infinite(base_config(beta=constant(1e9), n=50))
        assert out.height == 2
        assert all(h == 2 for h in out.height_series[1:])


class TestStructure:
    def test_heights_at_least_two_and_running_max(self):
        out = simulate_infinite(base_config())
        series = out.height_series
        assert series[0] == 1
        assert all(h >= 2 for h in series[1:])
        assert out.height == max(series)
        z = 1
        for h in series:
            z = max(z, h)
        assert z == out.height

    def test_heights_grow_by_at_most_one_per_visible_jump(self):
        # h_k <= 1 + max over earlier heights, so the series never jumps
        # past the previous maximum plus one.
        out = simulate_infinite(base_config(seed=77))
        best = 1
        for h in out.height_series[1:]:
            assert h <= best + 1
            best = max(best, h)


class TestDrawAccounting:
    def test_unpruned_consumes_every_pair(self):
        # The check's unpruned scan re-reads every pair's draw of the block.
        n = 120
        streams = StreamBundle.for_run(21)
        simulate_infinite(base_config(n=n), streams, check_pruning=True)
        assert streams.delay.position == (n - 1) * (n - 2) // 2

    def test_lazy_pruning_consumes_only_scanned_pairs(self):
        n = 120
        out = simulate_infinite(base_config(n=n))
        assert out.stats["delay_draws"] == out.stats["pairs_tested"]
        assert out.stats["delay_draws"] < (n - 1) * (n - 2) // 2

    def test_aligned_pruning_reports_full_consumption(self):
        n = 120
        out = simulate_infinite(base_config(n=n), check_pruning=True)
        assert out.stats["delay_draws"] == (n - 1) * (n - 2) // 2
        assert out.stats["pairs_tested"] < out.stats["delay_draws"]

    def test_mean_scan_window_small_in_slow_regime(self):
        out = simulate_infinite(base_config(beta=constant(0.0), n=200))
        assert out.stats["mean_scan_window"] == pytest.approx(198 / 199)


class TestPruningExactness:
    # A checked run raises InvariantError where its pruned scan and the
    # unpruned scan of the same draws (the check) disagree, so passing
    # runs are exact.
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_aligned_pruned_equals_unpruned(self, seed):
        out = simulate_infinite(base_config(seed=seed, n=400), check_pruning=True)
        assert out.height == max(out.height_series)

    def test_aligned_pruned_equals_unpruned_gamma(self):
        beta = gamma(shape=2, mean=0.5)
        simulate_infinite(base_config(seed=8, beta=beta, n=400), check_pruning=True)

    @pytest.mark.parametrize("k, by", [(1, 1), (5, 1), (5, -1), (149, 1)])
    def test_bumped_scan_is_caught_at_its_block(self, monkeypatch, k, by):
        monkeypatch.setattr(infinite, "_pruned_scan", faulty_pruned_scan(bump=k, by=by))
        config = base_config(n=150, beta=exponential(5.0), seed=4)
        with pytest.raises(InvariantError, match=f"scan mismatch at block {k}:"):
            simulate_infinite(config, check_pruning=True)
        # An unchecked run does not look.
        simulate_infinite(config)

    def test_check_reads_from_the_run_start(self):
        # Streams moved with seek before the run: the check re-reads the
        # block from where the run began, not from position 0.
        config = base_config(n=150, beta=exponential(5.0), seed=4)
        streams = StreamBundle.for_run(config.seed)
        streams.delay.seek(3)
        moved = simulate_infinite(config, streams, check_pruning=True)
        assert moved.height_series != simulate_infinite(config, check_pruning=True).height_series


class TestUnprunedScan:
    """The check's unpruned scan, on the edges of its chunks and of the model.

    "Aligned" is the full-block draw contract a checked run uses.
    """

    @pytest.mark.parametrize("buffer", [1, 7, 2**11, 2**14])
    def test_matches_aligned_across_chunks(self, monkeypatch, buffer):
        # The check reads its draws in chunks of whole steps, and the
        # pruned scan in buffers, both sized by MAX_BUFFER; their sizes
        # change which values are drawn together, never which draw a pair gets.
        configs = (base_config(n=150, beta=exponential(5.0), seed=4),
                   base_config(n=90, alpha=constant(1.0), beta=constant(2.0)))
        expected = [simulate_infinite(c, check_pruning=True) for c in configs]
        monkeypatch.setattr(infinite, "MAX_BUFFER", buffer)
        assert [simulate_infinite(c, check_pruning=True) for c in configs] == expected

    def test_origin_only_and_two_blocks(self):
        assert simulate_infinite(base_config(n=1), check_pruning=True).height_series == (1,)
        assert simulate_infinite(base_config(n=2), check_pruning=True).height_series == (1, 2)

    def test_simultaneous_arrival_is_not_visible(self):
        # Creation every 1.0, every delay exactly 1.0: block i's news
        # reaches block i+1 exactly at its creation, so only blocks two or
        # more steps back count.
        out = simulate_infinite(base_config(n=6, alpha=constant(1.0), beta=constant(1.0)),
                                check_pruning=True)
        assert out.height_series == (1, 2, 2, 3, 3, 4)


class TestDeterminism:
    def test_same_seed_same_series(self):
        a = simulate_infinite(base_config())
        b = simulate_infinite(base_config())
        assert a.height_series == b.height_series

    def test_different_seed_differs(self):
        a = simulate_infinite(base_config())
        b = simulate_infinite(replace(base_config(), seed=22))
        assert a.height_series != b.height_series

    def test_lazy_and_aligned_are_distinct_draw_orders(self):
        a = simulate_infinite(base_config(n=500))
        b = simulate_infinite(base_config(n=500), check_pruning=True)
        assert a.height_series != b.height_series
        assert abs(a.proportion - b.proportion) < 0.1


class TestPinnedDraws:
    """Outputs of unchecked and checked runs, recorded before the one-loop scan.

    Each case reads past at least one buffer refill: the pruned runs
    past the first buffer (one of them past the 16,384-value cap), the
    checked ("aligned") runs, under the full-block contract, past many.
    The digest is the first 16 hex digits of the sha256 of
    repr(height_series).
    """

    @pytest.mark.parametrize("mode, n, beta, seed, height, pairs, draws, digest", [
        ("pruned", 300, exponential(0.1), 3, 278, 322, 322, "3482c173bfca8b41"),
        ("pruned", 400, exponential(5.0), 11, 140, 1396, 1396, "03290baee7701b2a"),
        ("pruned", 1500, gamma(shape=2.0, mean=2.0), 29, 642, 3913, 3913,
         "af2fac16e49712d2"),
        ("pruned", 2000, exponential(100.0), 5, 211, 33115, 33115, "a50bd9b3794010de"),
        ("aligned", 120, exponential(0.5), 3, 87, 162, 7021, "730a3623b29e0258"),
        ("aligned", 400, exponential(5.0), 11, 142, 1375, 79401, "7dba67b5a7247bdc"),
    ])
    def test_outputs_unchanged(self, mode, n, beta, seed, height, pairs, draws, digest):
        out = simulate_infinite(base_config(n=n, beta=beta, seed=seed),
                                check_pruning=mode == "aligned")
        assert out.height == height
        assert out.stats["pairs_tested"] == pairs
        assert out.stats["delay_draws"] == draws
        assert hashlib.sha256(repr(out.height_series).encode()).hexdigest()[:16] == digest

    def test_short_run_transforms_one_small_buffer(self):
        streams = StreamBundle.for_run(4)
        out = simulate_infinite(base_config(n=200, seed=4), streams)
        assert out.stats["delay_draws"] < 1024
        assert streams.delay.position == 1024


class TestConfigValidation:
    def test_bad_n(self):
        with pytest.raises(ConfigError):
            base_config(n=0)

    def test_zero_production_time_rejected(self):
        with pytest.raises(ConfigError):
            base_config(alpha=constant(0.0))

    def test_worker_count_ignored(self):
        a = simulate_infinite(base_config())
        assert simulate_infinite(base_config(m=3, record_tree=True)) == a
