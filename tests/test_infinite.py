from collections import Counter
from dataclasses import replace
from fractions import Fraction
import hashlib

import pytest

from blocksim.distributions import constant, exponential, gamma
from blocksim import infinite, pruning
from blocksim.errors import ConfigError, InvariantError
from blocksim.infinite import simulate_infinite
from blocksim.network import NetSimConfig
from blocksim.rng import StreamBundle
from helpers import faulty_pruned_scan, unbounded_height_law


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
    def test_checked_run_leaves_the_streams_of_an_unchecked_one(self):
        # The check reads the tested pairs' draws again from the run's
        # start, then puts the delay stream back where the run left it.
        positions = []
        for check in (False, True):
            streams = StreamBundle.for_run(21)
            simulate_infinite(base_config(n=120), streams, check_pruning=check)
            positions.append([s.position for s in
                              (streams.production, streams.producer, streams.delay)])
        assert positions[0] == positions[1]

    def test_lazy_pruning_consumes_only_scanned_pairs(self):
        n = 120
        out = simulate_infinite(base_config(n=n))
        assert out.stats["delay_draws"] == out.stats["pairs_tested"]
        assert out.stats["delay_draws"] < (n - 1) * (n - 2) // 2

    def test_mean_scan_window_small_in_slow_regime(self):
        out = simulate_infinite(base_config(beta=constant(0.0), n=200))
        assert out.stats["mean_scan_window"] == pytest.approx(198 / 199)


class TestPruningExactness:
    # A checked run ("aligned" in the names) raises InvariantError at the
    # first step whose height the pairs its scan tested do not prove to be
    # the full scan's (the unpruned scan), so passing runs are exact.
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_aligned_pruned_equals_unpruned(self, seed):
        out = simulate_infinite(base_config(seed=seed, n=400), check_pruning=True)
        assert out == simulate_infinite(base_config(seed=seed, n=400))

    def test_aligned_pruned_equals_unpruned_gamma(self):
        beta = gamma(shape=2, mean=0.5)
        simulate_infinite(base_config(seed=8, beta=beta, n=400), check_pruning=True)

    @pytest.mark.parametrize("k, by", [(1, 1), (5, 1), (5, -1), (149, 1)])
    def test_bumped_scan_is_caught_at_its_block(self, monkeypatch, k, by):
        monkeypatch.setattr(infinite, "_pruned_scan", faulty_pruned_scan(infinite, bump=k, by=by))
        config = base_config(n=150, beta=exponential(5.0), seed=4)
        with pytest.raises(InvariantError, match=f"scan mismatch at block {k}:"):
            simulate_infinite(config, check_pruning=True)
        # An unchecked run does not look.
        simulate_infinite(config)

    @pytest.mark.parametrize("k", [2, 5, 149])
    def test_early_stop_is_caught_at_its_block(self, monkeypatch, k):
        # Every step from 2 on tests at least the block before it.
        monkeypatch.setattr(infinite, "_pruned_scan", faulty_pruned_scan(infinite, stop=k))
        config = base_config(n=150, beta=exponential(5.0), seed=4)
        with pytest.raises(InvariantError, match=f"scan mismatch at block {k}:"):
            simulate_infinite(config, check_pruning=True)

    def test_check_reads_from_the_run_start(self):
        # Streams moved with seek before the run: the check reads the
        # tested pairs' draws from where the run began, not from position 0.
        config = base_config(n=150, beta=exponential(5.0), seed=4)
        runs = []
        for check in (False, True):
            streams = StreamBundle.for_run(config.seed)
            streams.delay.seek(3)
            runs.append(simulate_infinite(config, streams, check_pruning=check))
        assert runs[0] == runs[1]
        assert runs[1].height_series != simulate_infinite(config).height_series


class TestUnprunedScan:
    """Checked runs ("aligned") on the edges of the check's chunks and of the model."""

    @pytest.mark.parametrize("buffer", [1, 7, 2**11, 2**14])
    def test_matches_aligned_across_chunks(self, monkeypatch, buffer):
        # The check reads its draws in chunks of whole steps, and the
        # pruned scan in buffers, here both of the same size; their sizes
        # change which values are drawn together, never which draw a pair gets.
        configs = (base_config(n=150, beta=exponential(5.0), seed=4),
                   base_config(n=90, alpha=constant(1.0), beta=constant(2.0)))
        expected = [simulate_infinite(c) for c in configs]
        monkeypatch.setattr(infinite, "MAX_BUFFER", buffer)
        monkeypatch.setattr(pruning, "CHECK_PAIRS", buffer)
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

    def test_checked_run_equals_unchecked_run(self):
        a = simulate_infinite(base_config(n=500))
        b = simulate_infinite(base_config(n=500), check_pruning=True)
        assert a == b


class TestPinnedDraws:
    """Outputs of pruned runs, recorded before the one-loop scan, unchecked and checked.

    Each case reads past the first buffer (one of them past the
    16,384-value cap).  The digest is the first 16 hex digits of the
    sha256 of repr(height_series).
    """

    @pytest.mark.parametrize("mode, n, beta, seed, height, pairs, draws, digest", [
        ("pruned", 300, exponential(0.1), 3, 278, 322, 322, "3482c173bfca8b41"),
        ("pruned", 400, exponential(5.0), 11, 140, 1396, 1396, "03290baee7701b2a"),
        ("pruned", 1500, gamma(shape=2.0, mean=2.0), 29, 642, 3913, 3913,
         "af2fac16e49712d2"),
        ("pruned", 2000, exponential(100.0), 5, 211, 33115, 33115, "a50bd9b3794010de"),
    ])
    def test_outputs_unchanged(self, mode, n, beta, seed, height, pairs, draws, digest):
        for check in (False, True):
            out = simulate_infinite(base_config(n=n, beta=beta, seed=seed), check_pruning=check)
            assert out.height == height
            assert out.stats["pairs_tested"] == pairs
            assert out.stats["delay_draws"] == draws
            assert hashlib.sha256(repr(out.height_series).encode()).hexdigest()[:16] == digest

    def test_refills_follow_the_run(self):
        # Refills are sized from the run, so a run draws at most a tenth
        # more delays than it reads, plus two; a short run, whose first
        # refill of n-2 draws already covers it, draws exactly what it reads.
        for beta in (exponential(0.01), exponential(1.0), exponential(100.0), constant(2.0)):
            for n in (3, 10, 200, 2000):
                for seed in range(5):
                    streams = StreamBundle.for_run(seed)
                    draws = simulate_infinite(base_config(n=n, beta=beta, seed=seed),
                                              streams).stats["delay_draws"]
                    assert streams.delay.position <= draws + draws // 10 + 2, (beta, n, seed)
        streams = StreamBundle.for_run(4)
        out = simulate_infinite(base_config(n=200, seed=4), streams)
        assert streams.delay.position == out.stats["delay_draws"]


class TestExactLaw:
    # R runs per config at seeds 0 .. R-1, under 1 s in all.  The Pearson
    # chi-squared thresholds are the 0.999 quantiles for the law's cells
    # minus one, fixed in advance: a failure is the engine's until shown
    # otherwise, not a reason to move R, the seeds or the threshold.
    R = 3000
    CHI2_999 = {2: 13.82, 3: 16.27}

    def test_law_by_hand(self):
        # Height 4 needs pairs (1, 2) and (2, 3) visible, over disjoint
        # gaps, each with probability a/(a+b).
        assert unbounded_height_law(4, 1)[4] == Fraction(1, 4)
        assert unbounded_height_law(5, 3)[5] == Fraction(1, 4) ** 3
        assert sum(unbounded_height_law(5, 3).values()) == 1

    @pytest.mark.parametrize("n, ratio", [(4, 1), (5, 3)])
    def test_engine_follows_the_law(self, n, ratio):
        law = unbounded_height_law(n, ratio)
        counts = Counter(
            simulate_infinite(NetSimConfig(n=n, alpha=exponential(1.0),
                                           beta=exponential(float(ratio)), seed=seed)).height
            for seed in range(self.R))
        assert set(counts) <= set(law)
        chi2 = sum((counts[h] - self.R * p) ** 2 / (self.R * p) for h, p in law.items())
        assert chi2 < self.CHI2_999[len(law) - 1], (counts, law)


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
