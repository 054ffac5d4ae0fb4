from dataclasses import replace
import hashlib
import time
import tracemalloc

import numpy as np
import pytest

from blocksim import matrix, pruning
from blocksim.distributions import constant, exponential, gamma, sample_many
from blocksim.errors import InvariantError
from blocksim.matrix import DelayMatrix, _pruned_scan, simulate_matrix, visible_height_naive
from blocksim.network import NetSimConfig, draw_schedule, simulate_network
from blocksim.rng import ROLE_DELAY, ROLE_PRODUCER, ROLE_PRODUCTION, SampleStream, StreamBundle
from helpers import ScriptedStream, faulty_pruned_scan


def scripted_bundle(production, producer, delay):
    return StreamBundle(production=ScriptedStream(production),
                        producer=ScriptedStream(producer),
                        delay=ScriptedStream(delay))


def base_config(**overrides):
    params = dict(m=5, n=200, alpha=exponential(1.0), beta=exponential(0.1),
                  seed=42, record_tree=False)
    params.update(overrides)
    return NetSimConfig(**params)


class RecordingStream(ScriptedStream):
    """Scripted stream that logs every read as (position, size)."""

    def __init__(self, values):
        super().__init__(values)
        self.reads = []

    def uniforms(self, size):
        self.reads.append((self.position, size))
        return super().uniforms(size)


class SeekLogStream(SampleStream):
    """Seeded stream that logs every seek as (from_position, to_position),
    apart from those at() makes to draw a dense set and seek back."""

    def __init__(self, base_seed, stream_id):
        super().__init__(base_seed, stream_id)
        self.seeks = []

    def seek(self, pos):
        self.seeks.append((self.position, pos))
        super().seek(pos)

    def at(self, positions):
        seeks, self.seeks = self.seeks, []
        try:
            return super().at(positions)
        finally:
            self.seeks = seeks


def two_workers(t, producers):
    """Delay matrix of a four-block two-worker run with every delay 1.5."""
    return DelayMatrix(constant(1.5), ScriptedStream([0.5] * len(producers)),
                       producers=producers, m=2, t=t)


def check_two_workers(t, h, producers):
    """Check of a four-block two-worker run with every delay 1.5, whose
    steps 2 and 3 test every earlier block but the origin."""
    visible_height_naive(t, h, [0, 0, 1, 2], two_workers(t, producers))


def run_inputs(config):
    """Creation times and delay matrix of a run, drawn afresh from its seed."""
    streams = StreamBundle.for_run(config.seed)
    t, producers = draw_schedule(config, streams)
    return t, DelayMatrix(config.beta, streams.delay, producers, config.m, t)


def scanned(config):
    """Creation times, heights and widths of a run's pruned scan, and a
    delay matrix drawn afresh for its check."""
    t, delays = run_inputs(config)
    h, _, widths = _pruned_scan(t.tolist(), delays, True)
    return t, h, widths, run_inputs(config)[1]


class TestVisibility:
    # Worker 1 makes blocks 1 and 2, worker 0 makes block 3.  Block 1
    # reaches worker 0 at 2.5 and block 2 reaches it at 3.5.
    producers = [1, 1, 0]

    def test_strict_comparison(self):
        # The producer's own block counts at once: block 2 builds on block 1.
        with pytest.raises(InvariantError, match="block 2: 2 != 3"):
            check_two_workers([0.0, 1.0, 2.0, 3.0], [1, 2, 2, 2], self.producers)
        # At t=3 worker 0 has seen block 1 but not block 2.
        check_two_workers([0.0, 1.0, 2.0, 3.0], [1, 2, 3, 3], self.producers)
        with pytest.raises(InvariantError, match="block 3: 4 != 3"):
            check_two_workers([0.0, 1.0, 2.0, 3.0], [1, 2, 3, 4], self.producers)
        # Block 1 arriving at the instant block 3 is made does not count.
        check_two_workers([0.0, 1.0, 2.0, 2.5], [1, 2, 3, 2], self.producers)
        with pytest.raises(InvariantError, match="block 3: 3 != 2"):
            check_two_workers([0.0, 1.0, 2.0, 2.5], [1, 2, 3, 3], self.producers)

    def test_lenient_comparison_counts_simultaneous(self):
        # The lenient scan counts block 1, reaching worker 0 at 2.5, as
        # seen by block 3, made at 2.5; the strict scan does not.  Both
        # test the same pairs.  The check keeps the model's <, so it
        # rejects the lenient height.
        t = [0.0, 1.0, 2.0, 2.5]
        assert _pruned_scan(t, two_workers(t, self.producers), False) == \
            ([1, 2, 3, 3], 3, [0, 0, 1, 2])
        assert _pruned_scan(t, two_workers(t, self.producers), True) == \
            ([1, 2, 3, 2], 3, [0, 0, 1, 2])
        with pytest.raises(InvariantError, match="block 3: 3 != 2"):
            check_two_workers(t, [1, 2, 3, 3], self.producers)

    def test_scans_agree_on_interleaved_state(self):
        # Two workers alternating under unit production and delay 1.5.
        t = [0.0, 1.0, 2.0, 3.0]
        delays = DelayMatrix(constant(1.5), RecordingStream([0.5] * 3),
                             producers=[0, 1, 0], m=2, t=t)
        h, top, widths = _pruned_scan(t, delays, True)
        assert (h, top) == ([1, 2, 2, 3], 3)
        # Step 2 tests block 1; step 3 tests blocks 2 and 1.
        assert widths == [0, 0, 1, 2]
        # Step 3's band: block 1 is worker 0's own, block 2 arrives at 3.5.
        a, off, lo, end = delays._build(1)
        assert end == 4 and lo[2] <= 1
        assert [a[off[2] + i] for i in (1, 2)] == [1.0, 3.5]
        visible_height_naive(t, h, widths, delays)
        with pytest.raises(InvariantError, match="block 3: 2 != 3"):
            visible_height_naive(t, h[:3] + [2], widths, delays)
        # Stopped before block 1 with block 2 unseen: block 1 could be higher.
        with pytest.raises(InvariantError, match="block 3: it stopped above block 1, "
                                                 "where heights reach 2 > 1"):
            visible_height_naive(t, [1, 2, 2, 2], [0, 0, 1, 1], delays)

    def test_pruned_skips_blocks_behind_running_best(self, monkeypatch):
        # Once x reaches z_i the scan stops, so early blocks are skipped;
        # with a band one arrival wide, no band widens for them, and only
        # the rows the tested pairs read are drawn and transformed.
        # Every block extends worker 0's chain.
        monkeypatch.setattr(matrix, "BAND_WIDTH", 1)
        stream = RecordingStream([0.5] * 4)
        t = [0.0, 1.0, 2.0, 3.0, 4.0]
        delays = DelayMatrix(constant(0.1), stream, producers=[0, 0, 0, 0], m=2, t=t)
        assert _pruned_scan(t, delays, True) == ([1, 2, 3, 4, 5], 5, [0, 0, 1, 1, 1])
        # Steps 2 to 4 each test only the block before them: 3 of the
        # 6 pairs.  The band never widened, the rows of blocks 1 to 3
        # were drawn once and transformed once, and block 4's row, which
        # no step reads, was never drawn.
        assert delays.band_width == 1
        assert stream.reads == [(0, 3)]
        assert delays.transformed == 3
        # A scan that went on to block 1 once block 2 gave it height 3.
        with pytest.raises(InvariantError, match="block 3: it tested block 1 with its best "
                                                 "already 3 >= 2"):
            visible_height_naive(t, [1, 2, 3, 4, 5], [0, 0, 1, 2, 1], delays)

    @pytest.mark.parametrize("chunk", [1, 7, pruning.CHECK_PAIRS])
    def test_step_that_tested_no_pair(self, monkeypatch, chunk):
        # Every block extends worker 0's chain.  Step 2, reporting no pair
        # tested, has the best 1, not that of step 3's first pair (block 2,
        # seen at once), whether or not the two share a chunk.
        monkeypatch.setattr(pruning, "CHECK_PAIRS", chunk)
        t = [0.0, 1.0, 2.0, 3.0, 4.0]
        delays = DelayMatrix(constant(0.1), ScriptedStream([0.5] * 4), producers=[0, 0, 0, 0],
                             m=2, t=t)
        with pytest.raises(InvariantError, match="block 2: it stopped above block 1, "
                                                 "where heights reach 2 > 1"):
            visible_height_naive(t, [1, 2, 2, 3, 4], [0, 0, 0, 1, 1], delays)

    def test_read_below_a_band_widens_it(self, monkeypatch):
        # Three workers, unit production, every delay 10: blocks 1 and 2
        # are worker 0's, block 3 is worker 2's.  Bands one arrival wide
        # share one flat chunk, so just below step 3's band (block 2 at
        # worker 2) sits step 2's cell, block 1 at worker 0, its own
        # producer, who has held it since t=1.  Step 3 must widen its band
        # and read block 1 at worker 2, where it arrives at 11; reading
        # the neighbouring cell would build block 3 at height 3.
        monkeypatch.setattr(matrix, "BAND_WIDTH", 1)
        config = NetSimConfig(m=3, n=4, alpha=constant(1.0), beta=constant(10.0), seed=0)
        net = simulate_network(config, scripted_bundle([0.5] * 3, [0.1, 0.1, 0.9], [0.5] * 6))
        assert net.height_series == (1, 2, 3, 2)
        streams = scripted_bundle([0.5] * 3, [0.1, 0.1, 0.9], [0.5] * 6)
        t, producers = draw_schedule(config, streams)
        delays = DelayMatrix(config.beta, streams.delay, producers, config.m, t)
        assert _pruned_scan(t.tolist(), delays, True) == ([1, 2, 3, 2], 3, [0, 0, 1, 2])
        assert delays.band_width == 2

    @pytest.mark.parametrize("band_cells", [2**16, 2])
    def test_entries_follow_network_draw_order(self, monkeypatch, band_cells):
        # Row i-1 holds block i's delays for recipients 0..m-1 skipping
        # the producer, in the order the network engine draws them; step
        # k+s of a chunk built from step k holds t[i] + d(i, producer_{k+s})
        # at a[off[s] + i] for i >= lo[s].
        monkeypatch.setattr(matrix, "BAND_CELLS", band_cells)
        m, producers, t = 3, [1, 0, 2, 1], [0.0, 0.5, 1.25, 2.0, 3.5]
        u = np.linspace(0.05, 0.95, len(producers) * (m - 1))
        flat = iter(sample_many(exponential(1.0), ScriptedStream(u), len(u)).tolist())
        want = [[0.0 if j == p else next(flat) for j in range(m)] for p in producers]
        for band_width in (1, 8):
            monkeypatch.setattr(matrix, "BAND_WIDTH", band_width)
            delays = DelayMatrix(exponential(1.0), ScriptedStream(u), producers, m, t)
            for k in range(1, len(t)):
                while True:
                    a, off, lo, end = delays._build(k)
                    for s, step in enumerate(range(k, end)):
                        blocks = range(max(1, lo[s]), step)
                        assert [a[off[s] + i] for i in blocks] == \
                            [t[i] + want[i - 1][producers[step - 1]] for i in blocks]
                    if lo[0] <= 1:
                        break
                    delays.band_width *= 2


class TestHandTrace:
    def run_trace(self):
        config = NetSimConfig(m=2, n=5, alpha=constant(1.0), beta=constant(1.5),
                              seed=0)
        streams = scripted_bundle([0.5] * 4, [0.0, 0.5, 0.0, 0.5], [0.5] * 4)
        return config, streams

    def test_trace_heights(self):
        config, streams = self.run_trace()
        out = simulate_matrix(config, streams, check_pruning=True)
        assert out.height == 3
        assert out.proportion == pytest.approx(3 / 5)
        assert out.height_series == (1, 2, 2, 3, 3)

    def test_naive_scan_same_trace(self):
        # Step 2 tests block 1, unseen; steps 3 and 4 test the block
        # before them, unseen, and their producer's own block before that.
        config, streams = self.run_trace()
        t, producers = draw_schedule(config, streams)
        delays = DelayMatrix(config.beta, streams.delay, producers, config.m, t)
        widths = [0, 0, 1, 2, 2]
        assert _pruned_scan(t.tolist(), delays, True) == ([1, 2, 2, 3, 3], 3, widths)
        visible_height_naive(t, [1, 2, 2, 3, 3], widths, delays)
        for k in range(1, 5):
            series = [1, 2, 2, 3, 3]
            series[k] += 1
            with pytest.raises(InvariantError, match=f"scan mismatch at block {k}:"):
                visible_height_naive(t, series, widths, delays)


class TestAgainstNetworkEngine:
    def test_exact_match_on_random_configs(self):
        rng = np.random.default_rng(11)
        for trial in range(15):
            config = base_config(
                m=int(rng.integers(1, 12)),
                n=int(rng.integers(2, 150)),
                beta=exponential(float(0.02 + rng.random())),
                seed=int(rng.integers(0, 2**32)),
            )
            net = simulate_network(replace(config, record_tree=True))
            mat = simulate_matrix(config, check_pruning=True)
            assert net.height == mat.height, f"config {trial}: {config}"
            assert net.proportion == mat.proportion
            assert mat.height_series == net.height_series

    def test_match_on_tie_heavy_config(self):
        config = base_config(m=3, n=60, alpha=constant(1.0), beta=constant(2.0),
                             seed=9)
        net = simulate_network(replace(config, record_tree=True))
        mat = simulate_matrix(config, check_pruning=True)
        assert mat.height_series == net.height_series


class TestScanVariants:
    def test_pruned_equals_naive_heights(self):
        config = base_config(seed=3)
        t, series, widths, delays = scanned(config)
        assert series == list(simulate_matrix(config).height_series)
        visible_height_naive(t, series, widths, delays)
        for k in (1, 57, 199):
            bumped = series[:k] + [series[k] + 1] + series[k + 1:]
            with pytest.raises(InvariantError, match=f"scan mismatch at block {k}:"):
                visible_height_naive(t, bumped, widths, delays)

    def test_zero_delay_scan_window(self):
        n = 100
        out = simulate_matrix(base_config(beta=constant(0.0), n=n))
        assert out.proportion == 1.0
        assert out.stats["mean_scan_window"] == (n - 2) / (n - 1)


class TestRowBlocks:
    @pytest.fixture
    def small_blocks(self, monkeypatch):
        # Chunks of at most three arrivals and bands that start one arrival
        # wide, so runs span many chunks and bands widen past the rows kept.
        monkeypatch.setattr(matrix, "BAND_CELLS", 3)
        monkeypatch.setattr(matrix, "BAND_WIDTH", 1)

    def test_match_network_with_refetches(self, small_blocks):
        refetched = False
        for seed in range(4):
            config = base_config(n=400, beta=exponential(3.0), seed=seed)
            delay = SeekLogStream(seed, ROLE_DELAY)
            streams = StreamBundle(production=SampleStream(seed, ROLE_PRODUCTION),
                                   producer=SampleStream(seed, ROLE_PRODUCER),
                                   delay=delay)
            mat = simulate_matrix(config, streams)
            net = simulate_network(replace(config, record_tree=True))
            assert mat.height_series == net.height_series
            refetched = refetched or any(to < frm for frm, to in delay.seeks)
        assert refetched, "no band reached back past the rows kept"

    def test_pruning_check_on_chaotic_ratio(self, small_blocks):
        config = base_config(n=1500, beta=exponential(10.0), seed=8)
        checked = simulate_matrix(config, check_pruning=True)
        net = simulate_network(replace(config, record_tree=True))
        assert checked.height_series == net.height_series

    def test_scan_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(matrix, "_pruned_scan", faulty_pruned_scan(matrix, bump=5))
        with pytest.raises(InvariantError, match="scan mismatch at block 5:"):
            simulate_matrix(base_config(n=50), check_pruning=True)

    @pytest.mark.parametrize("fault", [dict(bump=5, by=-1), dict(stop=5)], ids=["lower", "early"])
    def test_lowered_height_and_early_stop_raise(self, monkeypatch, fault):
        monkeypatch.setattr(matrix, "_pruned_scan", faulty_pruned_scan(matrix, **fault))
        with pytest.raises(InvariantError, match="scan mismatch at block 5:"):
            simulate_matrix(base_config(n=50), check_pruning=True)

    def test_memory_bounded_by_blocks(self):
        # The whole matrix at m=1000, n=4000 holds about 4 million delays:
        # 32 MB as float64, and a traced peak near 150 MB as Python lists.
        config = base_config(m=1000, n=4000, beta=exponential(1.0), seed=1)
        tracemalloc.start()
        try:
            simulate_matrix(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("m, n, limit", [(10**6, 10**3, 8 * 2**20), (2 * 10**7, 3, 2**20)],
                             ids=["m1e6", "m2e7"])
    def test_narrow_bands_read_by_position(self, m, n, limit):
        # One row of the matrix is 8(m-1) bytes: 8 MB at m=10^6 and 160 MB
        # at m=2*10^7, where a run that drew rows peaked at 191 MB.  Bands
        # this narrow read their cells by position: no row is drawn, so the
        # delay stream never moves, and time follows the cells read (the
        # m=10^6 run took 58 s when it drew every row, under 0.5 s now).
        config = base_config(m=m, n=n, beta=exponential(1.0), seed=1)
        streams = StreamBundle.for_run(config.seed)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            out = simulate_matrix(config, streams)
            seconds = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit
        assert streams.delay.position == 0
        assert out.stats["delays_transformed"] <= 64 * (n - 1)
        assert seconds < 20

    @pytest.mark.parametrize("cells, band_cells", [(7, 12), (1, 5), (2**14, 2**16)])
    def test_check_across_chunks_and_row_blocks(self, monkeypatch, cells, band_cells):
        # Chunks of the check of 7 pairs, of one step each, and the default.
        monkeypatch.setattr(pruning, "CHECK_PAIRS", cells)
        monkeypatch.setattr(matrix, "BAND_CELLS", band_cells)
        for config in (base_config(n=120, beta=exponential(3.0), seed=2),
                       base_config(m=3, n=60, alpha=constant(1.0), beta=constant(2.0))):
            t, series, widths, delays = scanned(config)
            assert series == list(simulate_matrix(config, check_pruning=True).height_series)
            for k in (1, 30, len(series) - 1):
                bumped = series[:k] + [series[k] + 1] + series[k + 1:]
                with pytest.raises(InvariantError, match=f"scan mismatch at block {k}:"):
                    visible_height_naive(t, bumped, widths, delays)

    def test_check_memory_bounded(self):
        # The check reads the cells the scan tested, a chunk of steps at a
        # time; the whole matrix would take 8 MB as float64.
        config = base_config(m=1000, n=1000, beta=exponential(1.0), seed=1)
        tracemalloc.start()
        try:
            simulate_matrix(config, check_pruning=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    @pytest.mark.parametrize("cells", [5, pruning.CHECK_PAIRS])
    def test_check_reads_the_tested_cells(self, monkeypatch, cells):
        # Each tested pair's cell at its stream position, in scan order, and
        # nothing else; a producer pair's position is read too, and its
        # delay zeroed, so at m=1 every read is position 0.  The stream
        # does not move.
        monkeypatch.setattr(pruning, "CHECK_PAIRS", cells)
        for config in (base_config(m=1, n=300), base_config(m=40, n=500, beta=exponential(100.0)),
                       base_config(m=3, n=60, alpha=constant(1.0), beta=constant(2.0))):
            t, h, widths, delays = scanned(config)
            stream = delays._stream
            read, at, position = [], stream.at, stream.position
            stream.at = lambda positions: read.extend(positions.tolist()) or at(positions)
            visible_height_naive(t, h, widths, delays)
            m1, p = config.m - 1, [None, *delays._p.tolist()]
            want = [(i - 1) * m1 + p[k] - (p[k] > p[i])
                    for k in range(1, config.n) for i in range(k - 1, k - 1 - widths[k], -1)]
            assert read == want
            assert config.m > 1 or set(read) == {0}
            assert stream.position == position

    def test_check_scales_past_quadratic(self):
        # A pair-by-pair full scan tests about n^2/2 = 5*10^9 pairs here
        # and takes minutes; the check reads the 2.7*10^5 pairs the scan
        # tested in well under a second.
        config = base_config(m=3, n=10**5, beta=exponential(10.0), seed=1)
        t, series, widths, delays = scanned(config)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            visible_height_naive(t, series, widths, delays)
            seconds = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # About 5 arrays of n values and one chunk of CHECK_PAIRS pairs.
        assert peak < 8 * 2**20
        assert seconds < 20

    def test_check_at_a_million_workers(self):
        # The full scan would read all 10^9 cells; the check reads the
        # cells the scan tested, by position.
        config = base_config(m=10**6, n=10**3, beta=exponential(1.0), seed=1)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            checked = simulate_matrix(config, check_pruning=True)
            seconds = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert seconds < 20
        assert checked == simulate_matrix(config)


class TestBands:
    # Mean scan window, height and series digest (first 16 hex digits of
    # the sha256 of repr(height_series)) of each config as the engine
    # gave them when it transformed every matrix entry.
    PINNED = [
        ((3, 400, exponential(10.0), 1), 2.636591478696742, 208, "e596cec6a0a5b847"),
        ((40, 300, gamma(shape=2.0, mean=5.0), 2), 4.1003344481605355, 89,
         "9b414533e5d638eb"),
        ((2, 500, exponential(100.0), 3), 3.350701402805611, 275, "037f3509310e0ce4"),
        ((25, 1000, exponential(0.01), 4), 1.01001001001001, 989, "31d7e4e124cd8b57"),
        ((12, 800, gamma(shape=0.5, mean=30.0), 5), 4.3842302878598245, 271,
         "a1a91e6eef39d125"),
    ]

    @pytest.fixture
    def widths(self, monkeypatch):
        """Bands start one arrival wide; the list gets each chunk's width.

        Narrower than a row, a band widens when a scan runs past it; as
        long as a row, it reaches back to the first row of its chunk."""
        monkeypatch.setattr(matrix, "BAND_WIDTH", 1)
        widths, build = [], DelayMatrix._build
        monkeypatch.setattr(DelayMatrix, "_build",
                            lambda delays, k: widths.append(delays.band_width) or build(delays, k))
        return widths

    @pytest.mark.parametrize("params, window, height, digest", PINNED,
                             ids=["m3", "m40-gamma", "m2", "m25-fast", "m12-gamma"])
    def test_widened_bands_keep_outputs(self, widths, params, window, height, digest):
        m, n, beta, seed = params
        config = base_config(m=m, n=n, beta=beta, seed=seed)
        out = simulate_matrix(config, check_pruning=True)
        assert out.stats["mean_scan_window"] == window
        assert out.stats["pairs_tested"] == round(window * (n - 1))
        assert out.height == height
        assert hashlib.sha256(repr(out.height_series).encode()).hexdigest()[:16] == digest
        assert out.height_series == simulate_network(config).height_series
        assert widths

    def test_band_passes_to_whole_rows(self, widths):
        # The bands start narrower than a row and widen past m-1, where
        # whole rows are transformed instead of the bands' cells.
        config = base_config(m=12, n=800, beta=gamma(shape=0.5, mean=30.0), seed=5)
        assert simulate_matrix(config).height_series == simulate_network(config).height_series
        assert widths[0] < config.m - 1 <= widths[-1]

    @pytest.mark.parametrize("ratio", [1.0, 10.0])
    def test_scan_calls_the_matrix_once_per_chunk(self, monkeypatch, ratio):
        # At ratio 1 a step tests about 1.6 pairs, so a call into the
        # matrix at every step (3,999 here) would cost more than the
        # tests.  Every top-level call must build a new chunk where the
        # last one ended, or the same step's chunk at twice the width:
        # 2 calls at ratio 1, and 9 with 3 widenings at ratio 10.
        calls, depth = [], [0]
        for name, method in list(vars(DelayMatrix).items()):
            if callable(method) and not name.startswith("__"):
                def counted(delays, *args, _method=method, _name=name):
                    depth[0] += 1
                    try:
                        out = _method(delays, *args)
                    finally:
                        depth[0] -= 1
                    if not depth[0]:
                        calls.append((_name, args, delays.band_width, out))
                    return out

                monkeypatch.setattr(DelayMatrix, name, counted)
        n = 4000
        simulate_matrix(base_config(m=100, n=n, beta=exponential(ratio), seed=1))
        assert {name for name, *_ in calls} == {"_build"}
        step, end, width = 0, 1, matrix.BAND_WIDTH
        for _, (k,), w, chunk in calls:
            assert (k, w) == (end, width) or (step <= k < end and w == 2 * width)
            step, end, width = k, chunk[3], w
        assert end == n
        assert len(calls) < 20

    @pytest.mark.parametrize("m, n, ratio, times, peak_mb", [(100, 4000, 1e4, 4, 5.19),
                                                             (200, 2000, 1e5, 4, 15.84),
                                                             (9, 8000, 1e3, 1.1, 2.0)])
    def test_wide_bands_transform_each_row_about_once(self, m, n, ratio, times, peak_mb):
        # Delays far longer than the run widen the bands past a row.  When
        # each chunk of such bands transformed every row it reached, the
        # first two runs transformed 52 and 105 times (n-1)(m-1) values,
        # took 0.5 and 1.8 s, and peaked at peak_mb traced; they now
        # transform 1.26 and 1.77 times.  The third widens its bands past
        # the first row kept many times, and transforms 1.03 times: when a
        # widened band took a new array twice its rows, which dropped kept
        # rows past them to transform again, it transformed 1.48 times.
        config = base_config(m=m, n=n, beta=exponential(ratio), seed=1)
        tracemalloc.start()
        try:
            out = simulate_matrix(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.stats["delays_transformed"] <= times * (n - 1) * (m - 1)
        assert peak <= peak_mb * 2**20
        assert out.height_series == simulate_network(config).height_series

    def test_transforms_a_tenth_of_the_matrix(self):
        m, n = 1000, 4000
        out = simulate_matrix(base_config(m=m, n=n, beta=exponential(1.0), seed=1))
        assert out.stats["delays_transformed"] < (n - 1) * (m - 1) / 10
        assert out.stats["pairs_tested"] == round(out.stats["mean_scan_window"] * (n - 1))


class TestStrictVisibilityFault:
    def test_flip_changes_tie_heavy_outcome(self):
        config = base_config(m=3, n=60, alpha=constant(1.0), beta=constant(2.0),
                             seed=9)
        good = simulate_matrix(config)
        bad = simulate_matrix(config, strict_visibility=False)
        assert bad.height_series != good.height_series

    def test_flip_harmless_on_continuous_delays(self):
        config = base_config(seed=5)
        good = simulate_matrix(config)
        bad = simulate_matrix(config, strict_visibility=False)
        assert bad.height_series == good.height_series

    @pytest.mark.parametrize("m, digest, pairs", [
        (2, "6789656c362e888e", 85), (3, "38da523e99bca2c8", 91),
        (5, "c5414fc424b3fdb4", 102)])
    def test_lenient_series_pinned(self, m, digest, pairs):
        # Series digest (first 16 hex digits of the sha256 of
        # repr(height_series)) and pairs tested of lenient runs whose
        # arrivals land exactly on creation times, as the engine gave
        # them when it compared each pair with <=.
        config = base_config(m=m, n=60, alpha=constant(1.0), beta=constant(2.0), seed=9)
        bad = simulate_matrix(config, strict_visibility=False)
        assert hashlib.sha256(repr(bad.height_series).encode()).hexdigest()[:16] == digest
        assert bad.stats["pairs_tested"] == pairs

    @pytest.mark.parametrize("m, block", [(2, 7), (3, 6), (5, 4)])
    def test_checked_lenient_run_raises_where_a_tie_counts(self, m, block):
        # The check certifies only the model's <, so it names the first
        # step whose height or width the lenient scan took from a tie.
        config = base_config(m=m, n=60, alpha=constant(1.0), beta=constant(2.0), seed=9)
        with pytest.raises(InvariantError, match=f"scan mismatch at block {block}:"):
            simulate_matrix(config, strict_visibility=False, check_pruning=True)
        good = simulate_matrix(config).height_series
        bad = simulate_matrix(config, strict_visibility=False).height_series
        assert good[:block] == bad[:block]

    def test_checked_lenient_run_passes_on_continuous_delays(self):
        config = base_config(seed=5)
        assert simulate_matrix(config, strict_visibility=False, check_pruning=True) == \
            simulate_matrix(config)


class TestEdgeCases:
    def test_single_worker(self):
        out = simulate_matrix(base_config(m=1, n=40))
        assert out.proportion == 1.0

    def test_origin_only(self):
        out = simulate_matrix(base_config(n=1))
        assert (out.height, out.proportion) == (1, 1.0)
        assert out.stats["mean_scan_window"] == 0.0

    def test_two_blocks(self):
        out = simulate_matrix(base_config(n=2))
        assert out.height == 2

    def test_no_tree_materialized(self):
        assert simulate_matrix(base_config()).tree is None

    def test_determinism(self):
        a = simulate_matrix(base_config(beta=gamma(shape=2, mean=0.1)))
        b = simulate_matrix(base_config(beta=gamma(shape=2, mean=0.1)))
        assert a.height_series == b.height_series
