import numpy as np
import pytest

from blocksim.distributions import _transform, chi_squared, exponential, gamma, sample_many
from blocksim.rng import (DENSE, ROLE_DELAY, ROLE_PRODUCER, ROLE_PRODUCTION, SampleStream,
                          StreamBundle, mix64)
from helpers import ScriptedStream

# at() recomputes numpy's PCG64 outputs; a mismatch means numpy changed them.
PCG64_CHANGED = f"numpy {np.__version__}'s PCG64 no longer gives the values at() computes"


class TestMix64:
    def test_deterministic(self):
        assert mix64(123, 456) == mix64(123, 456)

    def test_64_bit_range(self):
        for base in (0, 1, 2**63, 2**64 - 1):
            for sid in (0, 1, 999):
                assert 0 <= mix64(base, sid) < 2**64

    def test_adjacent_ids_diverge(self):
        # Avalanche sanity: neighboring stream ids should differ in many bits.
        seeds = [mix64(42, sid) for sid in range(100)]
        assert len(set(seeds)) == 100
        for a, b in zip(seeds, seeds[1:]):
            assert bin(a ^ b).count("1") > 10

    def test_base_seed_matters(self):
        assert mix64(1, 7) != mix64(2, 7)


class TestSampleStream:
    def test_identical_ids_identical_draws(self):
        a = SampleStream(99, 5).uniforms(1000)
        b = SampleStream(99, 5).uniforms(1000)
        assert np.array_equal(a, b)

    def test_distinct_ids_distinct_draws(self):
        a = SampleStream(99, 5).uniforms(1000)
        b = SampleStream(99, 6).uniforms(1000)
        assert not np.array_equal(a, b)

    def test_position_counts_draws(self):
        s = SampleStream(0, 0)
        s.uniforms(10)
        s.uniforms(3)
        assert s.position == 13

    def test_chunking_preserves_sequence(self):
        whole = SampleStream(7, 1).uniforms(100)
        s = SampleStream(7, 1)
        parts = np.concatenate([s.uniforms(30), s.uniforms(50), s.uniforms(20)])
        assert np.array_equal(whole, parts)

    def test_range(self):
        u = SampleStream(3, 3).uniforms(10000)
        assert np.all(u >= 0) and np.all(u < 1)

    @pytest.mark.parametrize("start, jumps", [
        (0, [(700, 50)]),                        # forward from the start
        (900, [(120, 30), (0, 10), (515, 5)]),   # backward, then forward
        (64, [(64, 16), (64, 16)]),              # to where it already is
    ])
    def test_seek_matches_sequential_draws(self, start, jumps):
        whole = SampleStream(11, 3).uniforms(1000)
        s = SampleStream(11, 3)
        s.uniforms(start)
        for pos, k in jumps:
            s.seek(pos)
            assert s.position == pos
            assert np.array_equal(s.uniforms(k), whole[pos:pos + k])
            assert s.position == pos + k


class DrawLogStream(SampleStream):
    """Seeded stream that logs the size of every in-order draw."""

    def __init__(self, base_seed, stream_id):
        super().__init__(base_seed, stream_id)
        self.draws = []

    def uniforms(self, size):
        self.draws.append(size)
        return super().uniforms(size)


_SHUFFLE = np.random.default_rng(5)

# Sets of positions and whether at() draws them in order: a set spanning
# at most DENSE values per position is dense, any other is read by pcg.
# The large dense sets span 131,077 and 1,769,464 values, each drawn at once.
AT_SETS = {
    "dense-sorted": (np.arange(100, 400), True),
    "dense-unsorted-repeats": (_SHUFFLE.permutation(np.r_[np.arange(500, 800, 3), 500, 797, 650]),
                               True),
    "dense-2d": (np.arange(4090, 4102).reshape(3, 4)[::-1], True),
    "dense-0d": (np.array(1234), True),
    "dense-at-the-bound": (np.array([10, 10 + 2 * DENSE - 1]), True),
    "dense-large-shuffled": (_SHUFFLE.permutation(np.arange(1000, 1000 + 2 * 2**16 + 10, DENSE)),
                             True),
    "dense-large-reversed": (np.arange(5, 5 + DENSE * 3 * 2**16, DENSE)[::-1], True),
    "sparse-past-the-bound": (np.array([10, 10 + 2 * DENSE]), False),
    "sparse-sorted": (np.sort(_SHUFFLE.choice(20_000, 50, replace=False)), False),
    "sparse-unsorted-repeats": (np.r_[19_999, 3, 9000, 3, 19_999, 4095, 4096], False),
    "empty": (np.array([], dtype=np.int64), False),
}


class TestAt:
    SEEDS = [(0, 0), (11, 3), (2024, ROLE_DELAY), (2**64 - 1, 7)]

    @pytest.mark.parametrize("moved", [0, 7000])
    @pytest.mark.parametrize("name", AT_SETS)
    def test_dense_and_sparse_sets(self, name, moved):
        pos, dense = AT_SETS[name]
        whole = SampleStream(11, 3).uniforms(moved + int(pos.max(initial=0)) + 10)
        s = DrawLogStream(11, 3)
        s.uniforms(moved)
        s.draws.clear()
        got = s.at(pos)
        assert got.shape == pos.shape
        assert np.array_equal(got, whole[pos]), PCG64_CHANGED
        # One in-order draw of the set's whole span, or none.
        assert s.draws == ([int(pos.max() - pos.min()) + 1] if dense else [])
        assert sum(s.draws) <= DENSE * pos.size
        assert s.position == moved
        assert np.array_equal(s.uniforms(5), whole[moved:moved + 5])

    @pytest.mark.parametrize("pos", [[2, -1, 0, 1], [-1, 10**6]], ids=["dense", "sparse"])
    def test_negative_positions_raise(self, pos):
        s = DrawLogStream(11, 3)
        s.uniforms(40)
        with pytest.raises(ValueError):
            s.at(pos)
        assert s.position == 40
        assert s.draws == [40]

    @pytest.mark.parametrize("seed, stream_id", SEEDS)
    def test_unsorted_and_repeated_positions(self, seed, stream_id):
        whole = SampleStream(seed, stream_id).uniforms(50_000)
        pos = np.random.default_rng(seed % 1000).integers(0, len(whole), 3000)
        pos = np.concatenate((pos, pos[:100], [0, 0, len(whole) - 1]))
        assert np.array_equal(SampleStream(seed, stream_id).at(pos), whole[pos]), PCG64_CHANGED

    @pytest.mark.parametrize("seed, stream_id", SEEDS)
    def test_both_sides_of_an_anchor(self, seed, stream_id):
        # Anchors fall every 4,096 steps, and value p is p+1 steps on.
        whole = SampleStream(seed, stream_id).uniforms(3 * 4096 + 8)
        pos = [p for a in (4096, 2 * 4096, 3 * 4096) for p in range(a - 3, a + 3)]
        # Alone, each position is a sparse read: one anchor jump per value.
        s = SampleStream(seed, stream_id)
        assert np.array_equal(s.at(pos), whole[pos]), PCG64_CHANGED
        assert [s.at([p])[0] for p in pos] == whole[pos].tolist(), PCG64_CHANGED

    @pytest.mark.parametrize("seed, stream_id", SEEDS)
    def test_positions_above_2_to_the_32(self, seed, stream_id):
        # Far more anchors apart than values: each value's anchor is jumped to.
        pos = [2**62 + 12345, 2**32, 2**32 - 1, 3 * 2**40 + 17, 2**32, 2**32 + 4095]
        want = []
        for p in pos:
            s = SampleStream(seed, stream_id)
            s.seek(p)
            want.append(s.uniforms(1)[0])
        assert SampleStream(seed, stream_id).at(pos).tolist() == want, PCG64_CHANGED

    @pytest.mark.parametrize("seed, stream_id", SEEDS)
    def test_before_and_after_seek_and_draws(self, seed, stream_id):
        whole = SampleStream(seed, stream_id).uniforms(20_000)
        pos = np.array([[19_999, 0], [8191, 5], [4096, 12_000]])
        s = SampleStream(seed, stream_id)
        s.uniforms(7000)
        assert np.array_equal(s.at(pos), whole[pos]), PCG64_CHANGED
        assert s.position == 7000
        assert np.array_equal(s.uniforms(5), whole[7000:7005])
        s.seek(15_000)
        assert np.array_equal(s.at(pos), whole[pos]), PCG64_CHANGED
        assert s.position == 15_000
        assert np.array_equal(s.uniforms(3), whole[15_000:15_003])
        s.seek(2)
        assert np.array_equal(s.at(pos[::-1]), whole[pos[::-1]]), PCG64_CHANGED
        assert s.position == 2

    def test_empty_and_negative(self):
        s = SampleStream(5, 1)
        assert s.at([]).shape == (0,)
        with pytest.raises(ValueError):
            s.at([3, -1])

    @pytest.mark.parametrize("spec", [exponential(2.0), gamma(shape=0.5, mean=3.0),
                                      chi_squared(3.0)], ids=["exp", "gamma", "chi2"])
    def test_transform_of_at_equals_sample_many(self, spec):
        values = sample_many(spec, SampleStream(77, ROLE_DELAY), 30_000)
        pos = np.random.default_rng(3).integers(0, len(values), 2000)
        got = _transform(spec, SampleStream(77, ROLE_DELAY).at(pos))
        assert np.array_equal(got, values[pos]), PCG64_CHANGED


class TestScriptedStream:
    def test_replays_values(self):
        s = ScriptedStream([0.1, 0.2, 0.3])
        assert np.allclose(s.uniforms(2), [0.1, 0.2])
        assert np.allclose(s.uniforms(1), [0.3])

    def test_exhaustion_raises(self):
        s = ScriptedStream([0.5])
        s.uniforms(1)
        with pytest.raises(IndexError):
            s.uniforms(1)

    def test_take_returns_partial(self):
        s = ScriptedStream([0.1, 0.2])
        assert len(s.take_uniforms(100)) == 2
        with pytest.raises(IndexError):
            s.take_uniforms(1)

    def test_seek_sets_position(self):
        s = ScriptedStream([0.1, 0.2, 0.3])
        s.seek(2)
        assert np.allclose(s.uniforms(1), [0.3])
        s.seek(0)
        assert np.allclose(s.uniforms(2), [0.1, 0.2])

    def test_at_indexes_the_script(self):
        s = ScriptedStream([0.1, 0.2, 0.3])
        s.uniforms(1)
        assert s.at([2, 0, 2]).tolist() == [0.3, 0.1, 0.3]
        assert s.position == 1
        with pytest.raises(IndexError):
            s.at([1, 3])
        with pytest.raises(IndexError):
            s.at([-1])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ScriptedStream([0.5, 1.0])
        with pytest.raises(ValueError):
            ScriptedStream([-0.1])


class TestStreamBundle:
    def test_roles_are_distinct_streams(self):
        b = StreamBundle.for_run(2024)
        draws = {
            "production": tuple(b.production.uniforms(5)),
            "producer": tuple(b.producer.uniforms(5)),
            "delay": tuple(b.delay.uniforms(5)),
        }
        assert len(set(draws.values())) == 3

    def test_seed_echo_matches_mix(self):
        b = StreamBundle.for_run(77)
        echo = b.seed_echo()
        assert echo == {
            "production": mix64(77, ROLE_PRODUCTION),
            "producer": mix64(77, ROLE_PRODUCER),
            "delay": mix64(77, ROLE_DELAY),
        }

    def test_same_run_seed_same_bundle(self):
        a = StreamBundle.for_run(5)
        b = StreamBundle.for_run(5)
        assert np.array_equal(a.delay.uniforms(100), b.delay.uniforms(100))
