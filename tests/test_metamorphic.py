"""Metamorphic relations: pairs of runs whose outputs are related, known without knowing either.

(T. Y. Chen, S. C. Cheung and S. M. Yiu, "Metamorphic testing: a new
approach for generating next test cases", HKUST-CS98-01, 1998; S. Segura
et al., "A Survey on Metamorphic Testing", IEEE TSE 42(9), 2016.)

- Prefix: a run of n blocks is the first n blocks of a longer run at
  the same seed, on every engine, checked or not, since block k's draws
  sit at the same stream positions in both.
- Scale: multiplying both means by 2**j, j from -20 to 40, leaves the
  height series bit for bit the same on every engine: every draw, every
  creation time and every arrival scales by 2**j exactly, so every
  comparison keeps its outcome.
- Delay monotonicity: with the same seed, a larger delay mean never
  raises a height on ``network`` or ``matrix``.  Their delay d(i, j) is
  a fixed stream position's draw, which only grows with the mean, so
  every visibility set can only shrink.  The unbounded engine hands its
  draws out in scan order, so a pair's draw moves with the mean; it has
  no such coupling.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from blocksim.distributions import constant, exponential, gamma, with_mean
from blocksim.infinite import simulate_infinite
from blocksim.matrix import simulate_matrix
from blocksim.network import NetSimConfig, simulate_network

RELATION_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)
KINDS = {"exponential": exponential, "gamma": lambda mean: gamma(shape=2.0, mean=mean),
         "constant": constant}


@st.composite
def configs(draw):
    """Small runs of every delay kind, tie-rich constant ones included."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    if kind == "constant":
        alpha = constant(float(draw(st.integers(1, 2))))
        beta = constant(float(draw(st.integers(0, 4))))
    else:
        alpha = exponential(draw(st.sampled_from([0.5, 1.0, 2.0])))
        beta = KINDS[kind](10 ** draw(st.floats(-2, 2)))
    return NetSimConfig(m=draw(st.integers(1, 8)), n=draw(st.integers(1, 120)),
                        alpha=alpha, beta=beta, seed=draw(st.integers(0, 2**32)))


def all_series(config):
    """Height series of config on every engine, the scanning ones checked and not."""
    return [simulate_network(config).height_series,
            *(run(config, check_pruning=check).height_series
              for run in (simulate_matrix, simulate_infinite) for check in (False, True))]


class TestRelations:
    @RELATION_SETTINGS
    @given(configs(), st.integers(1, 80))
    def test_shorter_run_is_a_prefix(self, config, extra):
        longer = all_series(replace(config, n=config.n + extra))
        assert [s[:config.n] for s in longer] == all_series(config)

    @RELATION_SETTINGS
    @given(configs(), st.integers(-20, 40))
    def test_power_of_two_scale_keeps_every_series(self, config, j):
        scaled = replace(config, alpha=with_mean(config.alpha, config.alpha.mean * 2.0**j),
                         beta=with_mean(config.beta, config.beta.mean * 2.0**j))
        assert all_series(scaled) == all_series(config)

    @RELATION_SETTINGS
    @given(configs(), st.floats(1.0, 16.0))
    def test_longer_delays_never_raise_a_height(self, config, factor):
        slower = replace(config, beta=with_mean(config.beta, config.beta.mean * factor))
        for run in (simulate_network, simulate_matrix):
            fast, slow = run(config).height_series, run(slower).height_series
            assert all(a >= b for a, b in zip(fast, slow))
