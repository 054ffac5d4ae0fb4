"""Simulation toolkit for longest-chain block production under broadcast delay.

A pool of workers produces blocks at random intervals and broadcasts
them with random per-recipient lags; each worker extends the longest
chain it has seen.  The package provides three engines for the
resulting random tree (an event-driven network simulation, an exact
closed-form variant over a delay matrix, and a fast unbounded-worker
approximation), a Monte Carlo harness for the proportion of valid
blocks, a table of experiments built on it, and a CLI.
"""

__version__ = "0.1.0"

from .blocktree import BlockTree, classify, export_tree, tree_to_dot, tree_to_json
from .distributions import (DistributionSpec, chi_squared, constant, exponential,
                            gamma, mixture_cdf, parse_spec, sample_many,
                            sup_gap_bound, with_mean)
from .errors import ConfigError
from .infinite import simulate_infinite
from .matrix import simulate_matrix, visible_height_naive
from .montecarlo import (ExperimentResult, McEstimate, predicted_p, prediction_warning,
                         run_experiment, run_replications)
from .network import NetSimConfig, SimOutcome, simulate_network
from .rng import SampleStream, StreamBundle, mix64
from .validate import run_validation

__all__ = [name for name in dir() if not name.startswith("_")]
