"""Simulation toolkit for longest-chain block production under broadcast delay.

A pool of workers produces blocks at random intervals and broadcasts
them with random per-recipient lags; each worker extends the longest
chain it has seen.  The package provides three engines for the
resulting random tree (an event-driven network simulation, an exact
closed-form variant over a delay matrix, and a fast unbounded-worker
approximation), a Monte Carlo harness for the proportion of valid
blocks, a table of experiments built on it, and a CLI.

The submodules are the API: import from ``blocksim.network``,
``blocksim.montecarlo`` and the rest.  This file imports none of them,
so that ``blocksim.cli`` can set up the process before numpy loads.
"""

__version__ = "0.1.0"
