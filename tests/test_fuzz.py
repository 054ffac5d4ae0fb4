"""Generated inputs: engine equivalence, the pruning check, and the CLI's input boundary.

The engine test runs the event-driven and delay-matrix engines over
generated small configs, tie-rich constant/constant ones included, and
requires identical height series; so does an example whose production
draws are often too small to move the time, where consecutive blocks
would share a creation time unless it is made strictly increasing.  The
check tests hold the pruning check of both scanning engines to reference
series, and require each injected fault to be reported at its block: a
height bumped by one or a step that reports one pair fewer, at a drawn
step of either engine; and, at the first step whose height or width is
not the pruned scan's, a scan bounded by z[i-1] instead of z[i] (either
engine), one reading each draw one stream position off (unbounded), one
that never widens its band or compares with <= (matrix).  The matrix
engine's check must also give the same verdict as a per-pair full scan
written here with the model's <, on strict and lenient series with one
height off by one or none, with the check's chunks 1, 7 or the default
number of pairs.
The CLI tests feed generated config files and manifests to
``simulate``, ``experiment`` and ``replay``:
every run must end with exit 0, or with exit 2 and a one-line message,
never with a traceback; and every valid config file must give a manifest
that replays to the same bytes.  Sizes stay small so that a generated run takes
milliseconds, and a job count never exceeds 1, so no process pool is
started.
"""

import json
import math
import tempfile
from pathlib import Path
from unittest import mock

from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings, strategies as st
import numpy as np

from blocksim import __version__, infinite, matrix, network, pruning, rng
from blocksim.cli import main
from blocksim.distributions import constant, exponential, gamma, sample_many
from blocksim.errors import InvariantError
from blocksim.infinite import simulate_infinite
from blocksim.manifest import SCHEMA_VERSION
from blocksim.matrix import DelayMatrix, simulate_matrix, visible_height_naive
from blocksim.network import NetSimConfig, draw_schedule, simulate_network
from conftest import checked
from helpers import faulty_pruned_scan, mutated_scan
from blocksim.rng import StreamBundle

CLI_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                        suppress_health_check=[HealthCheck.too_slow])


@st.composite
def run_configs(draw):
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 200))
    seed = draw(st.integers(0, 2**32))
    if draw(st.booleans()):
        # Integer times and delays: arrivals land exactly on creation
        # times and on each other.
        alpha = constant(float(draw(st.integers(1, 2))))
        beta = constant(float(draw(st.integers(0, 4))))
    else:
        alpha = exponential(1.0)
        beta = exponential(draw(st.sampled_from([0.01, 0.5, 1.0, 4.0])))
    return NetSimConfig(m=m, n=n, alpha=alpha, beta=beta, seed=seed)


class TestEngineEquivalence:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(run_configs())
    # Gamma production of shape 0.05: 78 of these 399 draws are below
    # half an ulp of the time so far.
    @example(NetSimConfig(m=3, n=400, alpha=gamma(shape=0.05, mean=1.0),
                          beta=exponential(1.0), seed=0))
    def test_network_and_matrix_height_series_agree(self, config):
        net = checked(simulate_network(config))
        mat = simulate_matrix(config, check_pruning=True)
        assert net.height_series == mat.height_series


@st.composite
def band_configs(draw):
    """Configs whose scans outgrow bands that start one arrival wide."""
    ratio = 10 ** draw(st.floats(-2, 2))
    beta = (exponential(ratio) if draw(st.booleans()) else
            gamma(shape=draw(st.sampled_from([0.5, 2.0])), mean=ratio))
    return NetSimConfig(m=draw(st.integers(2, 40)), n=draw(st.integers(1, 400)),
                        alpha=exponential(1.0), beta=beta,
                        seed=draw(st.integers(0, 2**32)))


class TestArrivalBands:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(band_configs(), st.sampled_from([40, matrix.BAND_CELLS]))
    # The band widens past m-1 here, from gathered cells to whole rows.
    @example(NetSimConfig(m=12, n=800, alpha=exponential(1.0),
                          beta=gamma(shape=0.5, mean=30.0), seed=5),
             matrix.BAND_CELLS)
    def test_widened_bands_agree_with_network(self, config, band_cells):
        # 40 arrivals per chunk make a run span many chunks of bands.
        with mock.patch.multiple(matrix, BAND_WIDTH=1, BAND_CELLS=band_cells):
            mat = simulate_matrix(config, check_pruning=True)
        assert mat.height_series == simulate_network(config).height_series


@st.composite
def draw_mode_configs(draw):
    """Configs from m=2 to 2,000, tie-rich constant/constant ones included."""
    m = draw(st.one_of(st.integers(2, 40), st.integers(41, 2000)))
    n = draw(st.integers(1, max(1, min(300, 60_000 // m))))
    kind = draw(st.sampled_from(["exponential", "gamma", "constant"]))
    if kind == "constant":
        alpha = constant(float(draw(st.integers(1, 2))))
        beta = constant(float(draw(st.integers(0, 4))))
    else:
        alpha = exponential(1.0)
        ratio = 10 ** draw(st.floats(-2, 2))
        beta = (exponential(ratio) if kind == "exponential" else
                gamma(shape=draw(st.sampled_from([0.5, 2.0])), mean=ratio))
    return NetSimConfig(m=m, n=n, alpha=alpha, beta=beta,
                        seed=draw(st.integers(0, 2**32)))


class TestDrawModes:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(draw_mode_configs(), st.booleans(), st.sampled_from([1, 8]))
    @example(NetSimConfig(m=2000, n=30, alpha=exponential(1.0), beta=exponential(1.0),
                          seed=1), True, 1)
    @example(NetSimConfig(m=300, n=200, alpha=constant(1.0), beta=constant(3.0),
                          seed=4), False, 1)
    def test_reading_by_position_matches_bulk_rows(self, config, strict, band_width):
        # DENSE 0 reads every set of positions through pcg; 2**62 draws
        # every set in order, at SLICE 1 in slices of the set's size.
        # The check certifies only <, so only strict runs are checked.
        outs = []
        for dense, slice_ in ((0, rng.SLICE), (2**62, rng.SLICE), (2**62, 1)):
            with mock.patch.object(rng, "DENSE", dense), \
                    mock.patch.object(rng, "SLICE", slice_), \
                    mock.patch.object(matrix, "BAND_WIDTH", band_width):
                out = simulate_matrix(config, check_pruning=strict, strict_visibility=strict)
            outs.append((out.height_series, out.stats["pairs_tested"],
                         out.stats["delays_transformed"]))
        assert outs[0] == outs[1] == outs[2]
        if strict:
            assert outs[0][0] == simulate_network(config).height_series


class TestNetworkRowBlocks:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.one_of(run_configs(), band_configs()))
    @example(NetSimConfig(m=1, n=300, alpha=exponential(1.0), beta=exponential(1.0),
                          seed=3))
    # Messages outlive many row blocks at every size.
    @example(NetSimConfig(m=30, n=400, alpha=exponential(1.0), beta=exponential(50.0),
                          seed=19))
    def test_row_block_size_does_not_change_outputs(self, config):
        # One block per row block, a few, and the default: messages wait
        # in flight across row block boundaries at different places.
        outs = []
        for row_values in (1, 5, network.ROW_VALUES):
            with mock.patch.object(network, "ROW_VALUES", row_values):
                out = checked(simulate_network(config))
            outs.append((out.tree, out.positions, out.height_series, out.stats))
        assert outs[0] == outs[1] == outs[2]


CHECK_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
TIE_CONFIG = NetSimConfig(m=3, n=60, alpha=constant(1.0), beta=constant(2.0), seed=9)
SHIFT_CONFIG = NetSimConfig(m=2, n=150, alpha=exponential(1.0), beta=exponential(1.0),
                            seed=5)
BAND_CONFIG = NetSimConfig(m=6, n=150, alpha=exponential(1.0), beta=exponential(4.0), seed=0)
EARLY_STOP = ("while x < z[i]:", "while x < z[i - 1]:")


def scan_of(engine, config, scan=None, **kwargs):
    """The (height, width) of each step of a checked run of config on
    engine, with ``scan`` in place of its pruned scan, and the message of
    the InvariantError the check raised, None if it passed."""
    results = []
    real = scan or engine._pruned_scan
    simulate = simulate_infinite if engine is infinite else simulate_matrix
    with mock.patch.object(engine, "_pruned_scan",
                           lambda *args: results.append(real(*args)) or results[-1]):
        try:
            simulate(config, check_pruning=True, **kwargs)
            error = None
        except InvariantError as exc:
            error = str(exc)
    h, _, widths = results[0]
    return list(zip(h, widths)), error


def first_difference(a, b):
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), None)


def caught_where_it_departs(engine, config, scan, **kwargs):
    """The check of a run whose pruned scan is ``scan`` raises at the
    first step whose height or width is not the pruned scan's, and passes
    if there is none; returns that step.

    The steps before it match the right run, draws and all, so the check
    sees the right history up to it.  A scan that tested too few pairs
    fails the stop bound there, one that tested too many fails the third
    condition, and a wrong height the first, whether or not the height
    differs.
    """
    right, error = scan_of(engine, config, **kwargs)
    assert error is None
    faulty, error = scan_of(engine, config, scan, **kwargs)
    k = first_difference(faulty, right)
    if k is None:
        assert error is None
    else:
        assert (error or "").startswith(f"scan mismatch at block {k}:"), error
    return k


class TestFullScanCheck:
    @CHECK_SETTINGS
    @given(run_configs())
    @example(NetSimConfig(m=3, n=1, alpha=exponential(1.0), beta=exponential(1.0), seed=1))
    @example(NetSimConfig(m=3, n=2, alpha=exponential(1.0), beta=exponential(1.0), seed=1))
    @example(NetSimConfig(m=1, n=80, alpha=exponential(1.0), beta=exponential(4.0), seed=1))
    def test_reference_series_pass(self, config):
        # The event-driven engine is the strict reference.  The matrix
        # engine's lenient fault hook passes the check, which keeps the
        # model's <, exactly when every step is the strict run's.
        checked = simulate_matrix(config, check_pruning=True)
        assert checked == simulate_matrix(config)
        assert checked.height_series == simulate_network(config).height_series
        lenient, error = scan_of(matrix, config, strict_visibility=False)
        assert (error is None) == (lenient == scan_of(matrix, config)[0])
        assert simulate_infinite(config, check_pruning=True) == simulate_infinite(config)

    @CHECK_SETTINGS
    @given(run_configs(), st.data())
    def test_one_step_off_is_caught_there(self, config, data):
        if config.n < 2:
            return
        k = data.draw(st.integers(1, config.n - 1))
        by = data.draw(st.sampled_from([-1, 1]))
        for engine in (infinite, matrix):
            _, error = scan_of(engine, config, faulty_pruned_scan(engine, bump=k, by=by))
            assert (error or "").startswith(f"scan mismatch at block {k}:"), error

    @CHECK_SETTINGS
    @given(run_configs(), st.data())
    def test_early_stop_is_caught_there(self, config, data):
        # At a drawn step, reporting one pair fewer with the same height;
        # every step from 2 on tests at least one pair.  Then a scan that
        # stops one pair early at every step it can, bounded by z[i-1].
        for engine in (infinite, matrix):
            if config.n > 2:
                k = data.draw(st.integers(2, config.n - 1))
                _, error = scan_of(engine, config, faulty_pruned_scan(engine, stop=k))
                assert (error or "").startswith(f"scan mismatch at block {k}:"), error
            caught_where_it_departs(engine, config, mutated_scan(engine, *EARLY_STOP))

    @CHECK_SETTINGS
    @example(SHIFT_CONFIG)
    @given(run_configs())
    def test_draws_one_position_off_are_caught(self, config):
        # A pruned scan reading each pair's draw one stream position past
        # the draw contract's: an off-by-one between scan and check.
        k = caught_where_it_departs(infinite, config, faulty_pruned_scan(infinite, skip=1))
        if config == SHIFT_CONFIG:
            assert k is not None

    @CHECK_SETTINGS
    @example(TIE_CONFIG)
    @given(run_configs())
    def test_lenient_scan_is_caught(self, config):
        # <= in place of < in the pruned scan, checked with <.
        pruned = matrix._pruned_scan
        k = caught_where_it_departs(matrix, config,
                                    lambda t, delays, strict: pruned(t, delays, False))
        if config == TIE_CONFIG:
            assert k is not None

    @CHECK_SETTINGS
    @example(BAND_CONFIG)
    @given(run_configs())
    def test_cells_below_the_band_are_caught(self, config):
        # A scan that never widens its band reads other steps' cells below it.
        with mock.patch.object(matrix, "BAND_WIDTH", 1):
            k = caught_where_it_departs(matrix, config,
                                        mutated_scan(matrix, "if i < lo:", "if False:"))
        if config == BAND_CONFIG:
            assert k is not None


@st.composite
def check_cases(draw):
    """A run's config, its visibility rule, its series with at most one
    height off by 1, its scan's widths, and the check's chunk size."""
    m = draw(st.one_of(st.integers(1, 40), st.integers(41, 3000)))
    kind = draw(st.sampled_from(["exponential", "gamma", "constant"]))
    if kind == "constant":
        alpha = constant(float(draw(st.integers(1, 2))))
        beta = constant(float(draw(st.integers(0, 4))))
    else:
        alpha = exponential(1.0)
        ratio = 10 ** draw(st.floats(-2, 2))
        beta = (exponential(ratio) if kind == "exponential" else
                gamma(shape=draw(st.sampled_from([0.5, 2.0])), mean=ratio))
    config = NetSimConfig(m=m, n=draw(st.integers(1, 700)), alpha=alpha, beta=beta,
                          seed=draw(st.integers(0, 2**32)))
    strict = draw(st.booleans())
    steps, _ = scan_of(matrix, config, strict_visibility=strict)
    series, widths = (list(column) for column in zip(*steps))
    if config.n > 1 and draw(st.booleans()):
        series[draw(st.integers(1, config.n - 1))] += draw(st.sampled_from([-1, 1]))
    return config, strict, series, widths, draw(st.sampled_from([1, 7, pruning.CHECK_PAIRS]))


def per_pair_check(config, series):
    """The full scan of the definition: every step against every earlier
    block whose arrival is below its creation time."""
    streams = StreamBundle.for_run(config.seed)
    t, producers = draw_schedule(config, streams)
    m1 = config.m - 1
    rows = sample_many(config.beta, streams.delay, (config.n - 1) * m1).reshape(config.n - 1, m1)
    # d[i-1, j] is block i's delay to worker j, 0 at its own producer.
    d = np.array([np.insert(row, p, 0.0) for row, p in zip(rows, producers)])
    h = np.asarray(series)
    for k in range(1, config.n):
        arrival = t[1:k] + d[:k - 1, producers[k - 1]]
        best = h[1:k][arrival < t[k]].max(initial=1)
        if h[k] != best + 1:
            return f"scan mismatch at block {k}: {h[k]} != {best + 1}"
    return None


def named_block(message):
    """The block a scan mismatch message names, infinity for None."""
    return math.inf if message is None else int(message.split()[4].rstrip(":"))


class TestCheckScan:
    """The check against the full scan, on the pairs the pruned scan tested.

    A series that is the strict run's own but for one height passes the
    check's stop bound up to that height's step, where the pairs tested
    hold the full scan's best, so the check names the step and the two
    heights that the full scan does.  A lenient run's pairs need not hold
    the full scan's best, so there the check only never names a block
    later than the full scan: every step it passes has the full scan's
    height.
    """

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(check_cases())
    def test_agrees_with_per_pair_scan(self, case):
        config, strict, series, widths, chunk = case
        streams = StreamBundle.for_run(config.seed)
        t, producers = draw_schedule(config, streams)
        delays = DelayMatrix(config.beta, streams.delay, producers, config.m, t)
        try:
            with mock.patch.object(pruning, "CHECK_PAIRS", chunk):
                visible_height_naive(t, series, widths, delays)
            message = None
        except InvariantError as exc:
            message = str(exc)
        want = per_pair_check(config, series)
        if strict:
            assert message == want
        else:
            assert named_block(message) <= named_block(want), (message, want)


# Values a hand-edited file may hold where the program expects another
# type.  Numbers stay small, and strings hold no digits, so that a value
# accepted as a size never makes a long run.
small_ints = st.integers(-2, 40)
odd_values = st.one_of(
    st.none(), st.booleans(), small_ints,
    st.floats(-2.0, 40.0), st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text("abx:-. ", max_size=4),
    st.lists(small_ints, max_size=2),
    st.dictionaries(st.sampled_from(["kind", "mean", "shape"]), small_ints, max_size=2),
)
odd_specs = st.one_of(
    st.sampled_from(["exp:nan", "exp:-1", "const:0", "bogus:1", "exp", "gamma:1"]),
    st.fixed_dictionaries({"kind": st.sampled_from(["exponential", "gamma", "chi_squared",
                                                    "constant", "x"])},
                          optional={"mean": odd_values, "shape": odd_values}),
    odd_values)
odd_names = st.one_of(
    st.dictionaries(st.sampled_from(["outcome", "tree", "series", "table"]),
                    st.one_of(st.sampled_from(["x.json", "a/b", "..", ""]), odd_values),
                    max_size=3),
    odd_values)
# A job count above 1 would start a process pool, so odd ones stay below.
odd_jobs = st.sampled_from([0, -1, 1.5, math.nan, "x", None, [1]])
ODD = {"alpha": odd_specs, "beta": odd_specs, "output_names": odd_names, "jobs": odd_jobs}

production = st.sampled_from(["exp:1", "gamma:1:2", "chi2:2", "const:1",
                              {"kind": "exponential", "mean": 2.0}])
delay = st.sampled_from(["exp:0.5", "const:0", "const:1", "gamma:0.5:2",
                         {"kind": "chi_squared", "shape": 1.0}])
engines = st.sampled_from(["network", "matrix", "infinite"])

simulate_configs = st.fixed_dictionaries({
    "engine": engines, "alpha": production, "beta": delay,
    "n": st.integers(1, 30), "m": st.integers(1, 6), "seed": st.integers(0, 99)})
experiment_configs = st.fixed_dictionaries({
    "kind": st.sampled_from(["single", "efficiency", "convergence", "pdf-histogram"]),
    "alpha": production, "beta": delay, "n": st.integers(1, 30),
    "reps": st.integers(1, 3),
    "sweep": st.one_of(st.none(), st.lists(st.integers(1, 12), min_size=1, max_size=3)),
    "m": st.integers(1, 6), "bins": st.integers(1, 5), "engine": engines,
    "seed": st.integers(0, 99), "jobs": st.just(1)})


@st.composite
def with_odd_fields(draw, docs):
    """A valid doc with up to two fields deleted or given an odd value."""
    doc = dict(draw(docs))
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2, unique=True)):
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(ODD.get(key, odd_values))
    return doc


def invoke(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2), (result.output, result.exception)
    if result.exit_code == 2:
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), result.output
    return result


def run_with_config(command, doc, out_name):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        return invoke([command, "--config", str(path), "--out", str(Path(tmp) / out_name)])


def run_and_replay(command, doc, out_name):
    """Run command from a valid config file, then replay its manifest."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        out = Path(tmp) / out_name
        result = CliRunner().invoke(main, [command, "--config", str(path), "--out", str(out)])
        assert result.exit_code == 0, (result.output, result.exception)
        result = CliRunner().invoke(main, ["replay", f"{out}.manifest.json",
                                           "--out-dir", str(Path(tmp) / "replayed")])
        assert result.exit_code == 0, (result.output, result.exception)
        assert result.output.endswith(f"{out_name}: match\n"), result.output


SIMULATE_PARAMS = {
    "engine": "network", "alpha": {"kind": "exponential", "mean": 1.0},
    "beta": {"kind": "exponential", "mean": 0.5}, "m": 3, "n": 20, "seed": 1,
    "tree_format": "json",
    "output_names": {"outcome": "o.json", "tree": "t.json", "series": None}}
EXPERIMENT_PARAMS = {
    "kind": "single", "alpha": {"kind": "exponential", "mean": 1.0},
    "beta": {"kind": "exponential", "mean": 0.5}, "n": 20, "replications": 2,
    "sweep": [], "m": 3, "bins": 4, "engine": "infinite", "seed": 1, "jobs": 1,
    "output_names": {"table": "t.csv"}}

# (command, params) of a manifest; the command is odd one time in three.
manifests = st.sampled_from(["simulate", "experiment"]).flatmap(
    lambda command: st.tuples(
        st.integers(0, 2).flatmap(lambda i: st.just(command) if i else odd_values),
        with_odd_fields(st.just(SIMULATE_PARAMS if command == "simulate"
                                else EXPERIMENT_PARAMS))))


class TestCliInputs:
    @CLI_SETTINGS
    @given(with_odd_fields(simulate_configs))
    def test_simulate_config_exits_0_or_2(self, doc):
        run_with_config("simulate", doc, "outcome.json")

    @CLI_SETTINGS
    @given(with_odd_fields(experiment_configs))
    def test_experiment_config_exits_0_or_2(self, doc):
        run_with_config("experiment", doc, "table.csv")

    @CLI_SETTINGS
    @given(simulate_configs)
    def test_simulate_config_replays_to_the_same_bytes(self, doc):
        run_and_replay("simulate", doc, "outcome.json")

    @CLI_SETTINGS
    @given(experiment_configs)
    def test_experiment_config_replays_to_the_same_bytes(self, doc):
        run_and_replay("experiment", doc, "table.csv")

    @CLI_SETTINGS
    @given(manifests)
    def test_replay_exits_0_or_2(self, manifest):
        command, params = manifest
        doc = {"command": command, "params": params, "base_seed": 1,
               "version": __version__, "schema_version": SCHEMA_VERSION, "outputs": {}}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.manifest.json"
            path.write_text(json.dumps(doc))
            invoke(["replay", str(path), "--no-check", "--out-dir", str(Path(tmp) / "out")])
