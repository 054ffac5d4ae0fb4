import ast
import json
import math
import os
from pathlib import Path
import subprocess
import sys

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

import blocksim
from blocksim.distributions import (BufferedSampler, DistributionSpec, _transform, cdf,
                                    chi_squared, constant, exponential, gamma,
                                    mixture_cdf, parse_spec,
                                    require_production_role, sample_many,
                                    spec_from_dict, sup_gap_bound, with_mean)
from blocksim.errors import ConfigError
from blocksim.rng import SampleStream
from helpers import ScriptedStream, ks_distance


class TestSpecValidation:
    def test_kinds(self):
        exponential(1.0)
        gamma(shape=2, mean=4)
        chi_squared(3)
        constant(0.0)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            DistributionSpec("uniform", 1.0)

    def test_nonpositive_means(self):
        with pytest.raises(ConfigError):
            exponential(0.0)
        with pytest.raises(ConfigError):
            gamma(shape=2, mean=-1)
        with pytest.raises(ConfigError):
            constant(-0.5)

    def test_constant_zero_is_delay_only(self):
        spec = constant(0.0)
        with pytest.raises(ConfigError):
            require_production_role(spec, 10)
        require_production_role(constant(1.5), 10)

    def test_creation_times_that_can_overflow_rejected(self):
        top = float(np.finfo(float).max)
        require_production_role(exponential(1e300), 1000)
        require_production_role(exponential(1e308), 1)  # no draws, no sum
        require_production_role(constant(top / 3), 3)
        for spec, n in [(exponential(1e308), 2), (exponential(1e300), 10**7),
                        (constant(top / 3), 5), (gamma(shape=0.01, mean=1e303), 200)]:
            with pytest.raises(ConfigError, match="can overflow creation times"):
                require_production_role(spec, n)

    @pytest.mark.parametrize("make", [
        lambda: exponential(float("nan")),
        lambda: exponential(float("inf")),
        lambda: constant(float("nan")),
        lambda: gamma(shape=float("nan"), mean=1.0),
        lambda: gamma(shape=2.0, mean=float("inf")),
        lambda: chi_squared(float("inf")),
        lambda: DistributionSpec("exponential", "fast"),
        # Draws that would be NaN: a subnormal shape (scipy's gammaincinv
        # is NaN there), or a scale mean/shape of inf or 0.
        lambda: gamma(shape=5e-324, mean=1.0),
        lambda: chi_squared(1e-308),
        lambda: gamma(shape=1e-10, mean=1e300),
        lambda: gamma(shape=2.0, mean=5e-324),
    ])
    def test_non_finite_or_non_numeric_rejected(self, make):
        with pytest.raises(ConfigError):
            make()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.booleans(), st.floats(-323, 308), st.floats(-323, 308))
    def test_accepted_gamma_kinds_never_draw_nan(self, is_gamma, log_shape, log_mean):
        # Shape and mean log-uniform over the doubles; specs that are
        # rejected are not drawn from.
        try:
            spec = (gamma(shape=10.0**log_shape, mean=10.0**log_mean) if is_gamma
                    else chi_squared(10.0**log_shape))
        except ConfigError:
            return
        u = np.array([0.0, 2.0**-53, 1e-10, 0.5, 1.0 - 2.0**-53])
        assert not np.isnan(_transform(spec, u)).any()

    @pytest.mark.parametrize("mean, shape", [(True, 2.0), (1.0, True), (False, None)])
    def test_boolean_parameters_rejected(self, mean, shape):
        # float(True) is 1.0; a JSON true is not a number all the same.
        kind = "exponential" if shape is None else "gamma"
        with pytest.raises(ConfigError, match="must be a number, got (True|False)"):
            DistributionSpec(kind, mean, shape)

    def test_shape_required_and_positive(self):
        with pytest.raises(ConfigError):
            DistributionSpec("gamma", 1.0)
        with pytest.raises(ConfigError):
            gamma(shape=0, mean=1)

    def test_chi_squared_mean_is_dof(self):
        assert chi_squared(4).mean == 4.0
        with pytest.raises(ConfigError):
            DistributionSpec("chi_squared", mean=3.0, shape=4.0)

    def test_shape_normalized_away_for_simple_kinds(self):
        assert DistributionSpec("exponential", 1.0, shape=9.0).shape is None
        assert DistributionSpec("constant", 1.0, shape=9.0).shape is None

    def test_gamma_scale(self):
        assert gamma(shape=2, mean=4).scale == 2.0
        assert chi_squared(6).scale == 2.0

    def test_with_mean(self):
        assert with_mean(exponential(1.0), 0.25).mean == 0.25
        g = with_mean(gamma(shape=3, mean=1), 0.5)
        assert (g.shape, g.mean) == (3.0, 0.5)
        c = with_mean(chi_squared(2), 5.0)
        assert (c.shape, c.mean) == (5.0, 5.0)


class TestSerialization:
    def test_dict_round_trip(self):
        for spec in (exponential(1.5), gamma(shape=2, mean=0.5), chi_squared(3),
                     constant(0.0)):
            assert spec_from_dict(spec.to_dict()) == spec

    def test_dict_schema_keys(self):
        assert exponential(2.0).to_dict() == {"kind": "exponential", "mean": 2.0}
        assert gamma(shape=2, mean=4).to_dict() == {
            "kind": "gamma", "mean": 4.0, "shape": 2.0}

    def test_dict_that_is_not_an_object(self):
        with pytest.raises(ConfigError, match="a distribution must be a JSON object"):
            spec_from_dict(["exponential", 1.0])

    def test_chi_squared_dict_without_mean(self):
        assert spec_from_dict({"kind": "chi_squared", "shape": 5}) == chi_squared(5)

    def test_chi_squared_dict_mean_sets_dof(self):
        assert spec_from_dict({"kind": "chi_squared", "mean": 3}) == chi_squared(3)
        with pytest.raises(ConfigError):
            spec_from_dict({"kind": "chi_squared"})
        with pytest.raises(ConfigError):
            spec_from_dict({"kind": "chi_squared", "mean": 3, "shape": 4})

    def test_flag_syntax(self):
        assert parse_spec("exp:1") == exponential(1.0)
        assert parse_spec("gamma:0.5:2") == gamma(shape=2, mean=0.5)
        assert parse_spec("chi2:4") == chi_squared(4)
        assert parse_spec("const:0") == constant(0.0)

    def test_flag_syntax_errors(self):
        for bad in ("nope:1", "exp", "exp:x", "gamma:1", "exp:1:2"):
            with pytest.raises(ConfigError):
                parse_spec(bad)


class TestSampling:
    def test_constant_every_call(self):
        stream = SampleStream(1, 1)
        assert sample_many(constant(1.5), stream, 5).tolist() == [1.5] * 5

    def test_one_uniform_per_draw_all_kinds(self):
        for spec in (exponential(1), gamma(shape=2, mean=1), chi_squared(3),
                     constant(2.0)):
            stream = SampleStream(3, 9)
            sample_many(spec, stream, 40)
            assert stream.position == 40

    def test_exponential_mean_large_sample(self):
        draws = sample_many(exponential(1.0), SampleStream(11, 1), 10**6)
        assert 0.99 <= float(draws.mean()) <= 1.01

    def test_gamma_variance_identity(self):
        # Var = mean^2 / shape; tolerance is 3 standard errors of the
        # sample variance (kurtosis-adjusted, about 0.054 at this size).
        draws = sample_many(gamma(shape=2, mean=4), SampleStream(12, 1), 10**6)
        assert abs(float(draws.var(ddof=1)) - 8.0) < 0.06

    def test_strictly_positive_draws(self):
        for spec in (exponential(0.001), gamma(shape=0.5, mean=0.01), chi_squared(0.2)):
            stream = ScriptedStream([0.0, 0.5, 0.9])
            assert np.all(sample_many(spec, stream, 3) > 0)

    @pytest.mark.parametrize("sid,spec", [(1, exponential(1.0)),
                                          (2, gamma(shape=2, mean=1.5)),
                                          (3, chi_squared(3)),
                                          (4, gamma(shape=5, mean=0.5))])
    def test_ks_distance_to_cdf(self, sid, spec):
        draws = sample_many(spec, SampleStream(13, sid), 10**5)
        assert ks_distance(draws, spec) < 0.01

    @pytest.mark.parametrize("spec", [exponential(1.0), gamma(shape=2, mean=10.0),
                                      chi_squared(3), constant(2.0)],
                             ids=["exponential", "gamma", "chi_squared", "constant"])
    def test_transform_of_gathered_uniforms_keeps_the_bits(self, spec):
        # The matrix engine transforms only the uniforms its arrival bands
        # gather, and each must come out with the bits the transform of
        # the whole draw gives, or the engine stops agreeing exactly with
        # the event-driven one.  So the bands go through the same numpy
        # transform, not through Python floats: where numpy's log1p is
        # vectorized (SVML on AVX-512 builds), math.log1p differs from it
        # in the last bit on about 7% of uniforms (147,602 of 2,000,000
        # in one sample on x86-64).
        whole = sample_many(spec, SampleStream(31, 3), 50_000)
        u = SampleStream(31, 3).uniforms(50_000)
        at = np.random.default_rng(5).integers(0, len(u), 4_000)
        for size in (1, 3, 17, 4_000):
            got = _transform(spec, u[at[:size]])
            assert np.array_equal(got.view(np.int64), whole[at[:size]].view(np.int64))

    def test_buffered_matches_bulk(self):
        spec = exponential(2.0)
        bulk = sample_many(spec, SampleStream(21, 1), 300)
        buf = BufferedSampler(spec, SampleStream(21, 1), chunk=64)
        assert all(buf.next() == v for v in bulk)
        assert buf.drawn == 300

    def test_buffered_with_exact_script(self):
        buf = BufferedSampler(exponential(1.0), ScriptedStream([0.1, 0.6]), chunk=512)
        assert buf.next() == pytest.approx(-math.log(0.9))
        assert buf.next() == pytest.approx(-math.log(0.4))


class TestCdfs:
    def test_cdf_examples(self):
        assert cdf(exponential(1.0), 0.0) == 0.0
        assert cdf(exponential(1.0), 1.0) == pytest.approx(1 - math.exp(-1))
        assert cdf(constant(1.0), 0.999) == 0.0
        assert cdf(constant(1.0), 1.0) == 1.0
        assert cdf(chi_squared(2), 2.0) == pytest.approx(1 - math.exp(-1))

    def test_cdf_negative_is_zero(self):
        for spec in (exponential(1), gamma(shape=2, mean=1), constant(0.5)):
            assert cdf(spec, -1e-9) == 0.0

    def test_mixture_examples(self):
        assert mixture_cdf(exponential(1.0), 10, 0.0) == pytest.approx(0.1)
        assert mixture_cdf(exponential(1.0), 1, 0.0) == 1.0
        assert mixture_cdf(exponential(1.0), 4, 1e9) == pytest.approx(1.0)
        assert mixture_cdf(exponential(1.0), 4, -0.5) == 0.0

    def test_mixture_monotone_and_floor(self):
        r = np.linspace(-1, 20, 5000)
        for spec in (exponential(1), gamma(shape=2, mean=3), constant(1.0)):
            for m in (1, 2, 10):
                vals = np.asarray(mixture_cdf(spec, m, r))
                assert np.all(np.diff(vals) >= 0)
                assert mixture_cdf(spec, m, 0.0) >= 1 / m

    def test_sup_gap_bound_values(self):
        assert sup_gap_bound(2) == 1.0
        assert sup_gap_bound(1000) == 0.002

    def test_no_workers_rejected(self):
        with pytest.raises(ConfigError, match="worker count m must be >= 1, got 0"):
            mixture_cdf(exponential(1.0), 0, 0.5)
        with pytest.raises(ConfigError, match="worker count m must be >= 1, got 0"):
            sup_gap_bound(0)

    def test_grid_gap_within_bound(self):
        r = np.linspace(0, 50, 20001)
        spec = exponential(1.0)
        gap = np.max(np.abs(np.asarray(mixture_cdf(spec, 10, r)) - np.asarray(cdf(spec, r))))
        assert gap <= 0.2


# Blocks the extension while it is loaded under the stub package, as a
# scipy whose layout moved the ufuncs would.
BLOCK_LEAN_LOAD = """
import sys
class Block:
    def find_spec(self, name, path=None, target=None):
        if (name == "scipy.special._ufuncs"
                and not hasattr(sys.modules.get("scipy.special"), "__file__")):
            raise ImportError("no ufuncs under the stub")
sys.meta_path.insert(0, Block())
"""

# Draws and CDFs of every gamma-family spec validate and the replay corpus
# use, first through blocksim, then through the public scipy.special.
LEAN_THEN_PUBLIC = """
import json
import sys
import numpy as np
from blocksim import distributions as d
specs = [d.gamma(shape=0.5, mean=2.0), d.gamma(shape=2.0, mean=1.0),
         d.gamma(shape=2.0, mean=1.5), d.gamma(shape=2.5, mean=1.0),
         d.chi_squared(3.0), d.chi_squared(4.0)]
u = np.concatenate((np.random.default_rng(7).random(100_000), [0.0, 1 - 2.0**-53]))
r = np.concatenate((np.linspace(-1.0, 40.0, 10_001), [0.0, 5e-324, np.inf]))
ours = [(d._transform(s, u), np.asarray(d.cdf(s, r))) for s in specs]
shim_before = "scipy.special._support_alternative_backends" in sys.modules
import scipy.special
from scipy.stats import ks_2samp
public = []
for s in specs:
    k, theta = (s.shape, s.mean / s.shape) if s.kind == "gamma" else (s.shape / 2, 2.0)
    public.append((np.maximum(scipy.special.gammaincinv(k, u) * theta, d._TINY),
                   np.where(r >= 0, scipy.special.gammainc(k, np.maximum(r, 0.0) / theta), 0.0)))
print(json.dumps({
    "shim_before": shim_before,
    "bits_equal": [a.tobytes() == b.tobytes() for pair in zip(ours, public)
                   for a, b in zip(*pair)],
    "same_ufuncs": d._gamma_ufuncs() == (scipy.special.gammaincinv, scipy.special.gammainc),
    "real_package": sys.modules["scipy.special"] is scipy.special
                    and hasattr(scipy.special, "__file__"),
    "ks": float(ks_2samp(ours[0][0][:500], ours[1][0][:500]).statistic),
}))
"""


class TestImportCost:
    def scipy_modules(self, script):
        """Lines script prints in a fresh interpreter, then the scipy modules loaded."""
        src = str(Path(blocksim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        script += "\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))"
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().splitlines()

    def test_cli_import_leaves_scipy_unloaded(self):
        # scipy.special serves only the gamma kinds, and its import takes
        # about as long as the rest of the CLI's.
        assert self.scipy_modules("import sys, blocksim.cli") == ["[]"]

    def test_pdf_histogram_leaves_scipy_unloaded(self, tmp_path):
        # The KS distance is computed in numpy: scipy.stats alone takes
        # about a second to import.
        out = tmp_path / "table.csv"
        script = ("import sys\nfrom blocksim.cli import main\n"
                  "main(['experiment', '--kind', 'pdf_histogram', '--alpha', 'exp:1',"
                  " '--beta', 'exp:0.5', '--n', '50', '--reps', '20', '--m', '5',"
                  f" '--out', {str(out)!r}], standalone_mode=False)")
        *printed, loaded = self.scipy_modules(script)
        assert printed[0].startswith("ks_distance=")
        assert loaded == "[]"

    def test_gamma_simulate_loads_only_the_ufuncs(self, tmp_path):
        # The package import loads scipy's array-API shim, and with it
        # numpy.f2py and numpy.testing; the draws need only the extension.
        script = ("import sys\nfrom blocksim.cli import main\n"
                  "main(['simulate', '--engine', 'infinite', '--alpha', 'exp:1',"
                  " '--beta', 'gamma:2:0.5', '--n', '200', '--seed', '1',"
                  f" '--out', {str(tmp_path / 'o.json')!r}], standalone_mode=False)\n"
                  "print([m for m in ('numpy.f2py', 'numpy.testing') if m in sys.modules])")
        *printed, loaded = self.scipy_modules(script)
        loaded = ast.literal_eval(loaded)
        assert printed[0].startswith("p_n=")
        assert printed[-1] == "[]"
        assert "scipy.special._ufuncs" in loaded
        assert "scipy.special._support_alternative_backends" not in loaded
        assert "scipy.special" not in loaded  # the stub package is gone

    def test_cli_import_leaves_the_pool_unloaded(self):
        # Only --jobs > 1 starts a pool; its modules cost about 13 ms.
        script = ("import sys, blocksim.cli\nprint(sorted(m for m in sys.modules"
                  " if m in ('concurrent.futures.process', 'multiprocessing')))")
        assert self.scipy_modules(script) == ["[]", "[]"]

    @pytest.mark.parametrize("blocked", [False, True], ids=["lean", "fallback"])
    def test_gamma_bits_and_interop(self, blocked):
        *printed, _ = self.scipy_modules((BLOCK_LEAN_LOAD if blocked else "")
                                         + LEAN_THEN_PUBLIC)
        result = json.loads(printed[-1])
        # The lean load skips the package; the fallback is the public import.
        assert result["shim_before"] is blocked
        assert result["bits_equal"] == [True] * 12
        assert result["same_ufuncs"]
        assert result["real_package"]
        assert 0 < result["ks"] <= 1
