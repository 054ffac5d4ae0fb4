import os
from pathlib import Path
import subprocess
import sys

import blocksim
from blocksim.validate import (CheckResult, check_equivalence,
                               check_mixture_bound, check_pruning,
                               run_validation)


class TestSuites:
    def test_equivalence_passes(self):
        result = check_equivalence(base_seed=0, configs=15)
        assert result.passed, result.detail
        assert result.name == "engine_equivalence"
        assert "18 configs" in result.detail

    def test_pruning_passes(self):
        result = check_pruning(base_seed=0, runs=6, max_n=400)
        assert result.passed, result.detail
        assert result.name == "pruning_exactness"

    def test_mixture_bound_passes(self):
        result = check_mixture_bound(grid_points=2000)
        assert result.passed, result.detail
        assert result.name == "mixture_cdf_bound"

    def test_quick_run_all_green(self):
        results = run_validation(base_seed=0, quick=True)
        assert [r.name for r in results] == [
            "engine_equivalence", "pruning_exactness", "mixture_cdf_bound"]
        assert all(r.passed for r in results), [r.detail for r in results]

    def test_deterministic_given_seed(self):
        a = check_equivalence(base_seed=3, configs=5)
        b = check_equivalence(base_seed=3, configs=5)
        assert a == b


def run_optimized(script):
    """Run a script under ``python -O`` against this source tree."""
    src = str(Path(blocksim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


class TestFaultInjection:
    def test_lenient_visibility_is_caught(self):
        # The tie-rich configs make simultaneous arrival certain, so
        # flipping the comparison must produce at least one mismatch.
        result = check_equivalence(base_seed=0, configs=5,
                                   strict_visibility=False)
        assert not result.passed
        assert "disagree" in result.detail

    def test_scan_mismatch_fails_suite_under_optimize(self):
        # ``python -O`` strips assert statements; the pruning suite must
        # still catch a pruned scan that disagrees with the full scan.
        script = "\n".join([
            "import sys",
            "import blocksim.matrix as mx",
            "from blocksim.validate import check_pruning",
            "assert False, 'asserts must be stripped in this run'",
            "pruned = mx._pruned_scan",
            "def bumped(t, delays, strict):",
            "    h, top, scanned = pruned(t, delays, strict)",
            "    h[5] += 1",
            "    return h, top, scanned",
            "mx._pruned_scan = bumped",
            "result = check_pruning(runs=1, max_n=50)",
            "print(result.detail)",
            "sys.exit(1 if result.passed else 0)",
        ])
        proc = run_optimized(script)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "scan mismatch at block 5" in proc.stdout

    def test_unbounded_mismatch_fails_suite_under_optimize(self):
        # The infinite half of the suite: an aligned run that disagrees
        # with the unpruned engine at block 5 fails it, naming run and block.
        script = "\n".join([
            "import dataclasses, sys",
            "import blocksim.validate as v",
            "assert False, 'asserts must be stripped in this run'",
            "real = v.simulate_infinite",
            "def bumped(config, *args, **kwargs):",
            "    out = real(config, *args, **kwargs)",
            "    if kwargs.get('scan') != 'aligned':",
            "        return out",
            "    series = list(out.height_series)",
            "    series[5] += 1",
            "    return dataclasses.replace(out, height_series=tuple(series))",
            "v.simulate_infinite = bumped",
            "result = v.check_pruning(runs=1, max_n=50)",
            "print(result.detail)",
            "sys.exit(1 if result.passed else 0)",
        ])
        proc = run_optimized(script)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "unbounded engine run 0" in proc.stdout
        assert "scan mismatch at block 5" in proc.stdout

    def test_fault_propagates_through_run_validation(self):
        results = run_validation(base_seed=0, quick=True,
                                 strict_visibility=False)
        by_name = {r.name: r for r in results}
        assert not by_name["engine_equivalence"].passed
        assert by_name["pruning_exactness"].passed
        assert by_name["mixture_cdf_bound"].passed


class TestResultShape:
    def test_check_result_fields(self):
        r = CheckResult(name="x", passed=True, detail="ok")
        assert (r.name, r.passed, r.detail) == ("x", True, "ok")
