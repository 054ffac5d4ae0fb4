import os
from pathlib import Path
import subprocess
import sys

import numpy as np

import blocksim
from blocksim import validate
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

    def test_unbounded_config_runs_unchecked_then_checked_from_there(self, monkeypatch):
        # Two unbounded runs per config on one stream bundle, so the
        # checked run's check re-reads its block from a moved position.
        calls = []
        real = validate.simulate_infinite

        def recording(config, streams, **kwargs):
            calls.append((config.n, streams, streams.delay.position,
                          kwargs.get("check_pruning", False)))
            return real(config, streams, **kwargs)
        monkeypatch.setattr(validate, "simulate_infinite", recording)
        assert check_pruning(base_seed=0, runs=4, max_n=400).passed
        assert len(calls) == 8
        for first, second in zip(calls[::2], calls[1::2]):
            assert (first[0], first[2], first[3]) == (second[0], 0, False)
            assert second[1] is first[1] and second[2] > 0 and second[3]

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
            "    h, top, widths = pruned(t, delays, strict)",
            "    h[5] += 1",
            "    return h, top, widths",
            "mx._pruned_scan = bumped",
            "result = check_pruning(runs=1, max_n=50)",
            "print(result.detail)",
            "sys.exit(1 if result.passed else 0)",
        ])
        proc = run_optimized(script)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "scan mismatch at block 5" in proc.stdout

    def test_unbounded_mismatch_fails_suite_under_optimize(self):
        # The unbounded half of the suite: a pruned scan that disagrees
        # with the full scan at block 5 fails it, naming run and block.
        script = "\n".join([
            "import sys",
            "import blocksim.infinite as inf",
            "from blocksim.validate import check_pruning",
            "assert False, 'asserts must be stripped in this run'",
            "pruned = inf._pruned_scan",
            "def bumped(*args):",
            "    h, top, widths = pruned(*args)",
            "    h[5] += 1",
            "    return h, top, widths",
            "inf._pruned_scan = bumped",
            "result = check_pruning(runs=1, max_n=50)",
            "print(result.detail)",
            "sys.exit(1 if result.passed else 0)",
        ])
        proc = run_optimized(script)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "unbounded engine run 0" in proc.stdout
        assert "scan mismatch at block 5" in proc.stdout

    def test_early_stop_fails_suite_under_optimize(self):
        # Step 5 of either engine reports one pair fewer than it tested, so
        # the pairs left give another height or stop short of the bound.
        for engine, run in (("matrix", "run 0 (m="), ("infinite", "unbounded engine run 0")):
            script = "\n".join([
                "import sys",
                f"import blocksim.{engine} as engine",
                "from blocksim.validate import check_pruning",
                "assert False, 'asserts must be stripped in this run'",
                "pruned = engine._pruned_scan",
                "def early(*args):",
                "    h, top, widths = pruned(*args)",
                "    widths[5] -= 1",
                "    return h, top, widths",
                "engine._pruned_scan = early",
                "result = check_pruning(runs=1, max_n=50)",
                "print(result.detail)",
                "sys.exit(1 if result.passed else 0)",
            ])
            proc = run_optimized(script)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            assert proc.stdout.startswith(run), proc.stdout
            assert "scan mismatch at block 5:" in proc.stdout

    def test_mixture_gap_past_the_bound_is_caught(self, monkeypatch):
        # Shifted by 2.5/m, the gap exceeds 2/m at the first kind and m.
        real = validate.mixture_cdf
        monkeypatch.setattr(validate, "mixture_cdf",
                            lambda spec, m, r: np.asarray(real(spec, m, r)) + 2.5 / m)
        result = check_mixture_bound(grid_points=200)
        assert not result.passed
        assert result.name == "mixture_cdf_bound"
        assert result.detail.startswith("exponential, m=1: sup gap ")
        assert result.detail.endswith(" > 2.000000")

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
