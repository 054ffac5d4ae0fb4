"""The mutation table: faults the tests must catch, and a runner that checks they do.

Each row is a mutant: a file under src/blocksim/, the exact text it
replaces (found exactly once under src/), the replacement, and the test
node ids of which at least one must fail once the fault is in.  Tier-1
checks that each row's text occurs exactly once (tests/test_mutants.py),
so a refactor that moves a row's text must update the row.

    python tests/mutants.py

copies src/ to a temporary directory, applies one mutant at a time, and
runs only that row's tests against the copy, stopping at the first
failure.  It prints each mutant's outcome and time, and exits 1 if any
mutant survives: its tests all pass, or pytest could not run them.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/blocksim/
    text: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    # The delay layout is written once, in DelayMatrix._cells, and both band
    # modes read it there, so the pruning check cannot see a layout fault:
    # the scan and the check read the same wrong cells.  Contract (a), the
    # match with the event-driven engine, is the guard.  Swapping (q > pi)
    # for (q >= pi) moves only the producer's own pairs, which the mask
    # zeroes, so it is equivalent and has no row.
    Mutant("cells-row-off-by-one", "matrix.py",
           "(i - 1) * self._width", "i * self._width",
           ("tests/test_matrix.py::TestAgainstNetworkEngine::test_exact_match_on_random_configs",
            "tests/test_matrix.py::TestVisibility::test_entries_follow_network_draw_order")),
    Mutant("fill-loses-producer-zero", "matrix.py",
           "np.where(own, -1, cells - r * m1)", "(cells - r * m1)",
           ("tests/test_matrix.py::TestAgainstNetworkEngine::test_exact_match_on_random_configs",
            "tests/test_matrix.py::TestRowBlocks::test_pruning_check_on_chaotic_ratio")),
    Mutant("pair-delays-producer-one", "matrix.py",
           "np.where(own, 0.0, _transform", "np.where(own, 1.0, _transform",
           ("tests/test_matrix.py::TestAgainstNetworkEngine::test_exact_match_on_random_configs",
            "tests/test_matrix.py::TestRowBlocks::test_pruning_check_on_chaotic_ratio")),
    # Below its band a[off + i] is another step's cell: a scan that reads
    # it instead of widening the band reads a wrong delay.
    Mutant("pruned-scan-reads-below-band", "matrix.py",
           "if i < lo:", "if False:",
           ("tests/test_matrix.py::TestVisibility::test_read_below_a_band_widens_it",
            "tests/test_matrix.py::TestBands::test_band_passes_to_whole_rows")),
    # The check holds every scan to the model's strict rule: an arrival at
    # t[k] itself is not visible at step k.
    Mutant("check-counts-simultaneous-arrival", "pruning.py",
           "delays(i, k) < t[k]", "delays(i, k) <= t[k]",
           ("tests/test_matrix.py::TestVisibility::test_strict_comparison",
            "tests/test_infinite.py::TestUnprunedScan::test_simultaneous_arrival_is_not_visible")),
    # A chunk that ran past its set's end would run replications the set
    # does not have and shift every later value.
    Mutant("chunk-runs-past-set-end", "montecarlo.py",
           "min(r + chunk, replications)", "r + chunk",
           ("tests/test_montecarlo.py::TestReplicationSets::test_chunks_stay_inside_their_set",)),
    # A quartile blends two neighbouring order statistics; with lo + 1
    # dropped it is the lower one alone.
    Mutant("quartile-blend-loses-upper-neighbour", "montecarlo.py",
           "ordered[min(lo + 1, last)]", "ordered[min(lo, last)]",
           ("tests/test_montecarlo.py::TestQuartiles::test_match_numpy_quantile_bit_for_bit",)),
    # A dense read drawn from one past its lowest position returns every
    # value one position late.
    Mutant("dense-read-one-late", "rng.py",
           "self.seek(lo)", "self.seek(lo + 1)",
           ("tests/test_rng.py::TestAt::test_dense_and_sparse_sets",)),
    # A recipient adopts an announced block only when it is strictly
    # higher than its tip: on a tie the incumbent stays.
    Mutant("delivery-adopts-equal-height", "network.py",
           "if h > tip_height[r]:", "if h >= tip_height[r]:",
           ("tests/test_network.py::TestDeliverySweep::test_equal_height_keeps_incumbent",)),
    # Messages that arrive at the same instant apply in send order, which
    # only a stable sort keeps.
    Mutant("tied-arrivals-unstable-sort", "network.py",
           'order = np.argsort(arrivals, kind="stable")', "order = np.argsort(arrivals)",
           ("tests/test_network.py::TestDeliverySweep::"
            "test_equal_arrivals_within_a_block_apply_in_recipient_order",)),
    # A message that arrives exactly when a block is made is seen only
    # after it: the creation cut is searchsorted's left side.
    Mutant("arrival-at-creation-delivered", "network.py",
           "np.searchsorted(arrivals[order], created)",
           'np.searchsorted(arrivals[order], created, side="right")',
           ("tests/test_network.py::TestDeliverySweep::test_arrival_at_now_stays_queued",)),
    # The pool's chunks are read back oldest first; newest first would
    # reorder the values of a batch that outgrows the window.
    Mutant("pool-window-reads-newest-first", "montecarlo.py",
           "window.pop(0)", "window.pop()",
           ("tests/test_montecarlo.py::TestReplicationSets::"
            "test_chunks_in_flight_stay_within_the_window",)),
    # After a failure the chunks not yet started are cancelled, as
    # ProcessPoolExecutor.map does; a plain shutdown would run them all.
    Mutant("pool-failure-runs-the-window", "montecarlo.py",
           "pool.shutdown(cancel_futures=True)", "pool.shutdown()",
           ("tests/test_montecarlo.py::TestReplicationSets::"
            "test_failure_cancels_the_chunks_not_yet_started",)),
    # nan > bound is false, so a NaN gap passed the mixture check.
    Mutant("mixture-check-passes-nan", "validate.py",
           "if not gap <= sup_gap_bound(m):", "if gap > sup_gap_bound(m):",
           ("tests/test_validate.py::TestFaultInjection::test_nan_gap_is_caught",)),
    # A MemoryError part way through a write left the file truncated.
    Mutant("write-keeps-file-on-memory-error", "manifest.py",
           "except BaseException as exc:", "except OSError as exc:",
           ("tests/test_manifest.py::TestManifestIo::test_a_write_that_runs_out_of_memory_leaves_no_file",)),
    # A count of 0 runs nothing: each count has one rule, and 0 is below it.
    Mutant("count-check-accepts-zero", "errors.py",
           "if count < 1:", "if count < 0:",
           ("tests/test_distributions.py::TestCdfs::test_no_workers_rejected",
            "tests/test_cli.py::TestExperimentBounds::test_exits_2_before_any_run")),
    # A file that is not UTF-8, not JSON or nested past the parser's depth
    # raised past the CLI's guard: a traceback and exit 1, not exit 2.
    Mutant("json-file-reader-catches-only-oserror", "manifest.py",
           "except (OSError, ValueError, RecursionError) as exc:", "except OSError as exc:",
           ("tests/test_cli.py::TestMalformedManifest::test_not_a_manifest",
            "tests/test_cli.py::TestEachInputRuleOnce::test_exits_2_with_one_line")),
    # A spec object's unknown key was ignored, and its manifest dropped it.
    Mutant("spec-object-ignores-unknown-key", "distributions.py",
           "if extra:", "if False:",
           ("tests/test_distributions.py::TestSerialization::test_dict_with_unknown_key",)),
    # The last message delivered before each block is made is lost.
    Mutant("network-drops-last-message-per-block", "network.py",
           "delivery_sweep(recipients[lo:hi], blocks[lo:hi],",
           "delivery_sweep(recipients[lo:hi - 1], blocks[lo:hi - 1],",
           ("tests/test_network.py::TestHandTrace::test_five_block_trace",
            "tests/test_network.py::TestPinned::test_outputs_unchanged")),
)


def occurrences(text: str) -> dict[str, int]:
    """How often ``text`` occurs in each file under src/blocksim/ that holds it."""
    counts = {path.name: path.read_text().count(text)
              for path in sorted((SRC / "blocksim").glob("*.py"))}
    return {name: count for name, count in counts.items() if count}


def caught(mutant: Mutant, copy: Path) -> bool:
    """Apply ``mutant`` to a fresh copy of src/ at ``copy`` and run its tests
    there; True when pytest reports a failed test (exit status 1)."""
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    if occurrences(mutant.text) != {mutant.file: 1}:
        sys.exit(f"{mutant.name}: its text must occur once under src/, in {mutant.file}")
    path = copy / "blocksim" / mutant.file
    path.write_text(path.read_text().replace(mutant.text, mutant.replacement))
    env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode not in (0, 1):
        print(proc.stdout)
    return proc.returncode == 1


def main() -> int:
    survivors = []
    with tempfile.TemporaryDirectory() as scratch:
        for mutant in MUTANTS:
            start = time.perf_counter()
            ok = caught(mutant, Path(scratch) / "src")
            print(f"{'caught' if ok else 'SURVIVED'} {mutant.name} "
                  f"in {time.perf_counter() - start:.1f} s", flush=True)
            if not ok:
                survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
