"""Cache invariance: every caching tier is an optimization, never an input.

The operation cache has three observable configurations — in-memory (the
default), fully disabled (``opcache.disabled()``) and disk-backed
(``opcache.attach_persistent``, which the CLI's ``--persist-dir`` calls).
Verdicts must be bit-identical across all three; this module is the
regression leg the persistence design docs point at.

Two layers:

* in-process — the same checks run under each configuration inside one
  interpreter and the full verdict/diagnostic structure is compared;
* subprocess — a representative unit subset runs under ``pytest`` in a
  child that first enters ``opcache.disabled()`` or attaches a throwaway
  persistent directory (twice, so the second run starts warm), which
  catches anything that only manifests when the setting is in force before
  the tests import and run.
"""

import os
import subprocess
import sys

import pytest

from repro.checker import check_equivalence
from repro.presburger import opcache
from repro.workloads import SMALL_KERNEL_PARAMS, kernel_pair
from repro.workloads.fig1 import fig1_original, fig1_ver1, fig1_ver3_erroneous

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))

# Small but representative: a paper-figure equivalence, a true bug, and a
# strided kernel (downsample) that exercises the FM dark-shadow path.
def program_pairs():
    downsample = kernel_pair("downsample", **SMALL_KERNEL_PARAMS["downsample"])
    return [
        (fig1_original(), fig1_ver1()),
        (fig1_original(), fig1_ver3_erroneous()),
        (downsample.original, downsample.transformed),
    ]


def verdict_signature(original, transformed):
    result = check_equivalence(original, transformed)
    return (
        result.equivalent,
        tuple(sorted(str(d) for d in result.diagnostics)),
    )


def sweep():
    return [verdict_signature(a, b) for a, b in program_pairs()]


class TestInProcessInvariance:
    def test_disabled_cache_matches_default(self):
        opcache.reset()
        baseline = sweep()
        try:
            with opcache.disabled():
                opcache.reset()
                disabled = sweep()
        finally:
            opcache.reset()
        assert disabled == baseline

    def test_persistent_cache_matches_default(self, tmp_path):
        opcache.reset()
        baseline = sweep()
        opcache.attach_persistent(str(tmp_path / "cache"))
        try:
            opcache.reset()
            cold = sweep()
            opcache.reset()  # second pass: memory dropped, disk warm
            warm = sweep()
            assert opcache.stats().disk_hits > 0
        finally:
            opcache.detach_persistent()
            opcache.reset()
        assert cold == baseline
        assert warm == baseline


SUBSET = "tests/unit/presburger/test_omega.py"


#: The child's set-up before ``pytest.main``: the cache state is in force
#: before the subset imports anything.
CHILD = """
import sys
import pytest
from repro.presburger import opcache

args = ["-q", "-p", "no:cacheprovider", {subset!r}]
if sys.argv[1] == "disabled":
    with opcache.disabled():
        sys.exit(pytest.main(args))
opcache.attach_persistent(sys.argv[1])
sys.exit(pytest.main(args))
"""


def run_subset(mode):
    """Run the subset in a child under ``disabled`` or a persistent directory."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    return subprocess.run(
        [sys.executable, "-c", CHILD.format(subset=SUBSET), mode],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )


@pytest.mark.slow
class TestSubprocessInvariance:
    def test_subset_passes_with_cache_disabled(self):
        proc = run_subset("disabled")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_subset_passes_with_persistent_cache(self, tmp_path):
        path = str(tmp_path / "throwaway")
        cold = run_subset(path)
        assert cold.returncode == 0, cold.stdout + cold.stderr
        # Second run starts warm from the first run's disk state and must be
        # just as green.
        warm = run_subset(path)
        assert warm.returncode == 0, warm.stdout + warm.stderr
        assert os.path.exists(os.path.join(path, "opcache.sqlite"))
