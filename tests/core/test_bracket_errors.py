"""Infeasible brackets raise :class:`BracketError`, also under ``python -O``.

The estimator's bracket ends and the dual search's upper end must be
feasible for any monotone instance whose oracle agrees with its jobs.  When
they are not, every path — solo scalar, solo vectorized and the mega-batch
transcription — raises the same named error instead of a bare ``assert``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import bounds
from repro.core.bounds import BracketError, ludwig_tiwari_estimator
from repro.core.dual import dual_binary_search
from repro.core.fptas import fptas_schedule
from repro.core.two_approx import two_approximation
from repro.perf import megabatch
from repro.perf.megabatch import solve_mega
from repro.perf.oracle import BatchedOracle
from repro.workloads.generators import random_mixed_instance

M = 64


class InfeasibleOracle(BatchedOracle):
    """Claims every job needs more than all ``m`` machines at any threshold."""

    def gamma_array(self, threshold):
        return np.full(self.n, self.m + 1, dtype=np.int64)


def _jobs():
    return random_mixed_instance(8, M, seed=11).jobs


def _fptas(jobs, m, **kwargs):
    return fptas_schedule(jobs, m, 1.0, enforce_threshold=False, **kwargs)


@pytest.fixture
def scalar_infeasible(monkeypatch):
    """The scalar counterpart of :class:`InfeasibleOracle`."""
    monkeypatch.setattr(bounds, "canonical_allotment", lambda jobs, tau, m: None)


def test_estimator_vectorized():
    jobs = _jobs()
    with pytest.raises(BracketError, match="bracket end"):
        ludwig_tiwari_estimator(jobs, M, oracle=InfeasibleOracle(jobs, M))


def test_estimator_scalar(scalar_infeasible):
    with pytest.raises(BracketError, match="bracket end"):
        ludwig_tiwari_estimator(_jobs(), M)


@pytest.mark.parametrize("driver", [two_approximation, _fptas])
def test_drivers_vectorized(driver):
    jobs = _jobs()
    with pytest.raises(BracketError):
        driver(jobs, M, oracle=InfeasibleOracle(jobs, M))


@pytest.mark.parametrize("driver", [two_approximation, _fptas])
def test_drivers_scalar(scalar_infeasible, driver):
    with pytest.raises(BracketError):
        driver(_jobs(), M, backend="scalar")


@pytest.mark.parametrize("backend", ["scalar", "vectorized"])
def test_dual_search_rejecting_every_target(backend):
    jobs = _jobs()
    oracle = BatchedOracle(jobs, M) if backend == "vectorized" else None
    with pytest.raises(BracketError, match="rejected every target"):
        dual_binary_search(jobs, M, lambda d: None, tolerance=0.1, oracle=oracle)


def test_megabatch_transcription(monkeypatch):
    def infeasible_allot(seg, tau):
        yield ("gamma", tau)
        return None

    monkeypatch.setattr(megabatch, "_gen_allot", infeasible_allot)
    with pytest.raises(BracketError, match="bracket end"):
        solve_mega([(_jobs(), M)], 0.1, algorithm="two_approx")


def test_raised_under_python_O():
    script = (
        "import numpy as np\n"
        "from repro.core.bounds import BracketError, ludwig_tiwari_estimator\n"
        "from repro.perf.oracle import BatchedOracle\n"
        "from repro.workloads.generators import random_mixed_instance\n"
        "class Stub(BatchedOracle):\n"
        "    def gamma_array(self, threshold):\n"
        "        return np.full(self.n, self.m + 1, dtype=np.int64)\n"
        "jobs = random_mixed_instance(8, 64, seed=11).jobs\n"
        "try:\n"
        "    ludwig_tiwari_estimator(jobs, 64, oracle=Stub(jobs, 64))\n"
        "except BracketError:\n"
        "    print('raised')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(bounds.__file__).parents[2])},
        check=True,
    )
    assert out.stdout.strip() == "raised"
