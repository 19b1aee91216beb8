"""schedule_moldable certifies from its driver's own estimate.

The certified lower bound is ``makespan_lower_bound(jobs, m)``; the drivers
already computed the Ludwig–Tiwari estimate it needs for their own bracket,
so a solve must run the estimator exactly once.  Counting
``ludwig_tiwari_estimator`` calls — under every module name the drivers and
the certification look it up by — pins that deterministically, where an
end-to-end timing gate would be flaky: certification can never again
silently cost more than the algorithm it certifies.
"""

import pytest

from repro.core import bounds, dual, replan, two_approx
from repro.core.bounds import EstimatorResult, makespan_lower_bound, trivial_lower_bound
from repro.core.job import AmdahlJob
from repro.core.scheduler import schedule_moldable
from repro.online import OnlineScheduler
from repro.online import scheduler as online_scheduler
from repro.workloads.generators import random_arrivals_instance, random_mixed_instance

BACKENDS = ("scalar", "vectorized")

#: every driver that brackets with the estimator, with an ``(n, m, eps)``
#: inside its regime (the FPTAS needs m >= 8n/eps)
DRIVER_CASES = {
    "two_approx": (12, 16, 0.1),
    "mrt": (12, 16, 0.1),
    "compressible": (12, 16, 0.1),
    "bounded": (12, 16, 0.1),
    "bounded_linear": (12, 16, 0.1),
    "fptas": (12, 256, 0.5),
    "ptas": (12, 16, 0.1),
    "auto": (12, 1 << 20, 0.1),
}


@pytest.fixture
def estimator_calls(monkeypatch):
    """A list that grows by one per ``ludwig_tiwari_estimator`` call."""
    calls = []
    for module in (bounds, dual, two_approx):

        def counted(*args, _original=module.ludwig_tiwari_estimator, _name=module.__name__, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "ludwig_tiwari_estimator", counted)
    return calls


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", sorted(DRIVER_CASES))
def test_one_estimate_per_solve(estimator_calls, algorithm, backend):
    n, m, eps = DRIVER_CASES[algorithm]
    jobs = random_mixed_instance(n, m, seed=7).jobs
    result = schedule_moldable(jobs, m, eps, algorithm=algorithm, backend=backend)
    assert len(estimator_calls) == 1, estimator_calls
    assert result.estimate is not None
    # the referee re-estimates on fresh jobs (outside the count)
    estimator_calls.clear()
    assert result.lower_bound == makespan_lower_bound(random_mixed_instance(n, m, seed=7).jobs, m)


def test_exact_certifies_with_its_own_estimate(estimator_calls):
    jobs = random_mixed_instance(4, 4, seed=3).jobs
    result = schedule_moldable(jobs, 4, algorithm="exact")
    assert result.estimate is None
    assert len(estimator_calls) == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_online_run_estimates_only_inside_its_solves(monkeypatch, estimator_calls, backend):
    solves = []
    for module in (online_scheduler, replan):

        def counted(*args, _original=module.schedule_moldable, **kwargs):
            solves.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "schedule_moldable", counted)
    inst = random_arrivals_instance(10, 64, seed=5)
    OnlineScheduler(64, eps=0.2, algorithm="two_approx", backend=backend).run(inst.arrivals)
    assert len(solves) > 1
    assert len(estimator_calls) == len(solves)


def test_lower_bound_from_estimate_does_not_estimate(estimator_calls):
    jobs = [AmdahlJob(f"j{i}", 10.0 + i, 0.05) for i in range(6)]
    estimate = EstimatorResult(omega=3.0, allotment=None, trivial=5.0)
    assert makespan_lower_bound(jobs, 4, estimate=estimate) == 5.0
    # an estimate without its trivial bound falls back to computing it
    bare = EstimatorResult(omega=3.0, allotment=None)
    assert makespan_lower_bound(jobs, 4, estimate=bare) == max(3.0, trivial_lower_bound(jobs, 4))
    assert estimator_calls == []


@pytest.mark.parametrize("algorithm", ["two_approx", "fptas"])
def test_one_estimate_past_the_columnar_limit(estimator_calls, algorithm):
    # m > 2^62: the vectorized backend falls back to the scalar estimator
    m = 1 << 64
    jobs = random_mixed_instance(6, m, seed=2).jobs
    result = schedule_moldable(jobs, m, 0.5, algorithm=algorithm, backend="vectorized")
    assert len(estimator_calls) == 1
    estimator_calls.clear()
    assert result.lower_bound == makespan_lower_bound(random_mixed_instance(6, m, seed=2).jobs, m)
