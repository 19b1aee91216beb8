"""The 2-approximation baseline (Ludwig & Tiwari / Turek, Wolf & Yu).

Combines the 2-estimator of :mod:`repro.core.bounds` with Garey–Graham list
scheduling: the estimator's allotment ``a`` minimises
``max(sum_j w_j(a_j)/m, max_j t_j(a_j))`` (approximately), and list scheduling
that allotment gives a schedule of length at most twice the minimum — hence a
2-approximation for the optimal makespan.

Running time: ``O(n log m (log m + log 1/tol))`` oracle calls, i.e. fully
polynomial even with compact input encodings.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .backend import resolve_backend
from .bounds import EstimatorResult, ludwig_tiwari_estimator
from .job import MoldableJob
from .list_scheduling import list_schedule
from .schedule import Schedule
from .validation import assert_valid_schedule

__all__ = ["two_approximation", "TwoApproxResult"]


class TwoApproxResult:
    """Schedule plus the estimator evidence that certifies the ratio."""

    __slots__ = ("schedule", "estimate", "gamma_probes")

    def __init__(
        self,
        schedule: Schedule,
        estimate: EstimatorResult,
        gamma_probes: Optional[int] = None,
    ) -> None:
        self.schedule = schedule
        self.estimate = estimate
        #: total γ-probes the batched oracle spent (None on the scalar path)
        self.gamma_probes = gamma_probes

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    @property
    def certified_ratio(self) -> float:
        """Upper bound on makespan / OPT implied by the estimator's lower bound."""
        if self.estimate.omega <= 0:
            return 1.0
        return self.makespan / self.estimate.omega


def two_approximation(
    jobs: Sequence[MoldableJob],
    m: int,
    *,
    validate: bool = True,
    backend: str = "vectorized",
    oracle=None,
    list_backend: Optional[str] = None,
) -> TwoApproxResult:
    """Compute a 2-approximate schedule for monotone moldable jobs.

    ``backend="vectorized"`` (default) runs the estimator's γ-searches in
    lockstep on arrays; ``backend="scalar"`` is the bit-identical reference.
    ``oracle`` optionally supplies a pre-built
    :class:`repro.perf.oracle.BatchedOracle` (implies the vectorized
    backend; lets callers read its probe instrumentation afterwards).
    ``list_backend`` overrides the list-scheduling phase's backend (defaults
    to the batched ``"event_queue"`` on the vectorized path and the scalar
    ``"heap"`` loop otherwise; ``"event_queue_indexed"`` selects the
    event-queue variant with the incremental need-bucket candidate index,
    the better fit for no-tie deep-queue workloads — all bit-identical).
    """
    jobs = list(jobs)
    backend, oracle = resolve_backend(jobs, m, backend, oracle)
    estimate = ludwig_tiwari_estimator(jobs, m, oracle=oracle)
    probes = oracle.gamma_probes if oracle is not None else None
    if not jobs:
        return TwoApproxResult(
            Schedule(m=m, metadata={"algorithm": "two_approximation"}), estimate, probes
        )
    if oracle is not None:
        steps = lpt_steps(jobs, m, estimate, oracle, validate=validate, list_backend=list_backend)
        return TwoApproxResult(oracle.run(steps), estimate, oracle.gamma_probes)
    # Sort longest-processing-time first: not required for the bound but a
    # standard practical improvement.
    order = sorted(jobs, key=lambda j: estimate.allotment[j] * 0 - j.processing_time(estimate.allotment[j]))
    list_backend = "heap" if list_backend is None else list_backend
    schedule = _list_phase(jobs, m, estimate, order, None, None, validate, list_backend)
    return TwoApproxResult(schedule, estimate, None)


def lpt_steps(jobs, m, estimate: EstimatorResult, oracle, *, validate=True, list_backend=None):
    """The batched list-scheduling phase of :func:`two_approximation` as a
    request generator (see :func:`repro.core.bounds.estimator_steps`)
    returning the validated schedule.

    One ``("eval", counts)`` request evaluates all allotted processing times;
    ``argsort(stable)`` of them reproduces the scalar longest-first
    ``sorted()`` order, and the same times double as the list scheduler's
    durations.
    """
    counts = estimate.allotment.counts
    times = yield ("eval", np.array([counts[j] for j in jobs], dtype=np.float64))
    order = [jobs[i] for i in np.argsort(-times, kind="stable").tolist()]
    allotted_times = dict(zip(jobs, times.tolist()))
    list_backend = "event_queue" if list_backend is None else list_backend
    return _list_phase(jobs, m, estimate, order, allotted_times, oracle, validate, list_backend)


def _list_phase(jobs, m, estimate, order, allotted_times, oracle, validate, list_backend) -> Schedule:
    schedule = list_schedule(
        jobs,
        estimate.allotment,
        m,
        order=order,
        backend=list_backend,
        allotted_times=allotted_times,
        oracle=oracle,
    )
    schedule.metadata["algorithm"] = "two_approximation"
    schedule.metadata["omega"] = estimate.omega
    if validate:
        assert_valid_schedule(schedule, jobs, oracle=oracle)
    return schedule
