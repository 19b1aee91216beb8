"""Top-level scheduling facade.

:func:`schedule_moldable` is the single entry point most users need: pick an
algorithm (or let ``"auto"`` pick one), get back a feasible schedule together
with a certified lower bound on the optimum and the implied ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .bounded_algorithm import bounded_schedule
from .bounds import EstimatorResult, makespan_lower_bound
from .compressible_algorithm import compressible_schedule
from .exact_small import exact_schedule, exact_solver_applicable
from .fptas import fptas_machine_threshold, fptas_schedule, ptas_schedule
from .job import MoldableJob
from .mrt import mrt_schedule
from .schedule import Schedule
from .two_approx import two_approximation
from .validation import assert_valid_schedule

__all__ = ["ALGORITHMS", "SchedulingResult", "schedule_moldable"]

ALGORITHMS = (
    "auto",
    "two_approx",
    "mrt",
    "compressible",
    "bounded",
    "bounded_linear",
    "fptas",
    "ptas",
    "exact",
)


@dataclass
class SchedulingResult:
    """Schedule plus certification data.

    ``lower_bound`` is ``makespan_lower_bound(jobs, m)``, certified from
    ``estimate``: the Ludwig–Tiwari result the driver computed for its own
    bracket (``None`` for ``"exact"``).
    """

    schedule: Schedule
    algorithm: str
    eps: float
    lower_bound: float
    guarantee: Optional[float]
    estimate: Optional[EstimatorResult] = None

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    @property
    def certified_ratio(self) -> float:
        """Upper bound on makespan / OPT obtained from the lower bound.

        This is a *pessimistic* figure (the true ratio is usually better); it
        is the quantity reported in the quality experiments.
        """
        if self.lower_bound <= 0:
            return 1.0
        return self.makespan / self.lower_bound


def resolve_algorithm(n: int, m: int, eps: float, algorithm: str) -> str:
    """The algorithm that solves ``n > 0`` jobs on ``m`` machines (``"auto"``
    resolved); ``ValueError`` for a bad ``m`` or algorithm name."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose one of {ALGORITHMS}")
    if algorithm == "auto" and n:
        return "fptas" if m >= fptas_machine_threshold(n, eps) else "bounded"
    return algorithm


def schedule_moldable(
    jobs: Sequence[MoldableJob],
    m: int,
    eps: float = 0.1,
    *,
    algorithm: str = "auto",
    validate: bool = True,
    backend: str = "vectorized",
    oracle=None,
    list_backend: Optional[str] = None,
) -> SchedulingResult:
    """Schedule monotone moldable jobs on ``m`` machines.

    Parameters
    ----------
    jobs:
        The moldable jobs (monotone work functions assumed; use
        :func:`repro.core.validation.check_monotone_job` to verify instances).
    m:
        Number of identical machines.
    eps:
        Accuracy parameter of the chosen algorithm.
    algorithm:
        One of :data:`ALGORITHMS`:

        ``"auto"``
            FPTAS when ``m >= 8n/eps`` (Theorem 2), otherwise the
            bounded-knapsack `(3/2+eps)` algorithm (Theorem 3).
        ``"two_approx"``
            Ludwig–Tiwari estimator + list scheduling (ratio 2).
        ``"mrt"``
            Mounié–Rapine–Trystram with the exact ``O(nm)`` knapsack.
        ``"compressible"``
            Algorithm 1 of Section 4.2.5.
        ``"bounded"`` / ``"bounded_linear"``
            Algorithm 3 of Section 4.3 / its linear variant of Section 4.3.3.
        ``"fptas"`` / ``"ptas"``
            Section 3 algorithms.
        ``"exact"``
            Branch-and-bound optimum (tiny instances only).
    backend:
        ``"vectorized"`` (default) runs γ-allotments and knapsack DPs on the
        NumPy fast path, ``"scalar"`` on the bit-identical pure-Python
        reference (see :mod:`repro.perf`).  Ignored by ``"exact"``.
    oracle:
        Optional pre-built :class:`repro.perf.oracle.BatchedOracle` for
        exactly ``(jobs, m)``.  Threaded to the drivers that accept one
        (``"two_approx"`` and ``"fptas"``) so callers issuing *consecutive*
        solves — the fault-recovery loop re-planning survivors epoch after
        epoch — can carry γ-caches across calls (see
        ``BatchedOracle.prime_from``).  The remaining drivers build their own
        oracles internally and ignore this argument.
    list_backend:
        Optional list-scheduling backend override for ``"two_approx"``
        (``"heap"``, ``"event_queue"``, ``"event_queue_indexed"``); ignored
        by the other algorithms.
    """
    jobs = list(jobs)
    chosen = resolve_algorithm(len(jobs), m, eps, algorithm)
    if not jobs:
        return SchedulingResult(Schedule(m=m), algorithm, eps, 0.0, None)

    if chosen == "two_approx":
        res = two_approximation(
            jobs, m, validate=validate, backend=backend, oracle=oracle, list_backend=list_backend
        )
        guarantee: Optional[float] = 2.0
    elif chosen == "mrt":
        res = mrt_schedule(jobs, m, eps, validate=validate, backend=backend)
        guarantee = 1.5 + eps
    elif chosen == "compressible":
        res = compressible_schedule(jobs, m, eps, validate=validate, backend=backend)
        guarantee = 1.5 + eps
    elif chosen == "bounded":
        res = bounded_schedule(jobs, m, eps, transform="heap", validate=validate, backend=backend)
        guarantee = 1.5 + eps
    elif chosen == "bounded_linear":
        res = bounded_schedule(jobs, m, eps, transform="bucket", validate=validate, backend=backend)
        guarantee = 1.5 + eps
    elif chosen == "fptas":
        res = fptas_schedule(jobs, m, eps, validate=validate, backend=backend, oracle=oracle)
        guarantee = 1.0 + eps
    elif chosen == "ptas":
        res = ptas_schedule(jobs, m, eps, validate=validate, backend=backend)
        guarantee = res.schedule.metadata.get("guarantee")
    elif chosen == "exact":
        if not exact_solver_applicable(len(jobs), m):
            raise ValueError("the exact algorithm only handles tiny instances (n <= 7, m <= 8)")
        res = None
        schedule = exact_schedule(jobs, m)
        guarantee = 1.0
        if validate:
            assert_valid_schedule(schedule, jobs)
    else:  # pragma: no cover - exhaustiveness guard
        raise AssertionError(chosen)

    # certify from the estimate the driver already computed; the estimator
    # runs here only for "exact" and for a ptas that solved exactly
    estimate = None
    if res is not None:
        schedule, estimate = res.schedule, res.estimate
    return certified_result(jobs, m, eps, chosen, schedule, guarantee, estimate, makespan_lower_bound)


def certified_result(jobs, m, eps, chosen, schedule, guarantee, estimate, certify) -> SchedulingResult:
    """The :class:`SchedulingResult` of a solve, its lower bound certified as
    ``certify(jobs, m, estimate=estimate)``.

    ``certify`` is :func:`~repro.core.bounds.makespan_lower_bound` as the
    calling module names it (here, or in :mod:`repro.perf.megabatch`), so
    wrapping the name in one module (the perfbench tracer does) instruments
    that caller alone.
    """
    schedule.metadata.setdefault("algorithm", chosen)
    return SchedulingResult(
        schedule=schedule,
        algorithm=chosen,
        eps=eps,
        lower_bound=certify(jobs, m, estimate=estimate),
        guarantee=guarantee,
        estimate=estimate,
    )
