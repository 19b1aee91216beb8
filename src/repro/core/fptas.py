"""The FPTAS for large machine counts (Section 3, Theorem 2) and the PTAS
dispatcher for the general case (Section 3.2).

The dual step is remarkably simple: allot ``gamma_j((1+eps)*d)`` processors to
every job and start all jobs at time 0.  If that requires more than ``m``
machines, reject.  The analysis (Lemma 4 + Lemma 5 of the paper) shows that
whenever ``m >= 8n/eps`` and a schedule of length ``d`` exists the allotment
fits, so the step is a `(1+eps)`-dual algorithm.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from .allotment import gamma
from .backend import resolve_backend
from .dual import DualSearchResult, dual_binary_search
from .exact_small import exact_schedule, exact_solver_applicable
from .job import MoldableJob
from .schedule import Schedule
from .validation import assert_valid_schedule

__all__ = [
    "fptas_machine_threshold",
    "fptas_dual",
    "fptas_schedule",
    "ptas_schedule",
]


def fptas_machine_threshold(n: int, eps: float) -> float:
    """The paper's condition for the FPTAS: ``m >= 8n/eps``."""
    return 8.0 * n / eps


def check_fptas_args(n: int, m: int, eps: float, enforce_threshold: bool = True) -> None:
    """The :func:`fptas_schedule` preconditions, checked before any oracle work."""
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if enforce_threshold and n > 0 and m < fptas_machine_threshold(n, eps):
        raise ValueError(
            f"the FPTAS requires m >= 8n/eps = {fptas_machine_threshold(n, eps):.1f}, got m={m}; "
            "use ptas_schedule() for the general case"
        )


def fptas_dual(
    jobs: Sequence[MoldableJob],
    m: int,
    d: float,
    eps: float,
    *,
    backend: str = "scalar",
    oracle=None,
    defer_build: bool = False,
) -> Optional[Union[Schedule, Callable[[], Schedule]]]:
    """One `(1+eps)`-dual step (Section 3): all jobs start at 0 with
    ``gamma_j((1+eps)d)`` processors, or reject.

    ``backend="vectorized"`` computes all γ-values in one lockstep batched
    binary search (bit-identical decision and schedule).  With
    ``defer_build=True`` (vectorized path only) an accepted step returns a
    zero-argument thunk instead of a built ``Schedule`` — the acceptance
    decision needs only the γ-sum, so :func:`~repro.core.dual.dual_binary_search`
    can skip materializing the intermediate schedules it would discard."""
    if d <= 0:
        return None
    threshold = (1.0 + eps) * d
    jobs = list(jobs)  # before resolve_backend: the oracle build iterates jobs
    backend, oracle = resolve_backend(jobs, m, backend, oracle)
    metadata = {"algorithm": "fptas_dual", "d": d, "eps": eps}
    if oracle is not None:
        build = oracle.run(fptas_dual_steps(jobs, m, d, eps))
        return build if defer_build or build is None else build()
    counts = []
    total = 0
    for job in jobs:
        g = gamma(job, threshold, m)
        if g is None:
            return None
        counts.append(g)
        total += g
        if total > m:
            return None
    schedule = Schedule(m=m, metadata=metadata)
    next_machine = 0
    for job, count in zip(jobs, counts):
        schedule.add(job, 0.0, [(next_machine, count)])
        next_machine += count
    return schedule


def fptas_dual_steps(jobs: Sequence[MoldableJob], m: int, d: float, eps: float):
    """The batched :func:`fptas_dual` as a request generator (see
    :func:`repro.core.bounds.estimator_steps`): one ``("gamma", (1+eps)d)``
    request, then a zero-argument thunk building the accepted schedule, or
    ``None`` for a rejection.

    The γ-counts, prefix-sum machine offsets and the final ``Schedule`` all
    stay in arrays (the same schedule as the scalar loop).
    """
    if d <= 0:
        return None
    gammas = yield ("gamma", (1.0 + eps) * d)
    if len(gammas) and int(gammas.max()) > m:
        return None
    if sum(gammas.tolist()) > m:  # exact (Python int) total
        return None

    def build() -> Schedule:
        from ..perf.schedule_builder import schedule_from_arrays

        n = len(gammas)
        offsets = np.zeros(n, dtype=np.int64)
        if n > 1:
            np.cumsum(gammas[:-1], out=offsets[1:])
        return schedule_from_arrays(
            jobs,
            m,
            np.arange(n, dtype=np.int64),
            np.zeros(n, dtype=np.float64),
            offsets,
            gammas,
            metadata={"algorithm": "fptas_dual", "d": d, "eps": eps},
        )

    return build


def fptas_schedule(
    jobs: Sequence[MoldableJob],
    m: int,
    eps: float,
    *,
    validate: bool = True,
    enforce_threshold: bool = True,
    backend: str = "vectorized",
    oracle=None,
) -> DualSearchResult:
    """`(1+eps)`-approximation for instances with ``m >= 8n/eps`` (Theorem 2).

    The internal dual accuracy and binary-search tolerance are set to
    ``eps/3`` each so that the overall factor ``(1+eps/3)^2 <= 1+eps`` holds
    for ``eps <= 1``.

    ``backend="vectorized"`` (default) shares one batched γ-oracle across the
    whole dual search; ``backend="scalar"`` is the bit-identical reference.
    ``oracle`` optionally supplies a pre-built
    :class:`repro.perf.oracle.BatchedOracle` (implies the vectorized
    backend; its probe instrumentation lands in the result's
    ``gamma_probes``).
    """
    jobs = list(jobs)
    check_fptas_args(len(jobs), m, eps, enforce_threshold)
    backend, oracle = resolve_backend(jobs, m, backend, oracle)
    inner = eps / 3.0
    result = dual_binary_search(
        jobs,
        m,
        lambda d: fptas_dual(
            jobs, m, d, inner, backend=backend, oracle=oracle, defer_build=True
        ),
        tolerance=inner,
        oracle=oracle,
    )
    finish_fptas(result.schedule, jobs, eps, backend, validate, oracle)
    return result


def finish_fptas(schedule: Schedule, jobs, eps: float, backend: str, validate: bool, oracle) -> None:
    """Record the FPTAS metadata on the accepted ``schedule`` and validate it
    (shared by :func:`fptas_schedule` and the mega-batch solver)."""
    schedule.metadata["algorithm"] = "fptas"
    schedule.metadata["eps"] = eps
    schedule.metadata["guarantee"] = 1.0 + eps
    schedule.metadata["backend"] = backend
    if validate and jobs:
        assert_valid_schedule(schedule, jobs, oracle=oracle)


def ptas_schedule(
    jobs: Sequence[MoldableJob],
    m: int,
    eps: float,
    *,
    validate: bool = True,
    exact_limit: int = 6,
    backend: str = "vectorized",
) -> DualSearchResult:
    """PTAS dispatcher for the general case (Section 3.2).

    * ``m >= 8n/eps`` — use the FPTAS (fully faithful to the paper);
    * otherwise, if the instance is tiny, solve it exactly by branch and bound;
    * otherwise fall back to the `(3/2+eps)` bounded-knapsack algorithm.

    The last branch substitutes the Jansen–Thöle PTAS the paper cites (see
    DESIGN.md, "Substitutions"); the returned schedule records the actual
    guarantee in ``schedule.metadata['guarantee']``.
    """
    jobs = list(jobs)
    n = len(jobs)
    if n == 0:
        return DualSearchResult(Schedule(m=m), 0.0, 0.0, 0, 0)
    if m >= fptas_machine_threshold(n, eps):
        return fptas_schedule(jobs, m, eps, validate=validate, backend=backend)
    if exact_solver_applicable(n, m, max_jobs=exact_limit):
        schedule = exact_schedule(jobs, m)
        schedule.metadata["algorithm"] = "ptas_exact"
        schedule.metadata["guarantee"] = 1.0
        if validate:
            assert_valid_schedule(schedule, jobs)
        return DualSearchResult(schedule, schedule.makespan, schedule.makespan, 0, 0)
    # documented substitution: the (3/2+eps) algorithm instead of Jansen-Thöle
    from .bounded_algorithm import bounded_schedule

    result = bounded_schedule(jobs, m, eps, validate=validate, backend=backend)
    result.schedule.metadata["algorithm"] = "ptas_fallback_bounded"
    result.schedule.metadata["guarantee"] = 1.5 + eps
    return result
