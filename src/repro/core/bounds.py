"""Makespan bounds and the Ludwig–Tiwari style estimator.

The dual-approximation framework (Hochbaum & Shmoys) needs an interval
``[omega, rho * omega]`` guaranteed to contain the optimal makespan.  The
paper uses the estimator of Ludwig & Tiwari [18] with estimation ratio 2:

* for every allotment ``a``, any schedule needs makespan at least
  ``max( sum_j w_j(a_j) / m , max_j t_j(a_j) )``;
* minimising this quantity over all allotments yields ``omega <= OPT``;
* list scheduling with the minimising allotment produces a schedule of length
  at most ``2 * omega`` (Garey & Graham), hence ``OPT <= 2 * omega``.

For monotone jobs the minimising allotment for a fixed time threshold ``tau``
is the canonical allotment ``gamma_j(tau)`` (fewest processors = least work),
so the optimisation reduces to a one-dimensional search over ``tau`` which we
solve by geometric bisection in ``O(n log m log(1/tol))`` oracle calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .allotment import Allotment, canonical_allotment
from .job import MoldableJob, max_sequential_time, total_minimal_work

__all__ = [
    "BracketError",
    "trivial_lower_bound",
    "serial_upper_bound",
    "EstimatorResult",
    "ludwig_tiwari_estimator",
    "makespan_lower_bound",
    "release_aware_lower_bound",
]


class BracketError(RuntimeError):
    """A bisection bracket end that must be feasible is not.

    Raised when the Ludwig–Tiwari estimator finds no feasible canonical
    allotment at an end of its bracket, and when a dual search's dual
    algorithm rejects every target makespan.  Either means the jobs break
    the model (a non-monotone job) or an oracle disagrees with its jobs.
    """


def require_feasible(allot: Optional[Allotment], tau: float, m: int) -> Allotment:
    """``allot``, the canonical allotment at a bracket end ``tau`` the
    estimator has shown to be feasible; :class:`BracketError` if it is not."""
    if allot is None:
        raise BracketError(
            f"no feasible canonical allotment at the estimator's bracket end "
            f"tau={tau!r} on m={m} machines"
        )
    return allot


def trivial_lower_bound(jobs: Sequence[MoldableJob], m: int) -> float:
    """``max( max_j t_j(m), sum_j t_j(1) / m )``.

    Valid for monotone jobs: every job needs at least ``t_j(m)`` time, and the
    total work of any schedule is at least ``sum_j w_j(1)`` because the work is
    minimised on one processor.  (The estimator computes the same value from
    its batched ``t_j(1)`` / ``t_j(m)`` arrays: see ``EstimatorResult.trivial``.)
    """
    if not jobs:
        return 0.0
    return max(max_sequential_time(jobs, m), total_minimal_work(jobs) / m)


def serial_upper_bound(jobs: Sequence[MoldableJob]) -> float:
    """``sum_j t_j(1)`` — running every job alone on one machine, one after the
    other, is always feasible."""
    return total_minimal_work(jobs)


@dataclass(frozen=True)
class EstimatorResult:
    """Result of :func:`ludwig_tiwari_estimator`.

    ``omega <= OPT <= ratio * omega`` and ``allotment`` witnesses the upper
    bound (list scheduling it yields makespan at most ``ratio * omega``).
    ``trivial`` is :func:`trivial_lower_bound` of the same instance, read off
    the ``t_j(1)`` / ``t_j(m)`` values the estimator bracketed with (``None``
    when unknown); :func:`makespan_lower_bound` certifies from both fields.
    """

    omega: float
    allotment: Allotment
    ratio: float = 2.0
    trivial: Optional[float] = None

    @property
    def upper_bound(self) -> float:
        return self.ratio * self.omega


def _phi(jobs: Sequence[MoldableJob], m: int, tau: float) -> Optional[float]:
    """Average-load value ``sum_j w_j(gamma_j(tau)) / m`` or ``None`` if some
    job cannot meet ``tau``."""
    allot = canonical_allotment(jobs, tau, m)
    if allot is None:
        return None
    return allot.average_load(m)


def _phi_steps(m: int, n: int, tau: float):
    """:func:`_phi` as a request generator (see :func:`estimator_steps`);
    returns ``(phi, times)``, the times ``t_j(gamma_j(tau))`` evaluated for
    it, or ``(None, None)``."""
    gammas = yield ("gamma", tau)
    if len(gammas) and gammas.max() > m:
        return None, None
    ks = np.broadcast_to(np.asarray(gammas, dtype=np.float64), (n,))
    times = yield ("eval", ks)
    # left-to-right sum matches the scalar Allotment.total_work() bit for bit
    return sum((ks * times).tolist()) / m, times


def _allotment_steps(jobs: Sequence[MoldableJob], m: int, tau: float):
    """``canonical_allotment(jobs, tau, m)`` as a request generator."""
    gammas = yield ("gamma", tau)
    if len(gammas) and gammas.max() > m:
        return None
    # tolist() hands back Python ints in one pass; the γ-array is already
    # validated (>= 1), so the Allotment re-check loop is skipped.
    return Allotment.from_trusted_counts(dict(zip(jobs, gammas.tolist())))


def estimator_steps(jobs, m: int, oracle, *, tol: float = 1e-6, max_iter: int = 128):
    """The batched :func:`ludwig_tiwari_estimator` as a request generator.

    It yields ``("gamma", tau)`` for a γ-array and ``("eval", ks)`` for the
    times ``t_j(ks_j)``, is sent the answers and returns the
    :class:`EstimatorResult`.  ``oracle`` (the non-empty instance's
    :class:`repro.perf.oracle.BatchedOracle`) answers solo through
    ``oracle.run``; :func:`repro.perf.megabatch.solve_mega` answers many
    instances' requests per round.  Only the cached ``oracle.t1`` /
    ``oracle.tm`` are read directly.
    """
    n = len(jobs)
    t_max, t1_sum = float(oracle.tm.max()), oracle.sequential_sum(oracle.t1)
    # trivial_lower_bound(jobs, m) from the values already at hand
    trivial = max(t_max, t1_sum / m)
    lo = max(t_max, 1e-300)
    hi = max(t1_sum, lo)

    # the same bracket moves as the scalar loop in ludwig_tiwari_estimator
    phi_lo, _ = yield from _phi_steps(m, n, lo)
    if phi_lo is not None and phi_lo <= lo:
        allot = require_feasible((yield from _allotment_steps(jobs, m, lo)), lo, m)
        return EstimatorResult(omega=max(phi_lo, lo), allotment=allot, trivial=trivial)

    for _ in range(max_iter):
        if hi <= lo * (1.0 + tol):
            break
        mid = math.sqrt(lo * hi)
        phi_mid, _ = yield from _phi_steps(m, n, mid)
        if phi_mid is None or phi_mid > mid:
            lo = mid
        else:
            hi = mid

    allot = require_feasible((yield from _allotment_steps(jobs, m, hi)), hi, m)
    # batched twins of average_load / max_time (the work sum above and an
    # order-independent max — bit-identical to the scalar loops); the γ-array
    # at hi is a threshold-cache hit
    phi_hi, times = yield from _phi_steps(m, n, hi)
    omega = max(phi_hi, float(times.max()))
    omega = max(omega / (1.0 + tol), trivial, lo)
    return EstimatorResult(
        omega=omega, allotment=allot, ratio=2.0 * (1.0 + 2.0 * tol), trivial=trivial
    )


def ludwig_tiwari_estimator(
    jobs: Sequence[MoldableJob],
    m: int,
    *,
    tol: float = 1e-6,
    max_iter: int = 128,
    oracle=None,
) -> EstimatorResult:
    """2-estimator for the optimal makespan of monotone moldable jobs.

    Finds (approximately) the threshold ``tau`` minimising
    ``g(tau) = max(phi(tau), tau)`` where ``phi(tau)`` is the average machine
    load of the canonical allotment for ``tau``.  Because ``phi`` is
    non-increasing and ``tau`` increasing, the minimiser sits at the crossover
    which we bracket by geometric bisection.

    The returned ``omega`` satisfies ``omega * (1 - tol) <= OPT`` and list
    scheduling the returned allotment yields makespan at most
    ``2 * omega * (1 + tol)``; the small ``tol`` slack is absorbed by the
    callers (they widen their binary-search interval accordingly).

    ``oracle`` optionally supplies a :class:`repro.perf.oracle.BatchedOracle`
    for ``(jobs, m)``: each ``phi`` probe then runs all γ-searches in lockstep
    on arrays instead of ``n`` scalar binary searches (bit-identical result).
    """
    if not jobs:
        empty = Allotment({})
        return EstimatorResult(omega=0.0, allotment=empty, trivial=0.0)
    if m < 1:
        raise ValueError("m must be >= 1")

    if oracle is not None:
        return oracle.run(estimator_steps(jobs, m, oracle, tol=tol, max_iter=max_iter))

    t_max, t1_sum = max_sequential_time(jobs, m), serial_upper_bound(jobs)
    # trivial_lower_bound(jobs, m) from the values already at hand
    trivial = max(t_max, t1_sum / m)
    lo = max(t_max, 1e-300)
    hi = max(t1_sum, lo)

    # g(hi) is finite (every job fits on one machine within the serial bound).
    # Invariant we move towards: phi(hi) <= hi  and  (phi(lo) > lo or lo is the
    # global max_j t_j(m) floor).
    phi_lo = _phi(jobs, m, lo)
    if phi_lo is not None and phi_lo <= lo:
        # the crossover is at or below the floor; the floor itself is optimal
        allot = require_feasible(canonical_allotment(jobs, lo, m), lo, m)
        return EstimatorResult(omega=max(phi_lo, lo), allotment=allot, trivial=trivial)

    for _ in range(max_iter):
        if hi <= lo * (1.0 + tol):
            break
        mid = math.sqrt(lo * hi)
        phi_mid = _phi(jobs, m, mid)
        if phi_mid is None or phi_mid > mid:
            lo = mid
        else:
            hi = mid

    allot = require_feasible(canonical_allotment(jobs, hi, m), hi, m)
    omega = max(allot.average_load(m), allot.max_time())
    # omega as computed is an achievable value of g, hence >= min g >= ... but
    # we also need a certified lower bound; combine with the trivial bound.
    omega = max(omega / (1.0 + tol), trivial, lo)
    # The bisection slack means the witnessing allotment only guarantees a
    # schedule of length 2 * omega * (1 + 2 tol); record that honestly.
    return EstimatorResult(
        omega=omega, allotment=allot, ratio=2.0 * (1.0 + 2.0 * tol), trivial=trivial
    )


def makespan_lower_bound(
    jobs: Sequence[MoldableJob], m: int, *, estimate: Optional[EstimatorResult] = None
) -> float:
    """Best certified lower bound available: the maximum of the trivial bound
    and the Ludwig–Tiwari ``omega``.

    ``estimate`` is an :func:`ludwig_tiwari_estimator` result for exactly
    ``(jobs, m)`` that a driver already computed; it is certified as is
    instead of estimating again.  γ-values are exact on every backend, so
    the result is bit-identical to the fresh scalar estimate.
    """
    if not jobs:
        return 0.0
    if estimate is None:
        estimate = ludwig_tiwari_estimator(jobs, m)
    trivial = estimate.trivial
    if trivial is None:
        trivial = trivial_lower_bound(jobs, m)
    return max(trivial, estimate.omega)


def release_aware_lower_bound(
    jobs: Sequence[MoldableJob],
    releases: Sequence[float],
    m: int,
    *,
    base: Optional[float] = None,
) -> float:
    """Certified makespan lower bound for jobs with release times.

    Three valid bounds are combined (releases only delay work, so each is a
    relaxation of the true online optimum):

    * per job: ``release_j + t_j(m)`` — a job cannot finish before it
      arrives plus its fastest possible execution;
    * per release instant ``r``: ``r + (sum of t_j(1) over release_j >= r) / m``
      — all work released at or after ``r`` must fit into ``m`` machines
      after ``r``, and ``t_j(1)`` minimises each job's work;
    * optionally ``base``, any release-free lower bound of the same instance
      (e.g. :func:`makespan_lower_bound`), which stays valid because
      dropping releases is a relaxation.

    This is what makes ``ratio_vs_lower_bound`` meaningful for online
    schedules: the classic bounds assume everything is available at time 0
    and overstate the gap for late-arriving work.
    """
    if len(releases) != len(jobs):
        raise ValueError(
            f"got {len(releases)} releases for {len(jobs)} jobs"
        )
    if not jobs:
        return 0.0 if base is None else max(0.0, base)
    if m < 1:
        raise ValueError("m must be >= 1")
    bound = max(r + j.processing_time(m) for j, r in zip(jobs, releases))
    # suffix-work sweep over releases in descending order: after adding job j,
    # the accumulator holds the t1-work of every job released at or after r_j
    suffix = 0.0
    for r, t1 in sorted(
        ((r, j.processing_time(1)) for j, r in zip(jobs, releases)),
        key=lambda pair: -pair[0],
    ):
        suffix += t1
        bound = max(bound, r + suffix / m)
    if base is not None:
        bound = max(bound, base)
    return bound
