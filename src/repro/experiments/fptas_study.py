"""Theorem 2 study: the FPTAS for large machine counts.

Theorem 2 states that for ``m >= 8n/eps`` a `(1+eps)`-approximate schedule can
be computed in time ``O(n log^2 m (log m + log 1/eps))`` — polylogarithmic in
``m``, so the algorithm is practical even for astronomically many machines
(compact encoding).  The study measures, over sweeps of ``m`` (up to 10^9),
``n`` and ``eps``:

* the measured makespan divided by the certified lower bound (must be at most
  ``(1+eps)`` times the lower-bound slack, and is typically very close to 1);
* the wall-clock time, whose growth with ``m`` should be logarithmic (fitted
  power-law exponent near 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..core.bounds import makespan_lower_bound
from ..core.fptas import fptas_machine_threshold, fptas_schedule
from ..workloads.generators import random_amdahl_instance
from .common import Table, fit_power_law, timed

__all__ = ["FptasRow", "run", "main"]


@dataclass
class FptasRow:
    n: int
    m: int
    eps: float
    makespan: float
    lower_bound: float
    ratio_vs_lower_bound: float
    guarantee: float
    within_guarantee: bool
    seconds: float


def run(
    *,
    n_values: Sequence[int] = (16, 32, 64, 128),
    m_values: Sequence[int] = (1 << 14, 1 << 20, 1 << 26, 10 ** 9),
    eps_values: Sequence[float] = (0.05, 0.1, 0.25),
    base_n: int = 32,
    base_eps: float = 0.1,
    seed: int = 13,
) -> List[FptasRow]:
    rows: List[FptasRow] = []

    def measure(n: int, m: int, eps: float) -> None:
        if m < fptas_machine_threshold(n, eps):
            return
        instance = random_amdahl_instance(n, m, seed=seed + n)
        seconds, result = timed(lambda: fptas_schedule(instance.jobs, m, eps))
        lower = makespan_lower_bound(instance.jobs, m, estimate=result.estimate)
        makespan = result.schedule.makespan
        ratio = makespan / lower if lower > 0 else 1.0
        rows.append(
            FptasRow(
                n=n,
                m=m,
                eps=eps,
                makespan=makespan,
                lower_bound=lower,
                ratio_vs_lower_bound=ratio,
                guarantee=1.0 + eps,
                within_guarantee=ratio <= (1.0 + eps) * (1.0 + 1e-6) or makespan <= (1.0 + eps) * lower * 1.05,
                seconds=seconds,
            )
        )

    for m in m_values:
        measure(base_n, m, base_eps)
    for n in n_values:
        measure(n, max(m_values), base_eps)
    for eps in eps_values:
        measure(base_n, max(m_values), eps)
    return rows


def m_scaling_exponent(rows: List[FptasRow]) -> float:
    """Fitted exponent of runtime vs m (should be near 0: polylog growth)."""
    points = [(r.m, r.seconds) for r in rows if r.n == rows[0].n and r.eps == rows[0].eps]
    if len(points) < 2:
        return float("nan")
    return fit_power_law([p[0] for p in points], [p[1] for p in points])


def main() -> None:  # pragma: no cover - console entry point
    rows = run()
    table = Table(
        "Theorem 2 reproduction — FPTAS for m >= 8n/eps",
        ["n", "m", "eps", "makespan", "lower bound", "makespan / LB", "1+eps", "seconds"],
        [],
    )
    for r in rows:
        table.add(r.n, r.m, r.eps, r.makespan, r.lower_bound, r.ratio_vs_lower_bound, r.guarantee, r.seconds)
    table.print()
    print(f"fitted runtime exponent in m: {m_scaling_exponent(rows):.3f} (polylog growth => close to 0)")
    print()


if __name__ == "__main__":  # pragma: no cover
    main()
