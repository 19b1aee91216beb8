"""Knapsack with compressible items (Section 4.2 of the paper).

An instance ``(I, Ic, C, rho)`` consists of items ``I`` with sizes and
profits, a subset ``Ic`` of *compressible* items, a capacity ``C`` and a
compression factor ``rho``.  A feasible solution ``I'`` may exceed the
capacity by the amount that compressing its compressible items recovers::

    sum_{i in I' ∩ Ic} (1 - rho) s(i)  +  sum_{i in I' \\ Ic} s(i)  <=  C

The scheduling application: items are (big) jobs, sizes are processor counts
``gamma_j(d)``, and wide jobs can afford to lose a ``rho`` fraction of their
processors because monotony bounds the resulting slowdown (Lemma 4).

This module implements

* :func:`geom` — geometric value sets (Definition 13) and geometric rounding;
* :class:`AdaptiveNormalizer` — the multi-capacity adaptive size
  normalisation of Lemma 12 (the structure shown in Figure 4 of the paper);
* :func:`solve_compressible_multi` — the normalised dominance DP solving the
  compressible sub-instance for a whole set of capacities in one pass;
* :func:`solve_compressible_knapsack` — **Algorithm 2** (Theorem 15): combine
  the compressible and incompressible sub-instances over a geometric grid of
  capacity splits, returning a solution whose profit is at least the optimum
  of the *uncompressed* instance ``OPT(I, ∅, C, 0)``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .array_dp import ArrayDominanceList
from .dp import DominanceList
from .items import KnapsackItem
from .multi import solve_knapsack_multi

__all__ = [
    "geom",
    "round_down_geom",
    "round_up_geom",
    "AdaptiveNormalizer",
    "solve_compressible_multi",
    "CompressibleSolution",
    "solve_compressible_knapsack",
]


# --------------------------------------------------------------------------
# Geometric value sets (Definition 13 / Lemma 14)
# --------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _geom_cached(low: float, high: float, ratio: float) -> Tuple[float, ...]:
    """Materialised geometric grid, memoised per ``(low, high, ratio)``.

    Only list-returning :func:`geom` callers materialise grids now (the
    rounding helpers below locate their grid point in O(1) via logarithms);
    the memo covers the repeated within-instance calls while keeping at most
    a handful of the — possibly 10^5-point — grids alive.
    """
    if low <= 0:
        raise ValueError("low must be positive")
    if ratio <= 1.0:
        raise ValueError("ratio must be > 1")
    if high <= low:
        return (low,)
    steps = math.ceil(math.log(high / low) / math.log(ratio))
    return tuple(low * ratio ** i for i in range(steps + 1))


def geom(low: float, high: float, ratio: float) -> List[float]:
    """The geometric set ``{low * ratio**i : i = 0, ..., ceil(log_ratio(high/low))}``.

    For ``high <= low`` the set degenerates to ``[low]``.
    """
    return list(_geom_cached(low, high, ratio))


def _geom_params(low: float, high: float, ratio: float) -> int:
    """Validate grid parameters and return the largest grid index (the grid is
    ``low * ratio**i`` for ``i = 0..steps``) without materialising the grid."""
    if low <= 0:
        raise ValueError("low must be positive")
    if ratio <= 1.0:
        raise ValueError("ratio must be > 1")
    if high <= low:
        return 0
    return math.ceil(math.log(high / low) / math.log(ratio))


def round_down_geom(value: float, low: float, high: float, ratio: float) -> float:
    """``max { a in geom(low, high, ratio) : a <= value }`` (the paper's ǧr).

    Raises ``ValueError`` when ``value`` is below every grid point.

    The grid index is located in O(1) via logarithms (plus a float-safety
    nudge) instead of materialising the — possibly 10^5-point — grid; the
    returned value ``low * ratio**i`` is bit-identical to the grid entry.
    """
    steps = _geom_params(low, high, ratio)
    v = value * (1 + 1e-12)
    if v < low:
        raise ValueError(f"value {value} is below the smallest grid point {low}")
    idx = int(math.floor(math.log(v / low) / math.log(ratio))) if steps else 0
    idx = min(max(idx, 0), steps)
    # the log estimate can be off by one ulp-step; restore the bisect predicate
    while idx > 0 and low * ratio ** idx > v:
        idx -= 1
    while idx < steps and low * ratio ** (idx + 1) <= v:
        idx += 1
    if low * ratio ** idx > v:
        raise ValueError(f"value {value} is below the smallest grid point {low}")
    return low * ratio ** idx


def round_up_geom(value: float, low: float, high: float, ratio: float) -> float:
    """``min { a in geom(low, high, ratio) : a >= value }`` (the paper's ĝr).

    Values above the largest grid point are clamped to it (they can only occur
    through floating-point noise in the intended uses).  O(1) via logarithms,
    bit-identical to bisecting the materialised grid.
    """
    steps = _geom_params(low, high, ratio)
    v = value * (1 - 1e-12)
    if v <= low:
        return low
    idx = int(math.ceil(math.log(v / low) / math.log(ratio))) if steps else 0
    idx = min(max(idx, 0), steps)
    while idx < steps and low * ratio ** idx < v:
        idx += 1
    while idx > 0 and low * ratio ** (idx - 1) >= v:
        idx -= 1
    return low * ratio ** idx


# --------------------------------------------------------------------------
# Adaptive normalisation (Lemma 12, Figure 4)
# --------------------------------------------------------------------------

@dataclass
class IntervalInfo:
    """One capacity interval ``I^(i) = [alpha_{i-1}, alpha_i)`` and its grid."""

    index: int
    lower: float
    upper: float
    unit: float  # U_i
    num_subintervals: int


class AdaptiveNormalizer:
    """The multi-capacity size normalisation of Lemma 12.

    Given capacities ``alpha_1 < ... < alpha_k`` (all at least ``alpha_min``),
    a compression factor ``rho`` and an upper bound ``n_bar`` on the number of
    compressible items in any solution, sizes are rounded down onto a grid
    whose resolution adapts to the capacity range: inside
    ``[alpha_{i-1}, alpha_i)`` the grid unit is ``U_i = rho/((1-rho) n_bar) * alpha_i``.

    Lemma 12 shows each interval has ``O(n_bar)`` grid cells and that the
    total rounding error of a solution for capacity ``alpha_i`` is at most
    ``n_bar * U_i``, which the compression absorbs.
    """

    def __init__(self, capacities: Sequence[float], alpha_min: float, rho: float, n_bar: int) -> None:
        if not 0 < rho < 1:
            raise ValueError("rho must lie in (0, 1)")
        if n_bar < 1:
            raise ValueError("n_bar must be >= 1")
        caps = sorted(set(float(c) for c in capacities))
        if not caps:
            raise ValueError("at least one capacity is required")
        if alpha_min <= 0:
            raise ValueError("alpha_min must be positive")
        self.alpha_min = float(alpha_min)
        self.rho = float(rho)
        self.n_bar = int(n_bar)
        self.capacities = caps
        self.intervals: List[IntervalInfo] = []
        prev = self.alpha_min
        for i, alpha in enumerate(caps, start=1):
            unit = rho / ((1.0 - rho) * n_bar) * alpha
            if alpha <= prev:
                # degenerate interval (capacity below alpha_min); keep a stub
                self.intervals.append(IntervalInfo(i, prev, alpha, unit, 0))
                continue
            l_min = math.floor(prev / unit)
            l_max = math.floor(alpha / unit)
            self.intervals.append(IntervalInfo(i, prev, alpha, unit, l_max - l_min + 1))
            prev = alpha

    # ------------------------------------------------------------------ API
    def normalize(self, size: float) -> float:
        """Round ``size`` down onto the adaptive grid (sizes below
        ``alpha_min`` are returned unchanged)."""
        if size < self.alpha_min:
            return size
        # find the interval containing `size`
        idx = bisect_right(self.capacities, size)
        if idx >= len(self.capacities):
            idx = len(self.capacities) - 1  # clamp to the last interval's grid
        info = self.intervals[idx]
        unit = info.unit
        lower = info.lower
        normalized = math.floor(size / unit) * unit
        return max(normalized, lower)

    def normalize_array(self, sizes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`normalize`: round a whole array of sizes onto the
        adaptive grid in a handful of array operations (bit-for-bit identical
        to the scalar path)."""
        sizes = np.asarray(sizes, dtype=np.float64)
        caps = getattr(self, "_caps_arr", None)
        if caps is None:
            caps = self._caps_arr = np.asarray(self.capacities, dtype=np.float64)
            self._units_arr = np.array([info.unit for info in self.intervals], dtype=np.float64)
            self._lowers_arr = np.array([info.lower for info in self.intervals], dtype=np.float64)
        idx = np.searchsorted(caps, sizes, side="right")
        np.clip(idx, 0, len(caps) - 1, out=idx)
        unit = self._units_arr[idx]
        lower = self._lowers_arr[idx]
        normalized = np.maximum(np.floor(sizes / unit) * unit, lower)
        return np.where(sizes < self.alpha_min, sizes, normalized)

    def max_underestimate(self, capacity: float) -> float:
        """Upper bound on the total size under-estimation of a solution for
        ``capacity`` (``n_bar * U_i`` for the interval of ``capacity``)."""
        idx = bisect_left(self.capacities, capacity * (1 - 1e-12))
        idx = min(idx, len(self.intervals) - 1)
        return self.n_bar * self.intervals[idx].unit

    def subinterval_counts(self) -> List[int]:
        """Number of grid cells per capacity interval (the quantity bounded by
        Eq. (16) of the paper; reproduced in the Figure 4 experiment)."""
        return [info.num_subintervals for info in self.intervals]


# --------------------------------------------------------------------------
# Compressible multi-capacity solver
# --------------------------------------------------------------------------

def solve_compressible_multi(
    items: Sequence[KnapsackItem],
    capacities: Sequence[float],
    rho: float,
    n_bar: int,
    alpha_min: float,
    *,
    backend: str = "scalar",
) -> Dict[float, Tuple[float, List[KnapsackItem]]]:
    """Solve the compressible-items sub-instance for every capacity.

    The returned selections may exceed their nominal capacity in *true* size,
    but by no more than the amount recovered by compressing every selected
    item with factor ``2*rho - rho**2`` (this is exactly the slack Lemma 12 /
    Eq. (14) accounts for).  Profits are at least the exact optimum of the
    corresponding uncompressed problems.

    ``backend="vectorized"`` runs the normalised dominance DP on the array
    engine (:mod:`repro.knapsack.array_dp`) with the vectorized normaliser.
    """
    if not capacities:
        return {}
    if backend == "vectorized":
        return _solve_compressible_multi_array(items, capacities, rho, n_bar, alpha_min)
    normalizer = AdaptiveNormalizer(capacities, alpha_min, rho, n_bar)
    max_cap = max(capacities)
    dom = DominanceList()
    for index, item in enumerate(items):
        if item.size > max_cap / (1.0 - rho) + 1e-9:
            continue
        dom.add_item(item, index, max_cap, size_transform=normalizer.normalize)

    pairs = dom.pairs
    sizes = [p.size for p in pairs]
    best_prefix: List[int] = []
    best_idx = 0
    for i, pair in enumerate(pairs):
        if pair.profit > pairs[best_idx].profit:
            best_idx = i
        best_prefix.append(best_idx)

    results: Dict[float, Tuple[float, List[KnapsackItem]]] = {}
    for cap in capacities:
        idx = bisect_right(sizes, cap + 1e-9) - 1
        if idx < 0:
            results[cap] = (0.0, [])
            continue
        pair = pairs[best_prefix[idx]]
        results[cap] = (pair.profit, pair.backtrack(items))
    return results


def _solve_compressible_multi_array(
    items: Sequence[KnapsackItem],
    capacities: Sequence[float],
    rho: float,
    n_bar: int,
    alpha_min: float,
) -> Dict[float, Tuple[float, List[KnapsackItem]]]:
    """Array-engine variant of :func:`solve_compressible_multi`."""
    normalizer = AdaptiveNormalizer(capacities, alpha_min, rho, n_bar)
    max_cap = max(capacities)
    dom = ArrayDominanceList()
    for index, item in enumerate(items):
        if item.size > max_cap / (1.0 - rho) + 1e-9:
            continue
        dom.add_item(item, index, max_cap, size_transform=normalizer.normalize_array)

    results: Dict[float, Tuple[float, List[KnapsackItem]]] = {}
    cached: Dict[int, Tuple[float, List[KnapsackItem]]] = {}
    for cap in capacities:
        idx = dom.best_index_for_capacity(cap, tol=1e-9)
        if idx not in cached:
            cached[idx] = (float(dom.profits[idx]), dom.backtrack(idx, items))
        results[cap] = cached[idx]
    return results


# --------------------------------------------------------------------------
# Algorithm 2
# --------------------------------------------------------------------------

@dataclass
class CompressibleSolution:
    """Result of :func:`solve_compressible_knapsack`."""

    profit: float
    compressible: List[KnapsackItem]
    incompressible: List[KnapsackItem]
    alpha_tilde: float
    rho_prime: float

    @property
    def items(self) -> List[KnapsackItem]:
        return self.compressible + self.incompressible

    def true_size(self) -> float:
        return sum(i.size for i in self.items)

    def compressed_size(self) -> float:
        """Size after compressing every compressible item with ``rho_prime``."""
        return sum(i.size * (1.0 - self.rho_prime) for i in self.compressible) + sum(
            i.size for i in self.incompressible
        )


def solve_compressible_knapsack(
    items: Sequence[KnapsackItem],
    compressible_keys: Iterable,
    capacity: float,
    rho: float,
    *,
    alpha_min: Optional[float] = None,
    beta_max: Optional[float] = None,
    n_bar: Optional[int] = None,
    backend: str = "scalar",
) -> CompressibleSolution:
    """Algorithm 2: knapsack with compressible items.

    Parameters
    ----------
    items:
        All items ``I``.
    compressible_keys:
        Keys of the compressible items ``Ic``.
    capacity:
        Knapsack capacity ``C``.
    rho:
        Half of the usable compressibility; the returned solution is feasible
        for the compression factor ``rho' = 2*rho - rho**2``.
    alpha_min:
        Lower bound on any non-zero compressible-space value; defaults to the
        smallest compressible item size.
    beta_max:
        Upper bound on the space used by incompressible items; defaults to
        ``min(capacity, total incompressible size)``.
    n_bar:
        Upper bound on the number of compressible items in any solution;
        defaults to ``floor(capacity * rho / (1 - rho)) + 1`` (each
        compressible item has size at least ``1/rho``).
    backend:
        ``"scalar"`` runs both sub-solvers on the Python dominance-list
        engine, ``"vectorized"`` on the NumPy array engine
        (:mod:`repro.knapsack.array_dp`).

    Returns
    -------
    CompressibleSolution
        With ``profit >= OPT(I, ∅, C, 0)`` (the optimum of the *uncompressed*
        instance) and ``compressed_size() <= C``.
    """
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    if not 0 < rho <= 0.25:
        raise ValueError("rho must lie in (0, 1/4]")
    if backend not in ("scalar", "vectorized"):
        raise ValueError(f"unknown backend {backend!r}")
    comp_keys: Set = set(compressible_keys)
    comp_items = [i for i in items if i.key in comp_keys]
    incomp_items = [i for i in items if i.key not in comp_keys]
    rho_prime = 2.0 * rho - rho ** 2

    if alpha_min is None:
        alpha_min = min((i.size for i in comp_items), default=1.0)
    if beta_max is None:
        beta_max = min(capacity, sum(i.size for i in incomp_items))
    if n_bar is None:
        n_bar = int(math.floor(capacity * rho / (1.0 - rho))) + 1
    n_bar = max(1, int(n_bar))

    # line 1 of Algorithm 2
    alpha_min = max(alpha_min, capacity - beta_max)
    alpha_min = max(alpha_min, 1e-12)

    if comp_items and capacity > 0:
        cap_grid = geom(alpha_min / (1.0 - rho), capacity, 1.0 / (1.0 - rho))
        # Feasibility requires (1-rho) * alpha_tilde <= C (Eq. (23)); values
        # beyond C/(1-rho) can only arise in the degenerate case where not even
        # the smallest compressible item fits, and must be dropped.
        cap_grid = [a for a in cap_grid if a <= capacity / (1.0 - rho) * (1.0 + 1e-12)]
    else:
        cap_grid = []

    beta_of: Dict[float, float] = {a: max(0.0, capacity - (1.0 - rho) * a) for a in cap_grid}
    beta_of[0.0] = min(beta_max, capacity)
    betas = sorted(set(beta_of.values()))

    incomp_solutions = solve_knapsack_multi(incomp_items, betas, backend=backend)
    comp_solutions = (
        solve_compressible_multi(comp_items, cap_grid, rho, n_bar, alpha_min, backend=backend)
        if cap_grid
        else {}
    )

    best: Optional[CompressibleSolution] = None
    for alpha in [0.0] + cap_grid:
        beta = beta_of[alpha]
        inc_profit, inc_chosen = incomp_solutions[beta]
        if alpha == 0.0:
            comp_profit, comp_chosen = 0.0, []
        else:
            comp_profit, comp_chosen = comp_solutions[alpha]
        total = inc_profit + comp_profit
        if best is None or total > best.profit:
            best = CompressibleSolution(
                profit=total,
                compressible=list(comp_chosen),
                incompressible=list(inc_chosen),
                alpha_tilde=alpha,
                rho_prime=rho_prime,
            )
    if best is None:
        raise RuntimeError("compressible knapsack evaluated no capacity split")
    return best
