"""Two- and three-shelf schedule constructions (Section 4.1 of the paper).

The `(3/2)`-dual algorithm of Mounié, Rapine & Trystram — and all of the
paper's accelerated variants — share the same schedule *construction*: given a
target makespan ``d`` and a choice of which big jobs go into shelf ``S1``
(height ``d``) versus shelf ``S2`` (height ``d/2``), the construction

1. checks that shelf ``S1`` fits into ``m`` machines and that the total work
   respects the bound ``m*d - W_S(d)`` (Lemma 6);
2. applies the transformation rules (i)–(iii) that move jobs into a third
   shelf ``S0`` running alongside ``S1 + S2`` so that the whole picture fits
   into ``m`` machines (Lemmas 7 and 8, Figure 3);
3. re-inserts the small jobs greedily into the per-machine gaps (Lemma 9);
4. assigns concrete machine spans and returns a feasible :class:`Schedule`
   with makespan at most ``3*d/2``.

Only the *selection* of shelf-1 jobs differs between the algorithms (exact
knapsack for the original MRT algorithm, compressible / bounded knapsack for
the accelerated ones); they all call :func:`build_three_shelf_schedule`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .allotment import gamma
from .job import MoldableJob
from .schedule import MachineSpan, Schedule

__all__ = [
    "partition_small_big",
    "small_jobs_work",
    "shelf_profit",
    "TwoShelfSchedule",
    "build_two_shelf_schedule",
    "ThreeShelfDiagnostics",
    "build_three_shelf_schedule",
]

_REL = 1e-9
_ABS = 1e-9


def _leq(a: float, b: float) -> bool:
    return a <= b + _ABS + _REL * max(abs(a), abs(b))


# --------------------------------------------------------------------------
# Partitioning and knapsack profits
# --------------------------------------------------------------------------

def partition_small_big(jobs: Iterable[MoldableJob], d: float) -> Tuple[List[MoldableJob], List[MoldableJob]]:
    """Split jobs into small (``t_j(1) <= d/2``) and big (the rest)."""
    small: List[MoldableJob] = []
    big: List[MoldableJob] = []
    for job in jobs:
        if _leq(job.processing_time(1), d / 2.0):
            small.append(job)
        else:
            big.append(job)
    return small, big


def small_jobs_work(small: Iterable[MoldableJob]) -> float:
    """``W_S(d) = sum of t_j(1)`` over the small jobs."""
    return sum(job.processing_time(1) for job in small)


def shelf_profit(job: MoldableJob, d: float, m: int, *, gamma_fn=None) -> float:
    """Knapsack profit ``v_j(d) = w_j(gamma_j(d/2)) - w_j(gamma_j(d))``.

    The work saved by promoting a big job from shelf S2 to shelf S1.  Requires
    both gammas to be defined; monotony guarantees non-negativity (we clamp
    tiny negative values caused by floating point).

    ``gamma_fn`` optionally substitutes a γ-oracle with the same signature as
    :func:`repro.core.allotment.gamma` (e.g. a
    :class:`repro.perf.oracle.BatchedOracle` answering from its per-threshold
    γ-array cache).
    """
    if gamma_fn is None:
        gamma_fn = gamma
    g_half = gamma_fn(job, d / 2.0, m)
    g_full = gamma_fn(job, d, m)
    if g_half is None or g_full is None:
        raise ValueError(f"job {job.name!r} cannot meet the threshold with m={m} machines")
    return max(0.0, job.work(g_half) - job.work(g_full))


# --------------------------------------------------------------------------
# Two-shelf schedule (Figure 2) — may be infeasible (S2 wider than m)
# --------------------------------------------------------------------------

@dataclass
class TwoShelfSchedule:
    """The (possibly infeasible) two-shelf picture of Figure 2."""

    d: float
    m: int
    shelf1: Dict[MoldableJob, int]  # job -> processors (gamma_j(d))
    shelf2: Dict[MoldableJob, int]  # job -> processors (gamma_j(d/2))
    small: List[MoldableJob]

    @property
    def shelf1_processors(self) -> int:
        return sum(self.shelf1.values())

    @property
    def shelf2_processors(self) -> int:
        return sum(self.shelf2.values())

    @property
    def total_work(self) -> float:
        w1 = sum(job.work(k) for job, k in self.shelf1.items())
        w2 = sum(job.work(k) for job, k in self.shelf2.items())
        return w1 + w2

    @property
    def is_feasible(self) -> bool:
        """Whether both shelves fit into ``m`` machines simultaneously (the
        final, transformed schedule can be feasible even when this is not)."""
        return self.shelf1_processors <= self.m and self.shelf2_processors <= self.m

    def work_bound(self) -> float:
        """The Lemma 6 threshold ``m*d - W_S(d)``."""
        return self.m * self.d - small_jobs_work(self.small)


def build_two_shelf_schedule(
    jobs: Sequence[MoldableJob],
    m: int,
    d: float,
    shelf1_jobs: Iterable[MoldableJob],
    *,
    gamma_fn=None,
) -> Optional[TwoShelfSchedule]:
    """Assemble the two-shelf picture for a given shelf-1 selection.

    Returns ``None`` if some big job cannot meet its shelf's height at all
    (``t_j(m) > d`` for shelf 1 or ``t_j(m) > d/2`` for shelf 2), in which
    case the target ``d`` must be rejected or the job forced into shelf 1 by
    the caller.
    """
    if gamma_fn is None:
        gamma_fn = gamma
    small, big = partition_small_big(jobs, d)
    shelf1_ids = {id(j) for j in shelf1_jobs}
    shelf1: Dict[MoldableJob, int] = {}
    shelf2: Dict[MoldableJob, int] = {}
    for job in big:
        if id(job) in shelf1_ids:
            g = gamma_fn(job, d, m)
            if g is None:
                return None
            shelf1[job] = g
        else:
            g = gamma_fn(job, d / 2.0, m)
            if g is None:
                return None
            shelf2[job] = g
    return TwoShelfSchedule(d=d, m=m, shelf1=shelf1, shelf2=shelf2, small=small)


# --------------------------------------------------------------------------
# Three-shelf construction (Lemmas 7-9, Figure 3)
# --------------------------------------------------------------------------

@dataclass
class _S0Entry:
    """A column of the S0 shelf: `procs` dedicated machines running the listed
    placements (job, processors, start offset) back to back."""

    procs: int
    placements: List[Tuple[MoldableJob, int, float]] = field(default_factory=list)

    def end(self) -> float:
        return max((start + job.processing_time(procs) for job, procs, start in self.placements), default=0.0)


@dataclass
class ThreeShelfDiagnostics:
    """Structural information about a three-shelf construction (used by the
    Figure 2/3 experiments and by tests)."""

    d: float
    m: int
    shelf0_processors: int = 0
    shelf1_processors: int = 0
    shelf2_processors: int = 0
    shelf0_jobs: int = 0
    shelf1_jobs: int = 0
    shelf2_jobs: int = 0
    small_jobs: int = 0
    piggybacked_jobs: int = 0
    moved_from_shelf2: int = 0
    two_shelf_feasible: bool = False
    rejected_reason: Optional[str] = None


class _ScheduleAssembler:
    """Placement collector shared by the object and columnar assembly modes.

    In object mode every :meth:`add` goes straight to ``Schedule.add`` (the
    scalar reference).  In columnar mode the placements accumulate as flat
    rows in an :class:`repro.perf.schedule_builder.ArraySchedule` and the
    ``Schedule`` is materialized once in :meth:`finish` — bit-identical
    entries, one batched span-normalization pass instead of n.

    Either way the assembler records the busy *pieces* ``(machine_first,
    machine_end, start, end)`` that the small-job gap recovery sweeps, so the
    gap index never needs the (possibly not yet materialized) entry objects.
    """

    __slots__ = ("m", "pieces", "_schedule", "_builder")

    def __init__(self, m: int, metadata: dict, columnar: bool) -> None:
        self.m = m
        self.pieces: List[Tuple[int, int, float, float]] = []
        if columnar:
            from ..perf.schedule_builder import ArraySchedule

            self._builder = ArraySchedule(m, metadata=metadata)
            self._schedule = None
        else:
            self._builder = None
            self._schedule = Schedule(m=m, metadata=metadata)

    def add(
        self,
        job: MoldableJob,
        start: float,
        spans: Sequence[MachineSpan],
        duration: float,
    ) -> None:
        end = start + duration
        pieces = self.pieces
        for first, count in spans:
            pieces.append((first, first + count, start, end))
        if self._builder is not None:
            self._builder.append(job, start, spans)
        else:
            self._schedule.add(job, start, spans)

    def finish(self) -> Schedule:
        if self._builder is not None:
            return self._builder.build()
        return self._schedule


def build_three_shelf_schedule(
    jobs: Sequence[MoldableJob],
    m: int,
    d: float,
    shelf1_jobs: Iterable[MoldableJob],
    *,
    transform: str = "heap",
    bucket_ratio: Optional[float] = None,
    diagnostics: Optional[ThreeShelfDiagnostics] = None,
    gamma_fn=None,
    columnar: bool = False,
) -> Optional[Schedule]:
    """Turn a shelf-1 selection into a feasible schedule of length ``<= 3d/2``.

    Parameters
    ----------
    jobs:
        All jobs of the instance (small jobs are re-inserted at the end).
    m:
        Number of machines.
    d:
        Target makespan of the dual step; shelf heights are ``d`` and ``d/2``
        and the result has makespan at most ``3d/2``.
    shelf1_jobs:
        Big jobs placed in shelf S1 (any small members are ignored, as in
        Corollary 10).
    transform:
        ``"heap"`` (Section 4.3, exact processing times in a heap) or
        ``"bucket"`` (Section 4.3.3, processing times bucketed geometrically —
        the linear-time variant).  The produced schedules are feasible either
        way; the flag only changes the data structure used to find piggyback
        partners.
    bucket_ratio:
        Geometric ratio of the buckets for ``transform="bucket"``; defaults to
        ``1.05``.
    gamma_fn:
        Optional γ-oracle with the signature of
        :func:`repro.core.allotment.gamma`; the vectorized drivers pass a
        :class:`repro.perf.oracle.BatchedOracle` so every γ-lookup of the
        construction is answered from a batched per-threshold cache.
    columnar:
        Collect placements as flat columns and materialize the ``Schedule``
        in one batched pass (the vectorized drivers' fast path; bit-identical
        schedule) instead of per-placement ``Schedule.add`` calls.

    Returns ``None`` when the selection violates the Lemma 6 work bound, shelf
    S1 does not fit, or (defensively) the construction cannot complete — the
    caller should then reject the target ``d``.
    """
    if transform not in ("heap", "bucket"):
        raise ValueError(f"unknown transform {transform!r}")
    if gamma_fn is None:
        gamma_fn = gamma
    diag = diagnostics if diagnostics is not None else ThreeShelfDiagnostics(d=d, m=m)
    diag.d = d
    diag.m = m

    two_shelf = build_two_shelf_schedule(jobs, m, d, shelf1_jobs, gamma_fn=gamma_fn)
    if two_shelf is None:
        diag.rejected_reason = "a big job cannot meet its shelf height on m machines"
        return None
    small = two_shelf.small
    diag.small_jobs = len(small)
    diag.two_shelf_feasible = two_shelf.is_feasible

    if two_shelf.shelf1_processors > m:
        diag.rejected_reason = "shelf S1 needs more than m processors"
        return None
    if not _leq(two_shelf.total_work, two_shelf.work_bound()):
        diag.rejected_reason = "total work exceeds m*d - W_S(d)"
        return None

    half = d / 2.0
    three_half = 1.5 * d
    three_quarter = 0.75 * d

    s1_alloc: Dict[MoldableJob, int] = dict(two_shelf.shelf1)
    s2_alloc: Dict[MoldableJob, int] = dict(two_shelf.shelf2)
    s0_entries: List[_S0Entry] = []
    piggyback: List[Tuple[MoldableJob, MoldableJob]] = []  # (host in S1, rider)
    cat2_pending: Optional[MoldableJob] = None

    def _time_in_s1(job: MoldableJob) -> float:
        return job.processing_time(s1_alloc[job])

    # ---------------------------------------------------------------- rules
    def apply_rules_i_ii(job: MoldableJob, procs: int) -> None:
        """Apply rules (i)/(ii) to a job destined for S1 with `procs` procs.

        Leaves the job either in S0 (entry appended), paired in S0, pending as
        the unpaired 1-processor job, or in S1.
        """
        nonlocal cat2_pending
        t = job.processing_time(procs)
        if _leq(t, three_quarter) and procs > 1:
            # rule (i): give up one processor, run alongside S1+S2
            s0_entries.append(_S0Entry(procs - 1, [(job, procs - 1, 0.0)]))
        elif _leq(t, three_quarter) and procs == 1:
            # rule (ii): pair 1-processor jobs of height <= 3d/4
            if cat2_pending is None:
                cat2_pending = job
                s1_alloc[job] = 1
            else:
                partner = cat2_pending
                cat2_pending = None
                s1_alloc.pop(partner, None)
                t_partner = partner.processing_time(1)
                s0_entries.append(_S0Entry(1, [(partner, 1, 0.0), (job, 1, t_partner)]))
        else:
            s1_alloc[job] = procs

    # Step A: scan shelf S1
    for job in list(s1_alloc.keys()):
        procs = s1_alloc.pop(job)
        apply_rules_i_ii(job, procs)

    # Step B: rule (iii) — pull S2 jobs alongside while processors are free
    def current_p0() -> int:
        return sum(e.procs for e in s0_entries) + len(piggyback)

    def current_p1() -> int:
        return sum(s1_alloc.values()) - len(piggyback)

    move_heap: List[Tuple[int, int, MoldableJob]] = []
    for idx, job in enumerate(s2_alloc.keys()):
        g = gamma_fn(job, three_half, m)
        # S2 jobs satisfy t_j(m) <= d/2 <= 3d/2, so g is always defined.
        if g is None:
            raise RuntimeError(
                f"job {job.name!r} in S2 cannot meet 3d/2={three_half!r} on m={m} machines"
            )
        move_heap.append((g, idx, job))
    heapq.heapify(move_heap)

    while move_heap:
        q = m - current_p0() - current_p1()
        need, _, job = move_heap[0]
        if need > q:
            break
        heapq.heappop(move_heap)
        if job not in s2_alloc:
            continue
        del s2_alloc[job]
        diag.moved_from_shelf2 += 1
        t = job.processing_time(need)
        if t > d:
            # runs alongside both shelves for up to 3d/2
            s0_entries.append(_S0Entry(need, [(job, need, 0.0)]))
        else:
            apply_rules_i_ii(job, need)

    # Resolve the unpaired category-2 job via the special case of rule (ii):
    # pair it on top of a tall 1-shelf job if their heights fit into 3d/2.
    if cat2_pending is not None:
        rider = cat2_pending
        rider_time = rider.processing_time(1)
        hosts = [j for j in s1_alloc if j is not rider and _time_in_s1(j) > three_quarter]
        host: Optional[MoldableJob] = None
        if hosts:
            if transform == "bucket":
                ratio = bucket_ratio if bucket_ratio is not None else 1.05
                # bucket hosts by geometrically rounded height and scan buckets
                # from the shortest upward (Section 4.3.3)
                buckets: Dict[int, List[MoldableJob]] = {}
                for j in hosts:
                    level = int(math.floor(math.log(max(_time_in_s1(j) / (d / 2.0), 1.0)) / math.log(ratio)))
                    buckets.setdefault(level, []).append(j)
                for level in sorted(buckets):
                    candidate = min(buckets[level], key=_time_in_s1)
                    if _leq(rider_time + _time_in_s1(candidate), three_half):
                        host = candidate
                        break
            else:
                candidate = min(hosts, key=_time_in_s1)
                if _leq(rider_time + _time_in_s1(candidate), three_half):
                    host = candidate
        if host is not None:
            piggyback.append((host, rider))
            s1_alloc.pop(rider, None)
            cat2_pending = None
            diag.piggybacked_jobs += 1
        else:
            # stays in S1 on one processor
            cat2_pending = None

    # ------------------------------------------------------- machine layout
    diag.shelf0_processors = current_p0()
    diag.shelf1_processors = sum(s1_alloc.values())
    diag.shelf2_processors = sum(s2_alloc.values())
    diag.shelf0_jobs = sum(len(e.placements) for e in s0_entries) + len(piggyback)
    diag.shelf1_jobs = len(s1_alloc)
    diag.shelf2_jobs = len(s2_alloc)

    if current_p0() + current_p1() > m:
        diag.rejected_reason = "shelves S0+S1 exceed m processors after transformation"
        return None

    assembler = _ScheduleAssembler(m, {"construction": "three_shelf", "d": d}, columnar)
    next_machine = 0

    def take(count: int) -> MachineSpan:
        nonlocal next_machine
        if next_machine + count > m:
            raise _LayoutOverflow()
        span = (next_machine, count)
        next_machine += count
        return span

    class _LayoutOverflow(Exception):
        pass

    riders_by_host: Dict[MoldableJob, MoldableJob] = {host: rider for host, rider in piggyback}

    try:
        # Shelf S0 columns
        for entry in s0_entries:
            span = take(entry.procs)
            for job, procs, start in entry.placements:
                assembler.add(job, start, [(span[0], procs)], job.processing_time(procs))

        # Shelf S1 jobs (including piggyback hosts)
        s1_spans: List[Tuple[MoldableJob, MachineSpan, float]] = []  # (job, span of *reusable* machines, busy_until)
        for job, procs in s1_alloc.items():
            span = take(procs)
            t = job.processing_time(procs)
            assembler.add(job, 0.0, [span], t)
            rider = riders_by_host.get(job)
            if rider is not None:
                # one machine of the host also runs the rider afterwards
                rider_time = rider.processing_time(1)
                assembler.add(rider, t, [(span[0], 1)], rider_time)
                if procs > 1:
                    s1_spans.append((job, (span[0] + 1, procs - 1), t))
            else:
                s1_spans.append((job, span, t))

        # Shelf S2 jobs — placed on machines *not* used by S0/piggyback,
        # finishing exactly at 3d/2.
        free_pool: List[Tuple[MachineSpan, float]] = [(span, busy) for _, span, busy in s1_spans]
        if next_machine < m:
            free_pool.append(((next_machine, m - next_machine), 0.0))
            next_machine = m
        pool_idx = 0
        for job, procs in s2_alloc.items():
            needed = procs
            spans: List[MachineSpan] = []
            while needed > 0:
                if pool_idx >= len(free_pool):
                    raise _LayoutOverflow()
                (first, count), busy = free_pool[pool_idx]
                taken = min(count, needed)
                spans.append((first, taken))
                if taken < count:
                    free_pool[pool_idx] = ((first + taken, count - taken), busy)
                else:
                    pool_idx += 1
                needed -= taken
            t = job.processing_time(procs)
            start = three_half - t
            assembler.add(job, start, spans, t)
    except _LayoutOverflow:
        diag.rejected_reason = "machine layout overflow (construction could not fit all shelves)"
        return None

    # ------------------------------------------------- small-job insertion
    # Next-fit over machine groups (Lemma 9): within a group all machines have
    # the same gap; a machine that cannot take the current job is discarded.
    small_ok = _insert_small_jobs(assembler, small, three_half)
    if not small_ok:
        diag.rejected_reason = "small jobs did not fit (work bound violated)"
        return None

    schedule = assembler.finish()
    schedule.metadata["shelves"] = {
        "s0_processors": diag.shelf0_processors,
        "s1_processors": diag.shelf1_processors,
        "s2_processors": diag.shelf2_processors,
    }
    return schedule


def _insert_small_jobs(
    assembler: _ScheduleAssembler,
    small: Sequence[MoldableJob],
    horizon: float,
) -> bool:
    """Next-fit insertion of the small jobs into per-machine gaps (Lemma 9).

    The gaps are recovered from the assembler's busy pieces with
    :func:`_machine_gap_index`: each maximal range of machines with identical
    occupancy forms a *group* whose machines share the same contiguous free
    gap.  The next-fit rule of the paper is followed literally: the current
    job goes onto the current machine if it still fits, otherwise the machine
    is discarded and the next machine of the group (or the next group) is
    tried; machines are never revisited.
    """
    if not small:
        return True
    # Recover, for every machine that appears in the assembly, its busy
    # intervals; machines not appearing are entirely free.  We avoid iterating
    # over all m machines by working span-wise.
    gaps = _machine_gap_index(assembler.pieces, assembler.m, horizon)
    # next-fit over the recovered gap groups
    idx = 0
    fill: Optional[float] = None
    span_offset = 0
    for job in small:
        t = job.processing_time(1)
        placed = False
        while idx < len(gaps):
            (first, count), gap_start, gap_end = gaps[idx]
            if fill is None:
                fill = gap_start
            if span_offset >= count:
                idx += 1
                span_offset = 0
                fill = None
                continue
            machine = first + span_offset
            if _leq(fill + t, gap_end):
                assembler.add(job, fill, [(machine, 1)], t)
                fill = fill + t
                placed = True
                break
            # discard this machine, move to the next in the group
            span_offset += 1
            fill = None
        if not placed:
            return False
    return True


def _machine_gap_index(
    busy_pieces: Sequence[Tuple[int, int, float, float]],
    m: int,
    horizon: float,
) -> List[Tuple[MachineSpan, float, float]]:
    """Compute contiguous free gaps ``(span, gap_start, gap_end)`` per group of
    identical machines.

    ``busy_pieces`` are ``(machine_first, machine_end, start, finish)``
    rectangles (one per placed span).  The shelf constructions guarantee each
    machine's busy time is a prefix ``[0, x)`` plus possibly a suffix
    ``[horizon - y, horizon)``; the gap is the middle.  We build the index by
    sweeping span boundaries.
    """
    boundaries: set[int] = {0, m}
    for first, end, _, _ in busy_pieces:
        boundaries.add(first)
        boundaries.add(end)
    cuts = sorted(boundaries)
    # For each elementary machine range, compute the union of busy intervals.
    pieces: List[Tuple[int, int, float, float]] = sorted(busy_pieces, key=lambda p: p[0])

    result: List[Tuple[MachineSpan, float, float]] = []
    active: List[Tuple[int, float, float]] = []  # (machine_end, start, finish)
    pi = 0
    for ci in range(len(cuts) - 1):
        seg_start, seg_end = cuts[ci], cuts[ci + 1]
        if seg_end <= seg_start:
            continue
        while pi < len(pieces) and pieces[pi][0] <= seg_start:
            active.append((pieces[pi][1], pieces[pi][2], pieces[pi][3]))
            pi += 1
        active = [a for a in active if a[0] > seg_start]
        busy = sorted((s, f) for _, s, f in active)
        # merge the prefix chain starting at time 0 to find the gap start,
        # then the gap ends at the first busy interval after the prefix.
        gap_start = 0.0
        gap_end = horizon
        for s, f in busy:
            if s <= gap_start + _ABS:
                gap_start = max(gap_start, f)
            else:
                gap_end = min(gap_end, s)
        if gap_end < gap_start:
            gap_end = gap_start
        result.append(((seg_start, seg_end - seg_start), gap_start, gap_end))
    return result
