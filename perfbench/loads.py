"""The four benchmark workloads: seeded inputs, the entry-point call and its
output check.

Input ``i`` of a workload is a pure function of ``(--seed, i)``: its size
comes from a fixed design (:func:`grid`, cycled), and every job parameter
and release time is drawn from ``numpy.random.default_rng([seed, i])``.  The
first ``pool_size`` inputs, made during set-up, are the fixed set the
quality metric and the traced passes use.  The timed loop walks
``i = 0, 1, 2, ...`` and meets a fresh instance on every call, except on
``fleet``, which cycles its pool: a fleet call costs mostly worker start-up,
and checking a fresh fleet against in-process solves would cost more than
the call.  A workload exposes:

* ``call(item)`` -- exactly one public entry-point call, the unit timed;
* ``check(item, out)`` -- the output checks, run outside the timed region;
  returns ``(attempted, failed, ratio, notes)``;
* ``jobs(item)`` -- the number of jobs the call schedules.

Only public names of :mod:`repro` are called.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import (
    FleetInstance,
    OnlineScheduler,
    ServePolicy,
    schedule_many,
    schedule_moldable,
    solve_mega,
)
from repro.core.validation import validate_schedule
from repro.workloads import generators as gen

EPS = 0.1
#: slack on the release check, the same as the online scheduler's epoch tolerance
RELEASE_TOL = 1e-9

OFFLINE_FAMILIES = (
    gen.random_mixed_instance,
    gen.random_quantized_instance,
    gen.random_chain_instance,
    gen.random_bimodal_instance,
    gen.random_power_work_instance,
    gen.random_communication_instance,
)
ONLINE_BASES = ("mixed", "chain", "bimodal", "power_work")
FLEET_FAMILIES = (
    gen.random_mixed_instance,
    gen.random_quantized_instance,
    gen.random_chain_instance,
    gen.random_bimodal_instance,
)
FLEET_SIZE = 32
MEGA_BATCH = 8
#: two worker processes, never more than the cores this process may use
FLEET_WORKERS = min(2, len(os.sched_getaffinity(0)))
ONLINE_M = 2**14


def grid(count: int, stride: int = 1) -> np.ndarray:
    """Midpoints of ``count`` equal strata of ``[0, 1)``, visited with
    ``stride`` (coprime to ``count``) so two grids pair up like a Latin
    square.  Sizes come from this fixed design and only the job parameters
    from the seed: what varies from seed to seed is then the instances, not
    how many large ones were drawn."""
    return ((np.arange(count) * stride) % count + 0.5) / count


@dataclass
class Workload:
    name: str
    make: Callable[[int], Any]
    call: Callable[[Any], Any]
    check: Callable[[Any, Any], Tuple[int, int, float, List[str]]]
    jobs: Callable[[Any], int]
    pool_size: int
    cycle: bool = False
    pool: List[Any] = field(init=False)

    def __post_init__(self) -> None:
        self.pool = [self.make(i) for i in range(self.pool_size)]

    def item(self, i: int):
        if i < self.pool_size or self.cycle:
            return self.pool[i % self.pool_size]
        return self.make(i)


# ---------------------------------------------------------------- offline


@dataclass
class OfflineItem:
    index: int
    jobs: list
    m: int


#: offline size design: n from one grid, m from another paired with it
OFFLINE_DESIGN = 48


def _offline_maker(seed: int, n_range, log2_m: Callable[[int, float], float]):
    un, um = grid(OFFLINE_DESIGN), grid(OFFLINE_DESIGN, 29)

    def make(i: int) -> OfflineItem:
        d = i % OFFLINE_DESIGN
        n = int(n_range[0] + un[d] * (n_range[1] - n_range[0] + 1))
        m = int(2.0 ** log2_m(n, float(um[d])))
        rng = np.random.default_rng([seed, i])
        inst = OFFLINE_FAMILIES[d % len(OFFLINE_FAMILIES)](n, m, seed=rng)
        return OfflineItem(i, inst.jobs, m)

    return make


def _offline_call(item: OfflineItem):
    return schedule_moldable(item.jobs, item.m, EPS)


def _offline_check(expected_algorithm: str):
    def check(item: OfflineItem, result) -> Tuple[int, int, float, List[str]]:
        notes = []
        report = validate_schedule(result.schedule, item.jobs)
        if not report.ok:
            notes.append(f"item {item.index}: invalid schedule: {report.violations[:3]}")
        if result.algorithm != expected_algorithm:
            notes.append(f"item {item.index}: auto chose {result.algorithm}, not {expected_algorithm}")
        ratio = result.certified_ratio
        if not (math.isfinite(ratio) and ratio >= 1.0 - 1e-9):
            notes.append(f"item {item.index}: certified ratio {ratio} below 1")
        return 1, int(bool(notes)), ratio, notes

    return check


def offline_dense(seed: int) -> Workload:
    # m log-uniform in [16, 8n/eps): auto picks the bounded (3/2+eps) algorithm
    make = _offline_maker(seed, (100, 300), lambda n, u: 4.0 + u * (math.log2(8 * n / EPS - 1) - 4.0))
    return Workload(
        "offline_dense", make, _offline_call, _offline_check("bounded"), lambda it: len(it.jobs), OFFLINE_DESIGN
    )


def offline_compact(seed: int) -> Workload:
    # m log-uniform in [2^20, 2^60): auto picks the FPTAS
    make = _offline_maker(seed, (200, 1000), lambda n, u: 20.0 + 40.0 * u)
    return Workload(
        "offline_compact", make, _offline_call, _offline_check("fptas"), lambda it: len(it.jobs), OFFLINE_DESIGN
    )


# ----------------------------------------------------------------- online


@dataclass
class OnlineItem:
    index: int
    arrivals: list


ONLINE_DESIGN = 64


def _online_call(item: OnlineItem):
    return OnlineScheduler(m=ONLINE_M, eps=EPS).run(item.arrivals)


def _online_check(item: OnlineItem, result) -> Tuple[int, int, float, List[str]]:
    notes = []
    jobs = [job for job, _ in item.arrivals]
    report = validate_schedule(result.schedule, jobs)
    if not report.ok:
        notes.append(f"stream {item.index}: invalid schedule: {report.violations[:3]}")
    release = {id(job): r for job, r in item.arrivals}
    for entry in result.schedule.entries:
        if entry.start < release[id(entry.job)] - RELEASE_TOL:
            notes.append(
                f"stream {item.index}: {entry.job.name} starts at {entry.start} "
                f"before its release {release[id(entry.job)]}"
            )
            break
    ratio = result.report.ratio_vs_lower_bound
    if not (math.isfinite(ratio) and ratio >= 1.0 - 1e-9):
        notes.append(f"stream {item.index}: ratio vs lower bound {ratio} below 1")
    return 1, int(bool(notes)), ratio, notes


def online(seed: int) -> Workload:
    un = grid(ONLINE_DESIGN, 13)

    def make(i: int) -> OnlineItem:
        d = i % ONLINE_DESIGN
        n = int(20 + un[d] * 11)  # 20..30 jobs per stream
        inst = gen.random_arrivals_instance(
            n, ONLINE_M, seed=np.random.default_rng([seed, i]), base=ONLINE_BASES[d % len(ONLINE_BASES)]
        )
        return OnlineItem(i, inst.arrivals)

    return Workload("online", make, _online_call, _online_check, lambda it: len(it.arrivals), ONLINE_DESIGN)


# ------------------------------------------------------------------ fleet


@dataclass
class FleetItem:
    index: int
    instances: List[FleetInstance]
    reference: Optional[List[float]] = None  # in-process makespans


FLEET_POLICY = ServePolicy(mega_batch_size=MEGA_BATCH)
FLEET_POOL = 4


def _fleet_call(item: FleetItem):
    return schedule_many(
        item.instances, algorithm="two_approx", policy=FLEET_POLICY, max_workers=FLEET_WORKERS
    )


def fleet_reference(item: FleetItem) -> List[float]:
    """Makespans of in-process solo solves of the fleet's instances."""
    if item.reference is None:
        item.reference = [
            schedule_moldable(inst.jobs, inst.m, EPS, algorithm="two_approx").makespan
            for inst in item.instances
        ]
    return item.reference


def fleet_packs(item: FleetItem) -> List[list]:
    """The fleet split into the mega-batch packs the serving policy forms."""
    return [item.instances[i : i + MEGA_BATCH] for i in range(0, len(item.instances), MEGA_BATCH)]


def _fleet_check(item: FleetItem, report) -> Tuple[int, int, float, List[str]]:
    notes = []
    failed = 0
    ratios = []
    reference = fleet_reference(item)
    if not report.complete or len(report.outcomes) != len(item.instances):
        notes.append(f"fleet {item.index}: incomplete report")
    for inst, ref, outcome in zip(item.instances, reference, report.outcomes):
        bad = None
        if outcome.instance != inst.name:
            bad = f"outcome {outcome.instance} out of order"
        elif outcome.status != "solved":
            bad = f"status {outcome.status}: {outcome.error}"
        elif outcome.makespan != ref:
            bad = f"makespan {outcome.makespan!r} != in-process {ref!r}"
        else:
            verdict = validate_schedule(outcome.schedule(inst.jobs, validate=False), inst.jobs)
            if not verdict.ok:
                bad = f"invalid schedule: {verdict.violations[:3]}"
            elif not math.isfinite(outcome.certified_ratio):
                bad = "non-finite certified ratio"
        if bad is not None:
            failed += 1
            notes.append(f"fleet {item.index}/{inst.name}: {bad}")
        else:
            ratios.append(outcome.certified_ratio)
    failed = max(failed, 1 if notes else 0)
    ratio = float(np.mean(ratios)) if ratios else float("nan")
    return len(item.instances), failed, ratio, notes


def fleet(seed: int) -> Workload:
    def make(f: int) -> FleetItem:
        # the same size design in every fleet, so each carries about the
        # same total work
        un, um = grid(FLEET_SIZE, 5 + 2 * (f % 4)), grid(FLEET_SIZE, 13 + 2 * (f % 4))
        rng = np.random.default_rng([seed, f])
        instances = []
        for i in range(FLEET_SIZE):
            n = int(60 + un[i] * 141)  # 60..200 jobs
            m = int(2.0 ** (6.0 + 5.0 * um[i]))  # 64..2047 machines
            inst = FLEET_FAMILIES[i % len(FLEET_FAMILIES)](n, m, seed=rng)
            instances.append(FleetInstance(f"f{f}-{i}", inst.jobs, m, EPS, "two_approx"))
        return FleetItem(f, instances)

    return Workload(
        "fleet", make, _fleet_call, _fleet_check, lambda it: sum(len(x.jobs) for x in it.instances), FLEET_POOL,
        cycle=True,
    )


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "offline_dense": offline_dense,
    "offline_compact": offline_compact,
    "online": online,
    "fleet": fleet,
}


def warm_up(load: Workload) -> None:
    """One untimed call on the first input.  For ``fleet`` it is an
    in-process :func:`solve_mega` of the first pack: worker start-up is paid
    by every ``schedule_many`` call, so it belongs to the timed calls."""
    item = load.pool[0]
    if load.name == "fleet":
        solve_mega(fleet_packs(item)[0], EPS, algorithm="two_approx")
    else:
        load.call(item)
