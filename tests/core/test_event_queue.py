"""Event-epoch grouping semantics of the batched event-queue list scheduler.

The scalar heap loop groups completions within :func:`epoch_tolerance` of
the earliest pending completion into one wake-up — ``max(1e-15 absolute,
two ulp relative)``, so grouping keeps working at magnitudes where float64
resolution has outgrown the historical absolute ``1e-15`` — and the
event-queue backends must reproduce that grouping *exactly*: near-tie
floats just past the window (at every magnitude) must NOT merge epochs,
ties inside it MUST, and the tolerance window is anchored at the earliest
completion only (no chaining), following the PR-3 near-tie sweep
conventions of pinning both sides of every tolerance boundary.

All pins assert *both* the epoch instrumentation and bit-identity of the
resulting schedule against the heap reference, so a grouping regression
cannot hide behind a still-identical schedule or vice versa.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allotment import Allotment
from repro.core.job import TabulatedJob
from repro.core.list_scheduling import (
    EPOCH_REL_TOLERANCE,
    EPOCH_TOLERANCE,
    LIST_BACKENDS,
    epoch_tolerance,
    list_schedule,
)
from repro.core.schedule import MAX_COLUMNAR_M
from repro.core.validation import validate_schedule

ULP16 = np.nextafter(16.0, 32.0) - 16.0  # 3.55e-15 > EPOCH_TOLERANCE
ULP1 = np.nextafter(1.0, 2.0) - 1.0  # 2.22e-16 < EPOCH_TOLERANCE
M20 = 2.0 ** 20  # a magnitude where one ulp dwarfs the old absolute 1e-15
ULP20 = np.nextafter(M20, 2 * M20) - M20  # 2^-32 ~ 2.33e-10


def _jobs_with_durations(durations, need=1):
    """One TabulatedJob per duration, constant table at its allotted need."""
    jobs = [
        TabulatedJob(f"j{i}", [float(d)] * need) for i, d in enumerate(durations)
    ]
    allot = Allotment({job: need for job in jobs})
    return jobs, allot


def _assert_identical(a, b, ctx=""):
    assert a.m == b.m and len(a) == len(b), ctx
    assert [j.name for j in a.jobs()] == [j.name for j in b.jobs()], ctx
    if len(a) == 0:
        return
    ca, cb = a.columns(), b.columns()
    for f in ("start", "processors", "duration", "span_owner", "span_first", "span_end"):
        assert np.array_equal(getattr(ca, f), getattr(cb, f)), (ctx, f)


def _run(jobs, allot, m, backend="event_queue", **kw):
    stats = {}
    schedule = list_schedule(jobs, allot, m, backend=backend, stats=stats, **kw)
    return schedule, stats


class TestEpochGroupingPins:
    def test_identical_times_merge_into_one_epoch(self):
        jobs, allot = _jobs_with_durations([16.0, 16.0, 16.0, 16.0])
        schedule, stats = _run(jobs, allot, 4)
        assert stats["epochs"] == 1
        assert stats["events"] == 4
        assert stats["max_epoch_completions"] == 4
        _assert_identical(list_schedule(jobs, allot, 4, backend="heap"), schedule)

    def test_three_ulp_apart_at_16_does_not_merge(self):
        """At magnitude 16 the relative window is exactly two ulp
        (16 * 2^-51 = 2 * 2^-48): a three-ulp separation sits outside it, so
        the two completions are distinct epochs, exactly as the heap pops
        them."""
        assert ULP16 > EPOCH_TOLERANCE  # the absolute floor alone would split even 1 ulp
        assert 3 * ULP16 > epoch_tolerance(16.0)
        jobs, allot = _jobs_with_durations([16.0, 16.0 + 3 * ULP16])
        schedule, stats = _run(jobs, allot, 2)
        assert stats["epochs"] == 2
        assert stats["max_epoch_completions"] == 1
        _assert_identical(list_schedule(jobs, allot, 2, backend="heap"), schedule)

    def test_two_ulp_apart_at_16_merges(self):
        """Both sides of the relative boundary at magnitude 16: two ulp is
        *exactly* the window (16 * EPOCH_REL_TOLERANCE == 2 ulp, and the
        grouping comparison is inclusive), so the completions share one
        epoch — under the old absolute-only 1e-15 tolerance they were
        (wrongly) split, degrading grouping to exact-ties-only past
        magnitude ~1."""
        assert 2 * ULP16 == epoch_tolerance(16.0) > EPOCH_TOLERANCE
        jobs, allot = _jobs_with_durations([16.0, 16.0 + 2 * ULP16])
        schedule, stats = _run(jobs, allot, 2)
        assert stats["epochs"] == 1
        assert stats["max_epoch_completions"] == 2
        _assert_identical(list_schedule(jobs, allot, 2, backend="heap"), schedule)

    def test_relative_window_scales_to_large_magnitudes(self):
        """At magnitude 2^20 the window is 2^20 * 2^-51 = still exactly two
        ulp (the relative tolerance is scale-free at power-of-two anchors):
        a two-ulp separation merges, three ulp does not — pinned on both
        sides (the absolute 1e-15 floor is five orders of magnitude below
        one ulp here, so only the relative term can group anything)."""
        assert ULP20 > 100.0 * EPOCH_TOLERANCE
        assert 2 * ULP20 == epoch_tolerance(M20)
        jobs, allot = _jobs_with_durations([M20, M20 + 2 * ULP20])
        schedule, stats = _run(jobs, allot, 2)
        assert stats["epochs"] == 1
        assert stats["max_epoch_completions"] == 2
        _assert_identical(list_schedule(jobs, allot, 2, backend="heap"), schedule)

        jobs, allot = _jobs_with_durations([M20, M20 + 3 * ULP20])
        schedule, stats = _run(jobs, allot, 2)
        assert stats["epochs"] == 2
        assert stats["max_epoch_completions"] == 1
        _assert_identical(list_schedule(jobs, allot, 2, backend="heap"), schedule)

    def test_relative_window_is_capped_at_magnitude_2_60(self):
        """Above 2^60 the relative term stops growing: the window anchors at
        2^60 * 2^-51 = 512.  Without the cap the window at magnitude 2^62
        would be 2048 — *four* ulp there (ulp = 1024), fusing floats that are
        two representable values apart into one epoch.  Pinned on both sides:
        one ulp (1024) at 2^62 stays split, exact ties still merge."""
        from repro.core.list_scheduling import EPOCH_REL_MAGNITUDE_CAP

        m62 = 2.0 ** 62
        ulp62 = float(np.spacing(m62))
        assert ulp62 == 1024.0
        assert epoch_tolerance(m62) == EPOCH_REL_MAGNITUDE_CAP * EPOCH_REL_TOLERANCE == 512.0
        assert epoch_tolerance(m62) < ulp62  # the uncapped window (2048) was not

        jobs, allot = _jobs_with_durations([m62, m62 + ulp62])
        schedule, stats = _run(jobs, allot, 2)
        assert stats["epochs"] == 2
        _assert_identical(list_schedule(jobs, allot, 2, backend="heap"), schedule)

        jobs, allot = _jobs_with_durations([m62, m62])
        schedule, stats = _run(jobs, allot, 2)
        assert stats["epochs"] == 1
        _assert_identical(list_schedule(jobs, allot, 2, backend="heap"), schedule)

    def test_two_ulp_still_merges_at_the_cap_anchor(self):
        """At the 2^60 anchor itself the window is exactly two ulp (2^60 *
        2^-51 = 2 * 2^9 = 512 with ulp 256): two ulp merges, three does not —
        the historical two-ulp semantics hold right up to the cap."""
        m60 = 2.0 ** 60
        ulp60 = float(np.spacing(m60))
        assert epoch_tolerance(m60) == 2 * ulp60

        jobs, allot = _jobs_with_durations([m60, m60 + 2 * ulp60])
        schedule, stats = _run(jobs, allot, 2)
        assert stats["epochs"] == 1
        _assert_identical(list_schedule(jobs, allot, 2, backend="heap"), schedule)

        jobs, allot = _jobs_with_durations([m60, m60 + 3 * ulp60])
        schedule, stats = _run(jobs, allot, 2)
        assert stats["epochs"] == 2
        _assert_identical(list_schedule(jobs, allot, 2, backend="heap"), schedule)

    def test_absolute_floor_governs_below_magnitude_two(self):
        """Below EPOCH_TOLERANCE / EPOCH_REL_TOLERANCE (~2.25) the absolute
        1e-15 floor is the window — the historical semantics are unchanged
        there (see the magnitude-1 pins): four ulp of 1.0 (8.9e-16) still
        merges although it exceeds the relative term."""
        assert epoch_tolerance(1.0) == EPOCH_TOLERANCE > 1.0 * EPOCH_REL_TOLERANCE
        assert 4 * ULP1 > 1.0 * EPOCH_REL_TOLERANCE
        jobs, allot = _jobs_with_durations([1.0, 1.0 + 4 * ULP1])
        schedule, stats = _run(jobs, allot, 2)
        assert stats["epochs"] == 1
        _assert_identical(list_schedule(jobs, allot, 2, backend="heap"), schedule)

    def test_one_ulp_apart_below_tolerance_merges(self):
        """At magnitude 1 one ulp (2.2e-16) sits inside the tolerance: the
        scalar loop pops both completions in one wake-up, so must the
        event queue."""
        assert ULP1 < EPOCH_TOLERANCE
        jobs, allot = _jobs_with_durations([1.0, 1.0 + ULP1])
        schedule, stats = _run(jobs, allot, 2)
        assert stats["epochs"] == 1
        assert stats["max_epoch_completions"] == 2
        _assert_identical(list_schedule(jobs, allot, 2, backend="heap"), schedule)

    def test_tolerance_window_is_anchored_not_chained(self):
        """Three completions at 1.0, 1.0+4u, 1.0+8u: the window is anchored
        at the earliest end (1.0 + 1e-15), so the third event stays out even
        though it is within tolerance of the second — the scalar loop fixes
        ``now`` once per wake-up and so does the epoch partition."""
        e1, e2, e3 = 1.0, 1.0 + 4 * ULP1, 1.0 + 8 * ULP1
        assert e2 - e1 <= EPOCH_TOLERANCE < e3 - e1
        assert e3 - e2 <= EPOCH_TOLERANCE
        jobs, allot = _jobs_with_durations([e1, e2, e3])
        schedule, stats = _run(jobs, allot, 3)
        assert stats["epochs"] == 2
        assert stats["max_epoch_completions"] == 2
        _assert_identical(list_schedule(jobs, allot, 3, backend="heap"), schedule)

    def test_epoch_wakeup_starts_all_fitting_jobs_at_once(self):
        """A merged epoch's released machines admit the whole next wave in
        one admission scan (same schedule as the heap, one epoch fewer than
        the no-tie case would need)."""
        # wave 1: four unit jobs finishing together; wave 2: four more
        jobs, allot = _jobs_with_durations([2.0] * 4 + [4.0] * 4)
        schedule, stats = _run(jobs, allot, 4)
        # epoch at t=2 (wave 1 done, wave 2 starts), epoch at t=6
        assert stats["epochs"] == 2
        assert stats["max_epoch_completions"] == 4
        heap = list_schedule(jobs, allot, 4, backend="heap")
        _assert_identical(heap, schedule)
        assert schedule.makespan == 6.0


class TestMultiSpanLeftovers:
    def test_leftover_fragments_reassemble_across_spans(self):
        """A wide job started in a simultaneous-completion epoch from
        scattered (non-adjacent) leftover fragments gets the same multi-span
        placement as the heap loop."""
        x = TabulatedJob("x", [10.0])
        y = TabulatedJob("y", [2.0])
        z = TabulatedJob("z", [10.0])
        w = TabulatedJob("w", [2.0])
        v = TabulatedJob("v", [6.0, 6.0])
        jobs = [x, y, z, w, v]
        allot = Allotment({x: 1, y: 1, z: 1, w: 1, v: 2})
        schedule, stats = _run(jobs, allot, 4)
        heap = list_schedule(jobs, allot, 4, backend="heap")
        _assert_identical(heap, schedule)
        # y and w complete in one epoch; v reuses their non-adjacent machines
        assert stats["max_epoch_completions"] == 2
        entry = schedule.entry_for(v)
        assert entry.spans == ((1, 1), (3, 1))
        assert validate_schedule(schedule, jobs).ok

    def test_large_epoch_batch_path_matches_heap(self):
        """More admitted jobs than the small-epoch threshold forces the
        vectorized cumsum span partition; a prime machine count leaves a
        ragged tail so span splits land mid-span."""
        jobs, allot = _jobs_with_durations([8.0] * 120 + [2.0] * 120)
        schedule, stats = _run(jobs, allot, 97)
        heap = list_schedule(jobs, allot, 97, backend="heap")
        _assert_identical(heap, schedule)
        assert stats["max_epoch_completions"] >= 90


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        jobs, allot = _jobs_with_durations([1.0])
        with pytest.raises(ValueError, match="unknown list scheduling backend"):
            list_schedule(jobs, allot, 1, backend="quantum")

    def test_backends_registry(self):
        assert LIST_BACKENDS == (
            "heap",
            "event_queue",
            "event_queue_indexed",
        )

    @pytest.mark.parametrize("backend", ["event_queue", "event_queue_indexed"])
    def test_astronomical_m_runs_natively(self, backend):
        """Machine counts beyond the int64 span range used to divert to the
        scalar heap; the wide-limb capacity tier now keeps every columnar
        backend vectorized, bit-identical to the heap reference."""
        m = MAX_COLUMNAR_M * 4
        jobs = [TabulatedJob("big", [3.0, 3.0]), TabulatedJob("small", [5.0])]
        allot = Allotment({jobs[0]: m - 1, jobs[1]: 1})
        stats = {}
        schedule = list_schedule(jobs, allot, m, backend=backend, stats=stats)
        assert schedule.makespan == 5.0
        assert "epochs" in stats  # the event queue ran, no heap fallback
        assert stats["capacity_tier"] == "wide"
        _assert_identical(list_schedule(jobs, allot, m, backend="heap"), schedule)

    @pytest.mark.parametrize("backend", ["event_queue", "event_queue_indexed"])
    def test_huge_total_need_runs_natively(self, backend):
        """Needs whose prefix sums overflow int64 (regression: 40 jobs of
        2^61 processors on m = 2^62 crashed the batched admission path) now
        promote to the wide tier instead of diverting to the heap."""
        m = MAX_COLUMNAR_M
        need = 1 << 61
        jobs = [TabulatedJob(f"h{i}", [10.0]) for i in range(40)]
        allot = Allotment({j: need for j in jobs})
        stats = {}
        schedule = list_schedule(jobs, allot, m, backend=backend, stats=stats)
        assert schedule.makespan == 200.0
        assert "epochs" in stats  # the event queue ran, no heap fallback
        assert stats["capacity_tier"] == "wide"
        _assert_identical(list_schedule(jobs, allot, m, backend="heap"), schedule)

    @pytest.mark.parametrize("backend", ["event_queue", "event_queue_indexed"])
    def test_unified_guard_at_the_exact_int64_boundary(self, backend):
        """Both columnar backends share one tier cut: total_need equal to
        ``MAX_COLUMNAR_M - m`` stays on int64 columns, one processor more
        promotes to the wide tier — and both sides match the heap exactly."""
        m = 1 << 61
        budget = MAX_COLUMNAR_M - m  # the historical event-queue guard value
        for extra, tier in ((0, "int64"), (1, "wide")):
            jobs = [TabulatedJob("a", [4.0]), TabulatedJob("b", [6.0])]
            # two needs <= m whose total sits exactly on / one past the cut
            allot = Allotment({jobs[0]: budget // 2, jobs[1]: budget // 2 + extra})
            stats = {}
            schedule = list_schedule(jobs, allot, m, backend=backend, stats=stats)
            assert stats["capacity_tier"] == tier, (extra, tier)
            _assert_identical(
                list_schedule(jobs, allot, m, backend="heap"), schedule
            )

    @pytest.mark.parametrize("backend", ["event_queue", "event_queue_indexed"])
    def test_object_tier_beyond_wide_range(self, backend):
        """Past the 2^93 wide-limb budget the object-dtype escape hatch keeps
        the columnar structure (exact Python-int arithmetic per element)."""
        m = 1 << 96
        jobs = [TabulatedJob("big", [3.0, 3.0]), TabulatedJob("small", [5.0])]
        allot = Allotment({jobs[0]: m - 1, jobs[1]: 1})
        stats = {}
        schedule = list_schedule(jobs, allot, m, backend=backend, stats=stats)
        assert stats["capacity_tier"] == "object"
        _assert_identical(list_schedule(jobs, allot, m, backend="heap"), schedule)

    def test_stats_contract(self):
        jobs, allot = _jobs_with_durations([1.0, 2.0, 3.0])
        _, stats = _run(jobs, allot, 2)
        assert stats["backend"] == "event_queue"
        assert stats["events"] == 3
        assert stats["epochs"] >= 1
        assert 1 <= stats["max_epoch_completions"] <= 3
        # the scanning backend examines every job slot per admission query
        assert stats["candidate_scans"] >= 1
        assert stats["candidates_visited"] == stats["candidate_scans"] * len(jobs)

    def test_stats_contract_indexed(self):
        jobs, allot = _jobs_with_durations([1.0, 2.0, 3.0])
        _, stats = _run(jobs, allot, 2, backend="event_queue_indexed")
        assert stats["backend"] == "event_queue_indexed"
        assert stats["events"] == 3
        assert stats["epochs"] >= 1
        assert stats["candidate_scans"] >= 1
        assert stats["candidates_visited"] >= 1


@st.composite
def _tie_heavy_case(draw):
    # m and n ranges deliberately straddle the _SMALL_EPOCH threshold (32):
    # epochs with > 32 candidates AND > 32 idle machines take the batched
    # admission/span/merge paths, smaller ones the lean scalar paths — the
    # strategy must cross the boundary in both directions
    m = draw(st.sampled_from([1, 2, 3, 7, 9, 40, 48]))
    n = draw(st.integers(min_value=1, max_value=90))
    # quantized duration grid plus near-tie values straddling the tolerance
    grid = [0.5, 1.0, 1.0 + ULP1, 2.0, 16.0, 16.0 + ULP16, 3.0]
    durations = [draw(st.sampled_from(grid)) for _ in range(n)]
    needs = [draw(st.integers(min_value=1, max_value=m)) for _ in range(n)]
    return m, durations, needs


class TestEpochGroupingProperties:
    @given(_tie_heavy_case())
    @settings(max_examples=120, deadline=None)
    def test_all_backends_bit_identical_on_tie_heavy_instances(self, case):
        m, durations, needs = case
        jobs = [
            TabulatedJob(f"j{i}", [float(d)] * k)
            for i, (d, k) in enumerate(zip(durations, needs))
        ]
        allot = Allotment({job: k for job, k in zip(jobs, needs)})
        heap = list_schedule(jobs, allot, m, backend="heap")
        stats = {}
        event = list_schedule(jobs, allot, m, backend="event_queue", stats=stats)
        indexed_stats = {}
        indexed = list_schedule(
            jobs, allot, m, backend="event_queue_indexed", stats=indexed_stats
        )
        _assert_identical(heap, event, (m, durations, needs))
        _assert_identical(heap, indexed, (m, durations, needs))
        # every completion is seen exactly once, and epochs are bounded by
        # the number of *distinct* end values (an epoch consumes at least
        # one distinct completion instant, possibly several within the
        # tolerance window)
        assert stats["events"] == len(jobs)
        distinct_ends = len({float(e) for e in heap.columns().end.tolist()})
        assert 1 <= stats["epochs"] <= distinct_ends
        # the admission decisions being identical, the *epoch structure* of
        # the indexed run must coincide with the scanning run exactly
        for key in ("epochs", "events", "max_epoch_completions"):
            assert indexed_stats[key] == stats[key], (m, durations, needs, key)


@st.composite
def _chain_case(draw):
    """Adversarial single-completion chains: distinct durations (no two
    completions ever share an epoch window), n far above m, and small needs
    so nearly every epoch admits exactly one successor from a deep waiting
    queue — the regime where the scanning backend pays O(n) per epoch."""
    m = draw(st.sampled_from([1, 2, 3, 5, 8]))
    n = draw(st.integers(min_value=1, max_value=70))
    # strictly increasing integer-spaced durations: separations are >= 1,
    # astronomically beyond every tolerance window at these magnitudes
    base = draw(st.integers(min_value=1, max_value=50))
    durations = [float(base + 3 * i) for i in range(n)]
    perm = draw(st.permutations(range(n)))
    durations = [durations[i] for i in perm]
    needs = [draw(st.integers(min_value=1, max_value=m)) for _ in range(n)]
    return m, durations, needs


class TestCandidateIndexProperties:
    @given(_chain_case())
    @settings(max_examples=120, deadline=None)
    def test_index_matches_scan_on_single_completion_chains(self, case):
        """Index-vs-scan identical admission order (hence bit-identical
        schedules) on no-tie chains; the index must also agree epoch for
        epoch with the scanning backend's instrumentation."""
        m, durations, needs = case
        jobs = [
            TabulatedJob(f"c{i}", [float(d)] * k)
            for i, (d, k) in enumerate(zip(durations, needs))
        ]
        allot = Allotment({job: k for job, k in zip(jobs, needs)})
        heap = list_schedule(jobs, allot, m, backend="heap")
        scan_stats = {}
        scan = list_schedule(jobs, allot, m, backend="event_queue", stats=scan_stats)
        index_stats = {}
        indexed = list_schedule(
            jobs, allot, m, backend="event_queue_indexed", stats=index_stats
        )
        _assert_identical(heap, scan, (m, durations, needs))
        _assert_identical(heap, indexed, (m, durations, needs))
        for key in ("epochs", "events", "max_epoch_completions"):
            assert index_stats[key] == scan_stats[key], (m, durations, needs, key)

    @given(
        st.integers(min_value=1, max_value=60),
        st.sampled_from([1, 2, 3, 8, 24, 48]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_index_matches_scan_on_quantized_family(self, n, m, seed):
        """Index-vs-scan identical admission order on the tie-heavy
        ``quantized`` generator itself (exact duration ties → mass
        simultaneous-completion epochs → mass admissions exercising the
        batched gather/remove paths of the index)."""
        from repro.workloads.generators import random_quantized_instance

        instance = random_quantized_instance(n, m, seed=seed)
        rng = np.random.default_rng(seed)
        needs = [int(k) for k in rng.integers(1, m + 1, size=n)]
        allot = Allotment({job: k for job, k in zip(instance.jobs, needs)})
        heap = list_schedule(instance.jobs, allot, m, backend="heap")
        scan_stats = {}
        scan = list_schedule(
            instance.jobs, allot, m, backend="event_queue", stats=scan_stats
        )
        index_stats = {}
        indexed = list_schedule(
            instance.jobs, allot, m, backend="event_queue_indexed", stats=index_stats
        )
        _assert_identical(heap, scan, (n, m, seed))
        _assert_identical(heap, indexed, (n, m, seed))
        assert index_stats["epochs"] == scan_stats["epochs"], (n, m, seed)

    def test_index_visits_collapse_on_deep_queues(self):
        """The counters must *demonstrate* the index: on a deterministic
        1-wide chain (every epoch admits one of many unit-need waiters) the
        scanning backend examines every job slot per epoch while the index
        touches each waiting job once overall."""
        n = 200
        jobs, allot = _jobs_with_durations([float(3 + i) for i in range(n)])
        _, scan_stats = _run(jobs, allot, 1)
        _, index_stats = _run(jobs, allot, 1, backend="event_queue_indexed")
        assert scan_stats["candidates_visited"] == scan_stats["candidate_scans"] * n
        assert scan_stats["candidates_visited"] > 10 * index_stats["candidates_visited"]
        # every admission gathers exactly the one admissible candidate
        assert index_stats["candidates_visited"] == n
