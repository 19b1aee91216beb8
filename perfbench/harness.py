"""Measurement loops of the benchmark: the untimed set-up, the closed loop
that times one entry-point call at a time, the traced passes and the
metrics both report.  See ``run.py`` for the command line."""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import loads
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
#: fresh processes whose set-up time is measured; the median is reported
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 120.0


class Tally:
    """Attempts, failures, per-item ratios and check messages of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.ratios: Dict[int, float] = {}
        self.notes: List[str] = []

    def record(self, load: loads.Workload, item, out, error: Optional[BaseException]) -> bool:
        """Check one call's output; returns whether it passed."""
        if error is not None:
            attempted = len(item.instances) if load.name == "fleet" else 1
            self.attempted += attempted
            self.failed += attempted
            self.notes.append(f"item {item.index}: raised {error!r}")
            return False
        attempted, failed, ratio, notes = load.check(item, out)
        previous = self.ratios.setdefault(item.index, ratio)
        if not failed and previous != ratio:
            failed = 1
            notes = notes + [f"item {item.index}: ratio {ratio!r} differs from an earlier call's {previous!r}"]
        self.attempted += attempted
        self.failed += failed
        self.notes.extend(notes)
        return not failed


def _call(load: loads.Workload, item) -> Tuple[object, Optional[BaseException], float]:
    t0 = perf_counter()
    try:
        out, error = load.call(item), None
    except Exception as exc:  # a raising call is a failed call, not a crash
        out, error = None, exc
    return out, error, perf_counter() - t0


def _complete_pool(load: loads.Workload, tally: Tally) -> None:
    """Solve (untimed) every pool input the timed loop did not reach, so the
    quality metric covers the whole pool."""
    for item in load.pool:
        if item.index not in tally.ratios:
            out, error, _ = _call(load, item)
            tally.record(load, item, out, error)


def tail(samples: List[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that still has at
    least ten samples above it (the maximum when there are ten or fewer)."""
    ordered = sorted(samples)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def peak_rss_mb(load: loads.Workload) -> float:
    """Peak resident memory of this process; for ``fleet`` plus the fleet's
    worker count times the largest worker's peak (they run side by side)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if load.name == "fleet":
        kib += loads.FLEET_WORKERS * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def setup_seconds(run_py: Path, workload: str, seed: int) -> List[float]:
    """Wall time from starting a fresh benchmark process to the point where
    it would make its first timed call, measured ``SETUP_RUNS`` times."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = perf_counter() - t0
            proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
        times.append(ready)
    return times


def stop_resource_tracker() -> None:
    """Stop and reap the resource-tracker process that ``multiprocessing``
    starts with the first spawned fleet worker, so the benchmark leaves no
    process behind.  There is no public call for this."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------- timed run


def timed_run(load: loads.Workload, seconds: float, run_py: Path, seed: int) -> Tuple[dict, Tally, List[str]]:
    """Closed loop, one client: call, stop the clock, check, repeat, until
    the calls alone have taken ``seconds``."""
    tally = Tally()
    samples: List[float] = []
    jobs = 0
    timed = 0.0
    i = 0
    while timed < seconds:
        item = load.item(i)
        i += 1
        out, error, dt = _call(load, item)
        timed += dt
        samples.append(dt)
        if tally.record(load, item, out, error):
            jobs += load.jobs(item)
    _complete_pool(load, tally)
    rss = peak_rss_mb(load)
    # after the memory reading: these child processes are not fleet workers
    setups = setup_seconds(run_py, load.name, seed)

    tail_s, tail_pct = tail(samples)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "jobs_per_s": metric(jobs / timed, "1/s"),
        "call_ms_p50": metric(statistics.median(samples) * 1e3, "ms"),
        "call_ms_tail": metric(tail_s * 1e3, "ms"),
        "certified_ratio_mean": metric(statistics.fmean(tally.ratios[k] for k in range(load.pool_size)), "ratio"),
        "solved_share": metric(1.0 - tally.failed / tally.attempted, "share"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    lines = [
        f"calls timed: {len(samples)} in {timed:.3f} s of call time; ratio over the first {load.pool_size} inputs",
        f"call_ms_tail is the p{tail_pct:.1f} of {len(samples)} samples",
        f"failed_share: {tally.failed / tally.attempted:.6f} ({tally.failed} of {tally.attempted})",
        "setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups),
    ]
    return metrics, tally, lines


# --------------------------------------------------------------- traced run


class PassResult:
    def __init__(self) -> None:
        self.entry_s = 0.0  # time inside the timed entry-point calls
        self.wall_s = 0.0  # the whole pass, checks excluded
        self.jobs = 0
        self.outputs: List[tuple] = []  # (item, output, error)
        self.packs: List[tuple] = []  # (fleet item, first index, solve_mega results)
        self.mega_s = 0.0
        self.mega_stats: List[dict] = []


def _one_pass(load: loads.Workload, tracer: Optional[Tracer]) -> PassResult:
    """One call per pool item.  A traced ``fleet`` pass also solves every
    pack in-process through ``solve_mega``, since its workers run outside
    the tracer."""
    res = PassResult()
    t_pass = perf_counter()
    for item in load.pool:
        out, error, dt = _call(load, item)
        res.entry_s += dt
        res.outputs.append((item, out, error))
        if error is None:
            res.jobs += load.jobs(item)
        if tracer is not None and load.name == "fleet":
            for start, pack in enumerate(loads.fleet_packs(item)):
                stats: dict = {}
                t0 = perf_counter()
                results = loads.solve_mega(pack, loads.EPS, algorithm="two_approx", stats=stats)
                res.mega_s += perf_counter() - t0
                res.mega_stats.append(stats)
                res.packs.append((item, start * loads.MEGA_BATCH, results))
    res.wall_s = perf_counter() - t_pass
    return res


def _check_pass(load: loads.Workload, res: PassResult, tally: Tally) -> None:
    for item, out, error in res.outputs:
        tally.record(load, item, out, error)
    for item, offset, results in res.packs:
        reference = loads.fleet_reference(item)
        for k, result in enumerate(results):
            inst = item.instances[offset + k]
            tally.attempted += 1
            verdict = loads.validate_schedule(result.schedule, inst.jobs)
            if result.makespan != reference[offset + k] or not verdict.ok:
                tally.failed += 1
                tally.notes.append(
                    f"solve_mega {inst.name}: makespan {result.makespan!r} vs "
                    f"{reference[offset + k]!r}, valid={verdict.ok}"
                )


def _counts(tracer: Tracer, res: PassResult) -> Dict[str, int]:
    """The exact counters of one traced pass."""
    counts = {f"calls.{name}": tracer.calls[name] for name in LAYERS}
    counts["gamma_probes"] = tracer.probes
    counts["epochs"] = len(tracer.epochs)
    counts["gamma_rounds"] = sum(s.get("gamma_rounds", 0) for s in res.mega_stats)
    counts["eval_rounds"] = sum(s.get("eval_rounds", 0) for s in res.mega_stats)
    attempts = retries = 0
    for item, out, error in res.outputs:
        if error is None and hasattr(out, "outcomes"):  # a FleetReport
            attempts += sum(len(o.attempts) for o in out.outcomes)
            retries += sum(o.retries for o in out.outcomes)
    counts["serve.attempts"] = attempts
    counts["serve.retries"] = retries
    return counts


def traced_run(load: loads.Workload, seconds: float, seed: int) -> Tuple[dict, Tally, List[str]]:
    """Alternate an untraced and a traced pass over the pool until
    ``seconds`` have passed (at least two pairs).  The first untraced pass
    only warms process-wide caches and is left out of ``trace.overhead``.
    Times are per pass, averaged over the traced passes; counts are per pass
    and must repeat exactly from pass to pass."""
    tally = Tally()
    plain: List[PassResult] = []
    traced: List[Tuple[Tracer, PassResult]] = []
    t_begin = perf_counter()
    while len(traced) < 2 or perf_counter() - t_begin < seconds:
        res = _one_pass(load, None)
        plain.append(res)
        _check_pass(load, res, tally)
        tracer = Tracer(keep_spans=not traced)
        tracer.install(loads)
        try:
            tres = _one_pass(load, tracer)
        finally:
            tracer.remove()
        traced.append((tracer, tres))
        _check_pass(load, tres, tally)

    counts = [_counts(t, r) for t, r in traced]
    for k, other in enumerate(counts[1:], start=2):
        if other != counts[0]:
            tally.failed += 1
            diff = sorted(key for key in other if other[key] != counts[0][key])
            tally.notes.append(f"traced pass {k} counted differently from pass 1: {diff}")
    count = counts[0]

    passes = len(traced)
    self_s, inclusive_s, epochs = Counter(), Counter(), []
    for tracer, _ in traced:
        self_s.update(tracer.self_s)
        inclusive_s.update(tracer.inclusive_s)
        epochs.extend(tracer.epochs)
    wall_s = sum(r.wall_s for _, r in traced)
    entry_traced = sum(r.entry_s for _, r in traced)
    jobs_traced = sum(r.jobs for _, r in traced)
    entry_plain = sum(r.entry_s for r in plain[1:])
    jobs_plain = sum(r.jobs for r in plain[1:])
    mega_s = sum(r.mega_s for _, r in traced)
    fleet_s = inclusive_s["serve.schedule_many"]

    def per_pass_ms(seconds_total: float) -> float:
        return seconds_total * 1e3 / passes

    def share(part: float, whole: float) -> float:
        return part / whole if whole > 0 else 0.0

    drivers = inclusive_s["core.scheduler.driver"]
    entries = inclusive_s["core.scheduler.schedule_moldable"]
    epoch_tail, epoch_pct = tail(epochs) if epochs else (0.0, 0.0)
    accounted = sum(self_s[name] for name in LAYERS)
    metrics = {
        "core.scheduler.driver_share": metric(share(drivers, entries), "share"),
        "core.bounds.certify_ms": metric(per_pass_ms(inclusive_s["core.bounds.certify"]), "ms"),
        "core.bounds.certify_calls": metric(count["calls.core.bounds.certify"], "count"),
        "core.bounds.estimator_self_ms": metric(per_pass_ms(self_s["core.bounds.estimator"]), "ms"),
        "core.bounds.estimator_calls": metric(count["calls.core.bounds.estimator"], "count"),
        "perf.oracle.gamma_self_ms": metric(per_pass_ms(self_s["perf.oracle.gamma"]), "ms"),
        "perf.oracle.gamma_calls": metric(count["calls.perf.oracle.gamma"], "count"),
        "perf.oracle.gamma_probes": metric(count["gamma_probes"], "count"),
        "perf.oracle.build_ms": metric(per_pass_ms(inclusive_s["perf.oracle.build"]), "ms"),
        "core.dual.search_self_ms": metric(per_pass_ms(self_s["core.dual.search"]), "ms"),
        "core.dual.search_calls": metric(count["calls.core.dual.search"], "count"),
        "knapsack.solve_ms": metric(per_pass_ms(inclusive_s["knapsack.solve"]), "ms"),
        "knapsack.calls": metric(count["calls.knapsack.solve"], "count"),
        "core.shelves.build_self_ms": metric(per_pass_ms(self_s["core.shelves.build"]), "ms"),
        "core.shelves.build_calls": metric(count["calls.core.shelves.build"], "count"),
        "core.list_scheduling.schedule_ms": metric(per_pass_ms(inclusive_s["core.list_scheduling.schedule"]), "ms"),
        "core.list_scheduling.calls": metric(count["calls.core.list_scheduling.schedule"], "count"),
        "core.validation.check_ms": metric(per_pass_ms(inclusive_s["core.validation.check"]), "ms"),
        "core.replan.epoch_ms_p50": metric(statistics.median(epochs) * 1e3 if epochs else 0.0, "ms"),
        "core.replan.epoch_ms_tail": metric(epoch_tail * 1e3, "ms"),
        "core.replan.epochs": metric(count["epochs"], "count"),
        "core.replan.stitch_ms": metric(per_pass_ms(inclusive_s["core.replan.stitch"]), "ms"),
        "perf.megabatch.solve_ms": metric(per_pass_ms(mega_s), "ms"),
        "perf.megabatch.gamma_rounds": metric(count["gamma_rounds"], "count"),
        "perf.megabatch.eval_rounds": metric(count["eval_rounds"], "count"),
        "serve.dispatch_share": metric(1.0 - share(mega_s, fleet_s) if fleet_s > 0 else 0.0, "share"),
        "serve.attempts": metric(count["serve.attempts"], "count"),
        "serve.retries": metric(count["serve.retries"], "count"),
        "trace.overhead": metric(share(jobs_traced / entry_traced, jobs_plain / entry_plain), "ratio"),
        "trace.wall_ms": metric(per_pass_ms(wall_s), "ms"),
        "trace.unaccounted_ms": metric(per_pass_ms(wall_s - accounted), "ms"),
        "trace.spans": metric(sum(count[f"calls.{name}"] for name in LAYERS), "count"),
    }
    for name in LAYERS:
        metrics[f"self_ms.{name}"] = metric(per_pass_ms(self_s[name]), "ms")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{load.name}-seed{seed}"
    first = traced[0][0]
    first.write_jsonl(stem.with_suffix(".spans.jsonl"))
    first.write_chrome(stem.with_suffix(".trace.json"))

    lines = [
        f"traced passes: {passes} (plus {len(plain)} untraced, the first a warm-up), pool {len(load.pool)} items",
        f"per pass: layer self times {accounted * 1e3 / passes:.3f} ms + unaccounted "
        f"{(wall_s - accounted) * 1e3 / passes:.3f} ms = traced wall {wall_s * 1e3 / passes:.3f} ms",
        f"core.replan.epoch_ms_tail is the p{epoch_pct:.1f} of {len(epochs)} epochs",
        f"spans of the first traced pass: {stem}.spans.jsonl, {stem}.trace.json",
    ]
    for name in LAYERS:
        lines.append(f"  self {name}: {share(self_s[name], wall_s) * 100:.1f}% of traced wall")
    lines.append(f"  unaccounted: {share(wall_s - accounted, wall_s) * 100:.1f}% of traced wall")
    return metrics, tally, lines
