"""In-memory span recorder for the traced benchmark run.

The recorder wraps, from outside, the names each *caller* module looks up
(``repro.core.scheduler.makespan_lower_bound``,
``repro.core.bounded_algorithm.solve_compressible_knapsack``, ...) and a few
class attributes (``BatchedOracle.gamma_array``, ``ReplanState.commit_epoch``,
...).  :meth:`Tracer.install` puts the wrappers in place and
:meth:`Tracer.remove` restores the originals, so untraced passes run the
program exactly as shipped.

Every wrapped call becomes a span ``(id, name, start, end, parent, call)``,
where ``call`` is the id of the outermost span it ran under (one
entry-point call).  A span's *self* time is its duration minus the time of
its direct children, so the self times of all spans sum to the time covered
by the outermost spans.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter
from typing import Callable, List, Optional, Tuple

#: every span name the recorder emits, in reporting order
LAYERS = (
    "core.scheduler.schedule_moldable",
    "online.run",
    "serve.schedule_many",
    "perf.megabatch.solve_mega",
    "core.scheduler.driver",
    "core.bounds.certify",
    "core.bounds.estimator",
    "perf.oracle.build",
    "perf.oracle.gamma",
    "core.dual.search",
    "knapsack.solve",
    "core.shelves.build",
    "core.list_scheduling.schedule",
    "core.validation.check",
    "core.replan.commit_epoch",
    "core.replan.replan_pending",
    "core.replan.stitch",
)

GAMMA = "perf.oracle.gamma"


def _oracle_probes(args) -> int:
    return args[0].stats["oracle_evals"]


def _round_probes(args) -> int:
    oracles = {id(oracle): oracle for oracle, _ in args[0]}
    return sum(oracle.stats["oracle_evals"] for oracle in oracles.values())


def _targets(entry_module) -> List[Tuple[object, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, probe counter)`` for every wrapped
    name.  ``entry_module`` is the benchmark module whose own references to
    the entry points are wrapped."""
    from repro import io
    from repro.core import bounded_algorithm, bounds, dual, fptas, replan, scheduler, two_approx
    from repro.online import scheduler as online
    from repro.perf import megabatch
    from repro.perf.oracle import BatchedOracle

    return [
        (entry_module, "schedule_moldable", "core.scheduler.schedule_moldable", None),
        (online, "schedule_moldable", "core.scheduler.schedule_moldable", None),
        (replan, "schedule_moldable", "core.scheduler.schedule_moldable", None),
        (megabatch, "schedule_moldable", "core.scheduler.schedule_moldable", None),
        (online.OnlineScheduler, "run", "online.run", None),
        (entry_module, "schedule_many", "serve.schedule_many", None),
        (entry_module, "solve_mega", "perf.megabatch.solve_mega", None),
        (scheduler, "bounded_schedule", "core.scheduler.driver", None),
        (scheduler, "fptas_schedule", "core.scheduler.driver", None),
        (scheduler, "two_approximation", "core.scheduler.driver", None),
        (scheduler, "makespan_lower_bound", "core.bounds.certify", None),
        (online, "makespan_lower_bound", "core.bounds.certify", None),
        (bounds, "ludwig_tiwari_estimator", "core.bounds.estimator", None),
        (dual, "ludwig_tiwari_estimator", "core.bounds.estimator", None),
        (two_approx, "ludwig_tiwari_estimator", "core.bounds.estimator", None),
        (BatchedOracle, "__init__", "perf.oracle.build", None),
        (BatchedOracle, "gamma_array", GAMMA, _oracle_probes),
        (megabatch, "lockstep_gamma_round", GAMMA, _round_probes),
        (fptas, "dual_binary_search", "core.dual.search", None),
        (bounded_algorithm, "dual_binary_search", "core.dual.search", None),
        (bounded_algorithm, "solve_compressible_knapsack", "knapsack.solve", None),
        (bounded_algorithm, "build_three_shelf_schedule", "core.shelves.build", None),
        (two_approx, "list_schedule", "core.list_scheduling.schedule", None),
        (megabatch, "list_schedule", "core.list_scheduling.schedule", None),
        (scheduler, "assert_valid_schedule", "core.validation.check", None),
        (two_approx, "assert_valid_schedule", "core.validation.check", None),
        (bounded_algorithm, "assert_valid_schedule", "core.validation.check", None),
        (fptas, "assert_valid_schedule", "core.validation.check", None),
        (megabatch, "assert_valid_schedule", "core.validation.check", None),
        (io, "assert_valid_schedule", "core.validation.check", None),
        (online, "validate_schedule", "core.validation.check", None),
        (replan.ReplanState, "commit_epoch", "core.replan.commit_epoch", None),
        (replan.ReplanState, "replan_pending", "core.replan.replan_pending", None),
        (replan.ReplanState, "stitch", "core.replan.stitch", None),
    ]


class Tracer:
    """Records spans and per-layer totals while installed."""

    def __init__(self, keep_spans: bool = True) -> None:
        self.keep_spans = keep_spans
        self.spans: List[tuple] = []
        self.self_s: Counter = Counter()
        #: time of spans with no enclosing span of the same name
        self.inclusive_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.probes = 0
        #: ``commit_epoch`` + following ``replan_pending`` durations, seconds
        self.epochs: List[float] = []
        self._commit_s = 0.0
        self._stack: List[list] = []
        self._next_id = 0
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping
    def wrap(self, name: str, fn: Callable, probes: Optional[Callable] = None) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = probes(args) if probes is not None else 0
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, 0.0, 0.0, stack[0][0] if stack else span_id]
            stack.append(frame)
            frame[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._close(frame, end, args, before, probes)

        return traced

    def _close(self, frame: list, end: float, args, before: int, probes) -> None:
        span_id, name, start, child_s, call = frame
        duration = end - start
        stack = self._stack
        parent = stack[-1][0] if stack else None
        if stack:
            stack[-1][3] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if all(f[1] != name for f in stack):
            self.inclusive_s[name] += duration
            if probes is not None:
                self.probes += probes(args) - before
        if name == "core.replan.commit_epoch":
            self._commit_s = duration
        elif name == "core.replan.replan_pending":
            self.epochs.append(self._commit_s + duration)
            self._commit_s = 0.0
        if self.keep_spans:
            self.spans.append((span_id, name, start, end, parent, call))

    def install(self, entry_module) -> None:
        for owner, attr, name, probes in _targets(entry_module):
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, probes))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- export
    def write_jsonl(self, path) -> None:
        """One JSON object per span, times in microseconds from the first
        span's start."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, call in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_us": (start - t0) * 1e6,
                            "end_us": (end - t0) * 1e6,
                            "parent": parent,
                            "call": call,
                        }
                    )
                    + "\n"
                )

    def write_chrome(self, path) -> None:
        """Chrome Trace Event JSON (complete ``X`` events), readable by
        ``chrome://tracing`` and Perfetto."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "call": call},
            }
            for span_id, name, start, end, parent, call in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)

