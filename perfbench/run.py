"""End-to-end benchmark of the public entry points of :mod:`repro`.

Run from the repository root::

    python3 perfbench/run.py --workload offline_dense --seed 1 --seconds 20 --trace 0

Workloads (see ``loads.py``): ``offline_dense`` and ``offline_compact`` call
``schedule_moldable``, ``online`` calls ``OnlineScheduler.run`` and
``fleet`` calls ``schedule_many``.  One client drives them in a closed loop:
each call starts when the previous one, and its untimed output check, is
done.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run and writes the spans of its first traced
pass under ``perfbench/out/``.  Human-readable lines come first; the last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  The exit code is 1 when any output check failed and
2 when the program under ``src/`` cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("offline_dense", "offline_compact", "online", "fleet")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="set up (import, generate, warm up), print 'ready' and exit; used to time set-up",
    )
    return parser.parse_args(argv)


def _import_program() -> bool:
    """Put this checkout's ``src`` first on the path and import ``repro``
    from it, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import repro

    return Path(repro.__file__).resolve().is_relative_to(src.resolve())


def main(argv=None) -> int:
    args = _parse(argv)
    # single-threaded BLAS in this process and, through the environment, in
    # the fleet's worker processes: the machine's cores belong to the workers
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not _import_program():
        print(f"perfbench: no importable program under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import harness
    import loads

    load = loads.WORKLOADS[args.workload](args.seed)
    loads.warm_up(load)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    try:
        if args.trace:
            metrics, tally, lines = harness.traced_run(load, args.seconds, args.seed)
        else:
            metrics, tally, lines = harness.timed_run(load, args.seconds, Path(__file__), args.seed)
    finally:
        harness.stop_resource_tracker()

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    for note in tally.notes[:20]:
        print(f"CHECK FAILED: {note}")
    correct = tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
