"""Self-test of the traced benchmark run.

Runs ``run.py --trace 1`` twice per workload with the same seed and
requires that

* every count metric (γ-probes, ``gamma_array`` calls, estimator, knapsack,
  shelf and list-scheduling calls, re-plan epochs, mega rounds, serve
  attempts, spans) is identical in both runs;
* the per-layer self times plus the unaccounted time add up to the traced
  wall time.

Run from the repository root (about two minutes)::

    python3 perfbench/selftest.py [--seed N] [workload ...]

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("offline_dense", "offline_compact", "online", "fleet")


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="determinism self-test of the traced run")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    problems = []
    for workload in args.workloads:
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
        again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] == "count"}
        if counts != again:
            differing = sorted(k for k in counts if counts[k] != again.get(k))
            problems.append(f"{workload}: counts differ between runs: {differing}")
        for result in (first, second):
            m = {k: v["value"] for k, v in result["metrics"].items()}
            parts = sum(v for k, v in m.items() if k.startswith("self_ms.")) + m["trace.unaccounted_ms"]
            if abs(parts - m["trace.wall_ms"]) > 1e-6 * max(1.0, m["trace.wall_ms"]):
                problems.append(f"{workload}: self times + unaccounted {parts} != wall {m['trace.wall_ms']}")
        print(f"{workload}: {len(counts)} counts identical" if counts == again else f"{workload}: MISMATCH")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
