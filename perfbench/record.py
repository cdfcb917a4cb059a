"""Record the oracle's expected rows (``expected.json``) at this commit.

Usage (from the repository root)::

    python3 perfbench/record.py

Runs one untraced pass per workload at the default seed, and one
``stress_tail`` pass at the held-out seed (the other workloads draw
nothing from the seed).  Re-record only when a change is meant to move the
simulated rows; the benchmark's tests check the default-seed rows
against the committed ``results/bench`` figures.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import points  # noqa: E402
from run import run_worker  # noqa: E402


def record(workload: str, seed: int) -> dict:
    out = run_worker(workload, seed)
    failed = [e for e in out["errors"] if e is not None]
    if failed:
        raise SystemExit(f"{workload} seed {seed}: {failed[0]}")
    return {"rows": out["rows"], "metrics_digests": out["metrics_digests"]}


def main() -> int:
    expected = {}
    for workload in points.WORKLOADS:
        seeds = [points.DEFAULT_SEED]
        if workload not in oracle.SEED_INVARIANT:
            seeds.append(points.HELD_OUT_SEED)
        expected[workload] = {str(s): record(workload, s) for s in seeds}
        print(f"{workload}: recorded seeds {seeds}", flush=True)
    oracle.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
