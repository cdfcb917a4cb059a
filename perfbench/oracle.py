"""Correctness oracle: every measured row against the expected rows.

``expected.json`` holds, per workload and seed, the rows and per-point
metrics-snapshot digests recorded at the commit that defined this
benchmark (``record.py`` rewrites it).  At the default seed the
``stress_tail`` and ``inject_rate`` rows equal the committed
``results/bench/BENCH_fig12.json`` points 0-1 and ``BENCH_fig8.json``
(the benchmark's tests pin that).  Workloads without stress draw nothing
from the seed, so their default-seed rows are expected at every seed.
For ``stress_tail`` at a seed with no recorded rows, a row must keep the
seed-independent allocation counters and be internally consistent; the
caller additionally requires every pass of a run to agree byte for byte.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from points import DEFAULT_SEED, STRESSED, WORKLOADS

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Workloads that start no stress load and so draw nothing from the seed.
SEED_INVARIANT = tuple(w for w in WORKLOADS if w not in STRESSED)


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text())


def expected_for(expected: dict, workload: str, seed: int) -> dict | None:
    """The recorded ``{"rows", "metrics_digests"}`` that apply at ``seed``."""
    by_seed = expected.get(workload, {})
    if workload in SEED_INVARIANT:
        seed = DEFAULT_SEED
    return by_seed.get(str(seed))


def _first_diff(got: dict, want: dict, path: str = "") -> str:
    for key in sorted(set(got) | set(want)):
        g, w = got.get(key), want.get(key)
        if isinstance(g, dict) and isinstance(w, dict):
            sub = _first_diff(g, w, f"{path}{key}.")
            if sub:
                return sub
        elif g != w:
            return f"{path}{key}: got {g!r}, expected {w!r}"
    return ""


def _consistent_stress_row(row: dict, reference: dict) -> str:
    """Checks for a stress row at a seed with no recorded expectation."""
    allocs = {k: v for k, v in row["counters"].items() if k.startswith("map.")}
    want = {k: v for k, v in reference["counters"].items()
            if k.startswith("map.")}
    if allocs != want:
        return "allocation counters differ from the default-seed row"
    if row["x"] != reference["x"]:
        return f"x is {row['x']!r}, expected {reference['x']!r}"
    v = row["values"]
    if not all(math.isfinite(x) and x > 0 for x in v.values()):
        return "non-finite or non-positive value"
    for side in ("stash", "nonstash"):
        if v[f"{side}_p50"] > v[f"{side}_p999"]:
            return f"{side} p50 above p999"
    if v["tail_improvement"] != v["nonstash_p999"] / v["stash_p999"]:
        return "tail_improvement is not nonstash_p999 / stash_p999"
    return ""


def check_point(expected: dict, workload: str, seed: int, index: int,
                row: dict | None, error: str | None, digest: str) -> str:
    """Why point ``index`` failed, or ``""`` when it passed."""
    if error is not None:
        return f"raised {error}"
    want = expected_for(expected, workload, seed)
    if want is not None:
        diff = _first_diff(row, want["rows"][index])
        if diff:
            return diff
        if digest != want["metrics_digests"][index]:
            return "metrics snapshot differs"
        return ""
    reference = expected_for(expected, workload, DEFAULT_SEED)
    return _consistent_stress_row(row, reference["rows"][index])
