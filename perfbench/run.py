"""The simulator benchmark: host time per simulated result, layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stress_tail|inject_rate|chain_kv \
        [--seed 20210901] [--seconds 10] [--trace 0|1]

Each measured pass runs in a fresh worker process (``worker.py``) that
imports ``repro``, builds and checkpoints every world the workload
acquires (timed as ``setup_s``), then runs every sweep point once
(timed as ``wall_s``).  Passes repeat, one process after another, until
``--seconds`` have elapsed; the end-to-end metrics are medians over
them.  ``--trace 1`` instead alternates untraced passes with traced ones
and reports the per-layer ledger (``ledger.py``).  Every row is checked
against the oracle (``oracle.py``); a point that raises or differs
counts as failed, and so does every point of a worker that crashes:
the run then stops measuring and still prints its result, with
``correct`` false (and null metric values if no pass completed).  The
last stdout line is the JSON result; README.md describes the metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKER = HERE / "worker.py"

MIN_PASSES = 3          # end-to-end medians need at least this many
MIN_SETUPS = 9          # set-up samples per run (extra set-up-only workers)
TIME_CAP_S = 140.0      # stop starting workers past this (run limit: 180 s)
WORKER_TIMEOUT_S = 120.0

END_TO_END_UNITS = {"wall_s": "s", "sim_ns_per_wall_s": "ns/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {exc.timeout} s") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise WorkerFailed(f"worker exited {proc.returncode}: {tail}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise WorkerFailed("worker printed no result") from None


class Tally:
    """Points attempted/failed, checked against the oracle and against
    the first pass of this run (every pass must repeat it exactly)."""

    def __init__(self, workload: str, seed: int, npoints: int) -> None:
        import oracle
        self.oracle = oracle
        self.expected = oracle.load_expected()
        self.workload, self.seed, self.npoints = workload, seed, npoints
        self.attempted = self.failed = 0
        self.first: list | None = None
        self.problems: list[str] = []

    def crashed(self, why: str) -> None:
        self.attempted += self.npoints
        self.failed += self.npoints
        self.problems.append(why)

    def check(self, out: dict, label: str) -> None:
        seen = list(zip(out["rows"], out["metrics_digests"]))
        if self.first is None:
            self.first = seen
        for i, (row, error, digest) in enumerate(zip(
                out["rows"], out["errors"], out["metrics_digests"])):
            self.attempted += 1
            why = self.oracle.check_point(self.expected, self.workload,
                                          self.seed, i, row, error, digest)
            if not why and seen[i] != self.first[i]:
                why = "differs from this run's first pass"
            if why:
                self.failed += 1
                self.problems.append(f"{label} point {i}: {why}")


def _more(t0: float, seconds: float, last_s: float, short: bool) -> bool:
    """Start another worker (the previous one took ``last_s``)?  Yes while
    ``short`` of the minimum sample count, else only if it is due to end
    by the deadline give or take half a worker; never past the hard cap
    that keeps a run within its time limit."""
    elapsed = time.perf_counter() - t0
    if elapsed + last_s >= TIME_CAP_S:
        return False
    return short or elapsed + last_s / 2 < seconds


def measure(workload: str, seed: int, seconds: float,
            tally: Tally) -> dict | None:
    """Untraced passes for ``seconds``; the end-to-end metrics (None if
    no pass completed).

    Host times are scaled by the reference loop (``reference.py``) timed
    between passes: by ``REFERENCE_S`` over the loop's median time, so
    that host-speed drift between runs cancels.
    """
    from reference import REFERENCE_S, Reference
    ref = Reference()
    walls, rates, rss, setups, refs = [], [], [], [], [ref.time_once()]
    print(f"reference {refs[0]:.3f} s", flush=True)
    t0 = last = time.perf_counter()
    while _more(t0, seconds, time.perf_counter() - last,
                len(walls) < MIN_PASSES):
        last = time.perf_counter()
        try:
            out = run_worker(workload, seed)
        except WorkerFailed as exc:
            tally.crashed(str(exc))
            break
        finally:
            refs.append(ref.time_once())
        tally.check(out, f"pass {len(walls)}")
        walls.append(out["wall_s"])
        rates.append(out["counters"]["sim_ns"] / out["wall_s"])
        rss.append(out["peak_rss_mb"])
        setups.append(out["setup_s"])
        print(f"pass {len(walls)}: wall {out['wall_s']:.3f} s, "
              f"setup {out['setup_s']:.3f} s, "
              f"reference {refs[-1]:.3f} s", flush=True)
    # Set-up-only workers come last and get no loop timings: the scale
    # reflects the host speed the passes saw.
    while (walls and len(setups) < MIN_SETUPS
           and time.perf_counter() - t0 < TIME_CAP_S):
        try:
            setups.append(run_worker(workload, seed,
                                     "--setup-only")["setup_s"])
        except WorkerFailed as exc:
            tally.crashed(str(exc))
            break
    if not walls:
        return None
    scale = REFERENCE_S / median(refs)
    print(f"host speed scale {scale:.4f} (reference median "
          f"{median(refs):.4f} s); unscaled wall {median(walls):.4f} s, "
          f"setup {median(setups):.4f} s", flush=True)
    return {"wall_s": median(walls) * scale,
            "sim_ns_per_wall_s": median(rates) / scale,
            "setup_s": median(setups) * scale,
            "peak_rss_mb": median(rss)}


def measure_traced(workload: str, seed: int, seconds: float,
                   tally: Tally) -> dict | None:
    """Alternating untraced/traced passes; the per-layer metrics (None if
    no pair of passes completed)."""
    import ledger
    untraced, traced = [], []
    t0 = last = time.perf_counter()
    while _more(t0, seconds, time.perf_counter() - last, not traced):
        last = time.perf_counter()
        try:
            plain = run_worker(workload, seed)
            spans = OUT_DIR / f"spans-{workload}-seed{seed}-{len(traced)}.npz"
            out = run_worker(workload, seed, "--trace", "--spans", str(spans))
        except WorkerFailed as exc:
            tally.crashed(str(exc))
            break
        tally.check(plain, f"untraced pass {len(untraced)}")
        tally.check(out, f"traced pass {len(traced)}")
        untraced.append(plain["wall_s"])
        traced.append(out)
        print(f"pair {len(traced)}: untraced {plain['wall_s']:.3f} s, "
              f"traced {out['wall_s']:.3f} s", flush=True)
    if not traced:
        return None
    base = median(untraced)
    per_pass = [ledger.layer_metrics(out, base) for out in traced]
    return {name: median([m[name] for m in per_pass])
            for name in per_pass[0]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {ROOT / 'src'}; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import points
    if args.workload not in points.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choices: "
              f"{', '.join(points.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = points.DEFAULT_SEED if args.seed is None else args.seed
    tally = Tally(args.workload, seed, len(points.points(args.workload)))

    if args.trace:
        import ledger
        measure_fn, units = measure_traced, ledger.PER_LAYER_UNITS
    else:
        measure_fn, units = measure, END_TO_END_UNITS
    values = None
    try:
        # Unmeasured warm-up: byte-compiles the sources on a fresh checkout.
        run_worker(args.workload, seed, "--setup-only")
    except WorkerFailed as exc:
        tally.crashed(str(exc))
    else:
        values = measure_fn(args.workload, seed, args.seconds, tally)
    if (not args.trace and tally.first is not None
            and all(r for r, _ in tally.first)):
        err = points.paper_err_pct(args.workload, [r for r, _ in tally.first])
        print("paper_err_pct: " + ("unvalidated (no paper reference)"
                                   if err is None else f"{err:.4f} %"))
    for why in tally.problems:
        print(f"FAILED {why}", file=sys.stderr)
    result = {"correct": (values is not None and tally.failed == 0
                          and tally.attempted > 0),
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": None if values is None
                                 else values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
