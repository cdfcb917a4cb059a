"""One fresh benchmark process: set up a workload, optionally run one pass.

Usage (from the repository root)::

    python3 perfbench/worker.py --workload inject_rate --seed 20210901 \
        [--setup-only] [--trace] [--spans perfbench/out/spans.npz]

Set-up is timed from before ``import repro`` until every world the
workload acquires is built and checkpointed in the setup cache.  The
pass then runs every sweep point in order, exactly as ``twochains bench
run`` executes a point with its defaults (setup cache on, metrics
registry attached per point, fusion and trace JIT on, one DES shard, no
point cache).  Each pass runs in a fresh process so that it pays VM code
generation the way every ``bench run`` does.  The last stdout line is
one JSON object.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``).  Not ``ru_maxrss``,
    which on Linux also carries the parent's peak across fork and exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _llc_counts(worlds) -> tuple[int, int]:
    hits = misses = 0
    for w in worlds:
        for node in w.bed.nodes:
            hits += node.hier.llc.hits
            misses += node.hier.llc.misses
    return hits, misses


def _metric_sum(snap: dict, family: str) -> float:
    return sum(v[0] for k, v in snap["counters"].items()
               if k.split("|", 1)[0] == family)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None,
                    help="where a traced run writes its spans (.npz)")
    args = ap.parse_args(argv)

    import points
    from repro.core.stdworld import SETUP_CACHE
    from repro.obs.metrics import METRICS
    from repro.perf import COUNTERS

    book = None
    if args.trace:
        import ledger
        book = ledger.Ledger()
        ledger.install(book, touch=args.workload in points.STRESSED)

    SETUP_CACHE.enabled = True
    plan = points.points(args.workload)
    for params in plan:
        SETUP_CACHE.begin_point()
        points.acquire(args.workload, params, args.seed)
    out = {"setup_s": time.perf_counter() - _T0}
    if args.setup_only:
        print(_canonical(out))
        return 0

    setup_tallies = book.take_tallies() if book else None
    rows, errors, digests, llc, msums = [], [], [], [], []
    c0 = COUNTERS.snapshot()
    t0 = time.perf_counter()
    for i, params in enumerate(plan):
        if book:
            book.point = i
        SETUP_CACHE.begin_point()
        METRICS.attach()
        row = error = None
        hits = misses = 0
        try:
            worlds = points.acquire(args.workload, params, args.seed)
            h0, m0 = _llc_counts(worlds)
            row = points.run_point(args.workload, params, worlds)
            h1, m1 = _llc_counts(worlds)
            hits, misses = h1 - h0, m1 - m0
        except Exception as exc:  # a failed point is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        finally:
            METRICS.detach()
            snap = METRICS.snapshot(stable_only=True)
            METRICS.clear()
        rows.append(row)
        errors.append(error)
        digests.append(hashlib.sha256(_canonical(snap).encode()).hexdigest())
        llc.append([hits, misses])
        msums.append({fam: _metric_sum(snap, fam) for fam in (
            "tc_fc_stall_ns_total", "tc_rdma_link_bytes_total")})
    wall_s = time.perf_counter() - t0
    out.update(wall_s=wall_s, counters=COUNTERS.delta(c0), rows=rows,
               errors=errors, metrics_digests=digests,
               peak_rss_mb=_peak_rss_mb())
    if book:
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            book.save(args.spans)
        out["trace"] = {
            "rollup": ledger.rollup(book, wall_s),
            "setup_tallies": setup_tallies,
            "llc": llc,
            "metric_sums": msums,
            "touched_sets": sum(len(book.touched.get(k, ()))
                                for k in book.stressed),
            "stressed_sets": sum(book.stressed.values()),
        }
    print(_canonical(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
