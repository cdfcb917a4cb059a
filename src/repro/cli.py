"""Command-line tools for the Two-Chains reproduction.

Subcommands mirror the toolchain a user of the real system would have:

* ``twochains build <srcdir> -n NAME -o DIR`` — build a package from a
  canonical source tree (``jam_*.amc`` / ``ried_*.rdc``) and install it.
* ``twochains inspect <installdir>`` — show a package's manifest, element
  table, and generated header.
* ``twochains disas <installdir> <element>`` — disassemble an element's
  injectable blob (post-GOT-rewrite CHAIN code).
* ``twochains perf <shape>`` — run a benchmark shape on the simulated
  testbed (the ucx_perftest analog), e.g.::

      twochains perf pingpong --jam jam_indirect_put --size 256
      twochains perf rate --jam jam_ss_sum --size 4096 --local
* ``twochains figures [fig5 ...]`` — regenerate paper figures.
* ``twochains bench run|diff|list`` — the parallel benchmark
  orchestrator: run every registered sweep across a process pool with
  on-disk point caching, emit ``BENCH_<figure>.json`` result files, and
  compare two result sets for regressions (see docs/BENCHMARKS.md)::

      twochains bench run --jobs 4
      twochains bench run fig9 fig10 --full --out results/bench
      twochains bench run --smoke            # one point per figure (CI)
      twochains bench run --trace            # + phase_breakdown in meta
      twochains bench diff results/old results/bench --threshold 5
      twochains bench diff results/old results/bench --wall-clock
      twochains bench diff results/old results/bench --health
* ``twochains trace [--json]`` — phase breakdown of one message;
  ``twochains trace export --figure fig7 -o trace.json`` runs one traced
  sweep point and writes Chrome/Perfetto trace-event JSON with metrics
  counter tracks (docs/OBSERVABILITY.md).
* ``twochains metrics export`` — run one sweep point with the metrics
  registry attached and dump every counter/gauge/histogram in Prometheus
  text exposition format (docs/METRICS.md)::

      twochains metrics export --figure fig7
      twochains metrics export --figure figchain -o metrics.prom
* ``twochains profile [figN ...]`` — cProfile the benchmark sweeps and
  report simulator throughput (instructions/s, sim-ns per wall-second),
  per-subsystem time, and function hotspots::

      twochains profile fig8 --top 20
      twochains profile --quick --json prof.json   # CI smoke
"""

from __future__ import annotations

import argparse
import sys

from .core.install import (
    build_package_from_dir,
    install_package,
    load_installed_package,
)


def _cmd_build(args) -> int:
    build = build_package_from_dir(args.name, args.srcdir)
    out = install_package(build, args.output)
    print(f"package {build.name!r} (id {build.package_id:#010x}) "
          f"installed to {out}")
    for art in build.jams:
        print(f"  element {art.element_id}: {art.name}  "
              f"code {art.code_size} B, {len(art.externs)} GOT slots")
    return 0


def _cmd_inspect(args) -> int:
    build = load_installed_package(args.installdir)
    print(f"package:    {build.name}")
    print(f"package id: {build.package_id:#010x}")
    print(f"library:    {len(build.library_elf)} bytes (ELF64 ET_DYN)")
    print("elements:")
    for art in build.jams:
        print(f"  [{art.element_id}] {art.name}: text {art.text_size} B, "
              f"rodata {art.rodata_size} B")
        for slot, sym in enumerate(art.externs):
            print(f"        got[{slot}] -> {sym}")
    if build.header:
        print("header:")
        for line in build.header.splitlines():
            print(f"  {line}")
    return 0


def _cmd_disas(args) -> int:
    from .isa import disassemble

    build = load_installed_package(args.installdir)
    art = build.jam(args.element)
    print(f"; {art.name}: {art.text_size} B code, "
          f"{art.rodata_size} B in-message rodata")
    for line in disassemble(art.blob[: art.text_size]):
        print(line)
    if art.rodata_size:
        data = art.blob[art.text_size:]
        print(f"; rodata ({art.rodata_size} B): {data[:64]!r}"
              + ("..." if len(data) > 64 else ""))
    return 0


def _cmd_perf(args) -> int:
    from .bench.shapes import am_injection_rate, am_pingpong
    from .core.config import RuntimeConfig, WaitMode
    from .core.stdworld import make_world
    from .machine.hierarchy import HierarchyConfig

    hier = HierarchyConfig(stash_enabled=not args.nonstash,
                           prefetch_enabled=not args.noprefetch)
    mode = WaitMode.WFE if args.wfe else WaitMode.POLL
    cfg = lambda: RuntimeConfig(wait_mode=mode)  # noqa: E731
    world = make_world(hier_cfg=hier, client_cfg=cfg(), server_cfg=cfg())
    if args.shape == "pingpong":
        out = am_pingpong(world, args.jam, args.size,
                          inject=not args.local, warmup=args.warmup,
                          iters=args.iters, stress=args.stress)
        s = out.stats
        print(f"# {args.jam} size={args.size} "
              f"{'local' if args.local else 'injected'} "
              f"wire={out.wire_size}B mode={mode.value}"
              f"{' +stress' if args.stress else ''}")
        print(f"one-way latency: p50 {s.p50:.1f} ns   p99.9 {s.p999:.1f} ns"
              f"   min {s.minimum:.1f}   max {s.maximum:.1f}")
        print(f"tail spread: {s.tail_spread_pct:.1f}%   "
              f"server cycles/msg: {out.server_cycles_per_iter:.0f}")
    else:
        out = am_injection_rate(world, args.jam, args.size,
                                inject=not args.local,
                                messages=args.messages)
        print(f"# {args.jam} size={args.size} "
              f"{'local' if args.local else 'injected'} wire={out.wire_size}B")
        print(f"message rate: {out.rate_mps / 1e6:.3f} M msg/s   "
              f"wire bw: {out.wire_gbps:.2f} GB/s   "
              f"payload bw: {out.payload_gbps:.3f} GB/s")
    return 0


def _cmd_trace(args) -> int:
    import json as _json

    from .bench.timeline import trace_message

    tl = trace_message(jam=args.jam, payload_bytes=args.size,
                       inject=not args.local, stash=not args.nonstash,
                       wfe=args.wfe)
    if args.json:
        print(_json.dumps(tl.to_dict(), indent=1))
        return 0
    print(f"# {args.jam} size={args.size} "
          f"{'local' if args.local else 'injected'} "
          f"{'nonstash' if args.nonstash else 'stash'} "
          f"{'wfe' if args.wfe else 'poll'}")
    print(tl.render())
    return 0


def _cmd_trace_export(args) -> int:
    from .obs.perfetto import export_figure_trace

    try:
        summary = export_figure_trace(args.figure, args.out,
                                      point_index=args.point,
                                      fast=not args.full)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"wrote {summary['path']}: {summary['events']} events "
          f"({summary['spans']} spans) on {summary['tracks']} tracks "
          f"+ {summary['counter_tracks']} counter tracks")
    print(f"  figure {summary['figure']} point {summary['params']}")
    print(f"  spans: {', '.join(summary['span_names'])}")
    print("  open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_metrics_export(args) -> int:
    import json as _json

    from .obs.metrics import metrics_block, to_prometheus

    try:
        from .obs.metrics import collect_figure_metrics

        snap, info = collect_figure_metrics(args.figure,
                                            point_index=args.point,
                                            fast=not args.full)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.json:
        text = _json.dumps(metrics_block(snap), indent=1) + "\n"
    else:
        text = to_prometheus(snap)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}: {info['counters']} counters, "
              f"{info['gauges']} gauges, {info['histograms']} histograms "
              f"(figure {info['figure']} point {info['params']})",
              file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_figures(args) -> int:
    from .bench.figures import ALL_FIGURES
    from .bench.report import render_figure

    names = args.names or list(ALL_FIGURES)
    for name in names:
        fn = ALL_FIGURES.get(name)
        if fn is None:
            print(f"unknown figure {name!r}; choices: "
                  f"{', '.join(ALL_FIGURES)}", file=sys.stderr)
            return 2
        print(render_figure(fn(fast=not args.full)))
        print()
    return 0


def _cmd_bench_run(args) -> int:
    from .bench.orchestrator import (
        build_meta,
        render_runs_text,
        resolve_jobs,
        resolve_names,
        run_figures,
        write_runs,
    )
    from .bench.resultstore import ResultStore

    try:
        names = resolve_names(args.figures or None)
        jobs = resolve_jobs(args.jobs)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    store = None
    if not args.no_cache:
        cache_dir = args.cache or f"{args.out}/.cache"
        store = ResultStore(cache_dir)
    fast = not args.full
    fork = not args.no_fork
    metrics = not args.no_metrics
    runs = run_figures(names, fast=fast, smoke=args.smoke, jobs=jobs,
                       store=store, trace=args.trace, fork=fork,
                       metrics=metrics,
                       log=None if args.quiet else
                       (lambda m: print(m, file=sys.stderr)))
    meta = build_meta(fast=fast, smoke=args.smoke, jobs=jobs,
                      trace=args.trace, fork=fork, metrics=metrics)
    paths = write_runs(runs, args.out, meta)
    if not args.quiet:
        print(render_runs_text(runs))
        print()
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_bench_diff(args) -> int:
    from .bench.orchestrator import diff_paths
    from .bench.report import render_diff
    from .obs.slo import DEFAULT_HEALTH_THRESHOLD_PCT

    if args.wall_clock and args.health:
        print("--wall-clock and --health are mutually exclusive",
              file=sys.stderr)
        return 2
    threshold = args.threshold
    if threshold is None:
        threshold = (20.0 if args.wall_clock
                     else DEFAULT_HEALTH_THRESHOLD_PCT if args.health
                     else 5.0)
    try:
        diffs, notes = diff_paths(args.base, args.new,
                                  threshold_pct=threshold,
                                  wall_clock=args.wall_clock,
                                  health=args.health)
    except (OSError, ValueError) as exc:
        print(f"cannot diff: {exc}", file=sys.stderr)
        return 2
    print(render_diff(diffs, notes, threshold_pct=threshold))
    return 1 if any(d.regression for d in diffs) else 0


def _cmd_profile(args) -> int:
    import json as _json

    from .bench.profile import profile_figures, render_profile_text

    try:
        report = profile_figures(args.figures or None, fast=not args.full,
                                 smoke=args.quick, top=args.top)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(render_profile_text(report))
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(report, fh, indent=1)
            fh.write("\n")
        print(f"\nwrote {args.json}")
    return 0


def _cmd_bench_list(args) -> int:
    from .bench.figures import full_registry

    for name, spec in full_registry().items():
        npts = len(spec.points(True)), len(spec.points(False))
        print(f"{name:12s} {spec.title}  [{npts[0]} fast / "
              f"{npts[1]} full points]")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twochains",
        description="Two-Chains (CLUSTER'21) reproduction toolchain")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build + install a package from a "
                                     "jam_*.amc / ried_*.rdc source tree")
    p.add_argument("srcdir")
    p.add_argument("-n", "--name", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("inspect", help="show an installed package")
    p.add_argument("installdir")
    p.set_defaults(fn=_cmd_inspect)

    p = sub.add_parser("disas", help="disassemble an element's jam blob")
    p.add_argument("installdir")
    p.add_argument("element")
    p.set_defaults(fn=_cmd_disas)

    p = sub.add_parser("perf", help="run a benchmark shape (perftest analog)")
    p.add_argument("shape", choices=("pingpong", "rate"))
    p.add_argument("--jam", default="jam_ss_sum")
    p.add_argument("--size", type=int, default=64,
                   help="payload bytes (default 64)")
    p.add_argument("--local", action="store_true",
                   help="Local Function frames (no code on the wire)")
    p.add_argument("--wfe", action="store_true", help="WFE wait mode")
    p.add_argument("--nonstash", action="store_true",
                   help="disable LLC stashing")
    p.add_argument("--noprefetch", action="store_true",
                   help="disable the stride prefetcher")
    p.add_argument("--stress", action="store_true",
                   help="run with the stress workload (pingpong only)")
    p.add_argument("--iters", type=int, default=120)
    p.add_argument("--warmup", type=int, default=24)
    p.add_argument("--messages", type=int, default=1000)
    p.set_defaults(fn=_cmd_perf)

    p = sub.add_parser("trace", help="phase breakdown of one message, or "
                                     "'trace export' for Perfetto JSON")
    p.add_argument("--jam", default="jam_indirect_put")
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--local", action="store_true")
    p.add_argument("--nonstash", action="store_true")
    p.add_argument("--wfe", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="print the timeline as JSON instead of text")
    p.set_defaults(fn=_cmd_trace)
    tsub = p.add_subparsers(dest="trace_command", required=False,
                            metavar="export")
    t = tsub.add_parser("export", help="run one traced sweep point, write "
                                       "Chrome/Perfetto trace-event JSON")
    t.add_argument("--figure", default="fig7",
                   help="registered sweep (default fig7; see 'bench list')")
    t.add_argument("--point", type=int, default=0,
                   help="sweep-point index (default 0)")
    t.add_argument("--full", action="store_true",
                   help="index into the full sweep axes")
    t.add_argument("-o", "--out", default="trace.json",
                   help="output path (default trace.json)")
    t.set_defaults(fn=_cmd_trace_export)

    p = sub.add_parser("figures", help="regenerate paper figures")
    p.add_argument("names", nargs="*", metavar="figN")
    p.add_argument("--full", action="store_true",
                   help="full sweep axes (slower)")
    p.set_defaults(fn=_cmd_figures)

    p = sub.add_parser("bench", help="parallel benchmark orchestrator "
                                     "(run / diff / list)")
    bsub = p.add_subparsers(dest="bench_command", required=True)

    b = bsub.add_parser("run", help="run figure sweeps in parallel, "
                                    "write BENCH_<figure>.json files")
    b.add_argument("figures", nargs="*", metavar="figN",
                   help="registered sweeps (default: all; "
                        "see 'bench list')")
    b.add_argument("--jobs", default="auto",
                   help="worker processes, or 'auto' for one per "
                        "available CPU (default: auto)")
    b.add_argument("--full", action="store_true",
                   help="full sweep axes (slower)")
    b.add_argument("--smoke", action="store_true",
                   help="one point per figure (CI smoke target)")
    b.add_argument("--out", default="results/bench",
                   help="output directory (default results/bench)")
    b.add_argument("--cache", default=None,
                   help="point-cache directory (default <out>/.cache)")
    b.add_argument("--no-cache", action="store_true",
                   help="ignore and do not populate the point cache")
    b.add_argument("--trace", action="store_true",
                   help="run every point under the structured tracer and "
                        "embed a phase_breakdown block in the result meta "
                        "(skips cache reads; rows are unchanged)")
    b.add_argument("--no-fork", action="store_true",
                   help="build every world fresh instead of forking warm "
                        "setup-cache checkpoints (slower; rows are "
                        "identical either way)")
    b.add_argument("--no-metrics", action="store_true",
                   help="skip the metrics registry: no meta.metrics "
                        "block in the result files (rows are identical "
                        "either way)")
    b.add_argument("--quiet", action="store_true",
                   help="suppress progress and text tables")
    b.set_defaults(fn=_cmd_bench_run)

    b = bsub.add_parser("diff", help="compare two result sets, flag "
                                     "regressions beyond a noise "
                                     "threshold")
    b.add_argument("base", help="baseline BENCH_*.json file or directory")
    b.add_argument("new", help="new BENCH_*.json file or directory")
    b.add_argument("--threshold", type=float, default=None,
                   help="noise threshold in percent (default 5, "
                        "20 with --wall-clock, 10 with --health)")
    b.add_argument("--wall-clock", action="store_true",
                   help="compare simulator throughput "
                        "(meta.sim_throughput) instead of simulated "
                        "series — flags host-perf regressions")
    b.add_argument("--health", action="store_true",
                   help="compare direction-aware health indicators "
                        "derived from meta.metrics (fc-stall per send, "
                        "dispatch p99, cache hit-rates)")
    b.set_defaults(fn=_cmd_bench_diff)

    b = bsub.add_parser("list", help="list registered sweeps")
    b.set_defaults(fn=_cmd_bench_list)

    p = sub.add_parser("metrics",
                       help="metrics registry tools ('metrics export' "
                            "dumps one sweep point in Prometheus text "
                            "format)")
    msub = p.add_subparsers(dest="metrics_command", required=True,
                            metavar="export")
    m = msub.add_parser("export", help="run one sweep point with metrics "
                                       "attached, dump Prometheus text")
    m.add_argument("--figure", default="fig7",
                   help="registered sweep (default fig7; see 'bench list')")
    m.add_argument("--point", type=int, default=0,
                   help="sweep-point index (default 0)")
    m.add_argument("--full", action="store_true",
                   help="index into the full sweep axes")
    m.add_argument("--json", action="store_true",
                   help="dump the rounded meta.metrics block as JSON "
                        "instead of Prometheus text")
    m.add_argument("-o", "--out", default=None,
                   help="output path (default: stdout)")
    m.set_defaults(fn=_cmd_metrics_export)

    p = sub.add_parser("profile",
                       help="cProfile figure sweeps; report simulator "
                            "throughput, per-subsystem time, hotspots")
    p.add_argument("figures", nargs="*", metavar="figN",
                   help="registered sweeps (default: all)")
    p.add_argument("--quick", action="store_true",
                   help="one point per figure (CI smoke target)")
    p.add_argument("--full", action="store_true",
                   help="full sweep axes (slower)")
    p.add_argument("--top", type=int, default=12,
                   help="hotspot count (default 12)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the report as JSON")
    p.set_defaults(fn=_cmd_profile)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
