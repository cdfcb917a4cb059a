"""The structured tracing subsystem: tracer, export, attribution.

Covers :mod:`repro.obs` (span/instant recording, the track model,
Perfetto export, phase attribution), the instrumentation threaded
through the model layers (span nesting across one injected send), the
``--trace`` path of the bench orchestrator, and the zero-cost-when-
disabled contract.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import pytest

from repro.bench.figures import FigureSpec, assemble, full_registry
from repro.bench.orchestrator import build_meta, run_figures, write_runs
from repro.cli import main as cli_main
from repro.obs.attribution import (
    last_span,
    phase_breakdown,
    phase_durations,
    span_children,
)
from repro.obs.perfetto import (
    export_figure_trace,
    to_trace_document,
    to_trace_events,
)
from repro.obs.tracer import (
    PID_SIM,
    TID_DES,
    TID_HCA,
    TID_TOOL,
    TRACER,
    Tracer,
    node_pid,
)

FIG = "fig7"
BASELINE = Path(__file__).resolve().parent.parent / "results" / "bench"


def _fig7_events() -> list[tuple]:
    """One traced fig7 smoke point (cached per test session)."""
    global _EVENTS
    if _EVENTS is None:
        spec = full_registry()[FIG]
        params = spec.points(True)[0]
        with TRACER.capture():
            spec.point(**params)
            _EVENTS = list(TRACER.events)
    return _EVENTS


_EVENTS: list[tuple] | None = None


# ---------------------------------------------------------------------------
# Tracer API
# ---------------------------------------------------------------------------

class TestTracer:
    def test_disabled_by_default_and_capture_lifecycle(self):
        t = Tracer()
        assert not t.enabled and len(t) == 0
        with t.capture():
            assert t.enabled
            t.span(0, 0, "a", 10.0, 20.0)
        assert not t.enabled
        assert len(t) == 1  # events stay readable after detach

    def test_attach_clears_by_default(self):
        t = Tracer()
        t.attach()
        t.instant(0, 0, "x", 5.0)
        t.detach()
        t.attach(clear=False)
        assert len(t) == 1
        t.attach()  # clear=True
        assert len(t) == 0

    def test_span_and_instant_tuple_shape(self):
        t = Tracer()
        t.attach()
        t.span(2, 64, "rdma.put", 100.0, 250.0, {"size": 64})
        t.instant(0, 1, "got.rewrite", 90.0)
        span, inst = t.events
        assert span == ("X", 2, 64, "rdma.put", 100.0, 150.0, {"size": 64})
        assert inst == ("i", 0, 1, "got.rewrite", 90.0, 0.0, None)
        assert t.tracks() == {(2, 64), (0, 1)}
        assert t.spans("rdma.put") == [span]
        assert t.instants() == [inst]

    def test_negative_duration_clamps_to_zero(self):
        t = Tracer()
        t.attach()
        t.span(0, 0, "bad", 100.0, 90.0)
        assert t.events[0][5] == 0.0

    def test_ts_hint_tracks_largest_timestamp(self):
        t = Tracer()
        t.attach()
        assert t.ts_hint() == 0.0
        t.span(0, 0, "a", 10.0, 50.0)
        t.instant(0, 0, "b", 30.0)
        assert t.ts_hint() == 50.0

    def test_track_model_constants(self):
        assert PID_SIM == 0 and TID_DES == 0 and TID_TOOL == 1
        assert TID_HCA == 64
        assert node_pid(0) == 1 and node_pid(1) == 2


# ---------------------------------------------------------------------------
# figures.assemble: per-point counter fan-in (orchestrator)
# ---------------------------------------------------------------------------

class TestScoreboardMerge:
    def test_merge_bare_dict_like_pool_workers_ship(self):
        # pool workers ship each point's node-board counters as a plain
        # dict in the row; the figure's counters are their sum, by name
        spec = FigureSpec(name="figX", title="t", x_label="x",
                          points=lambda fast: [], point=lambda: {})
        rows = [{"x": 1, "lat": 1.0, "_counters": {"x": 1}},
                {"x": 2, "lat": 2.0, "_counters": {"x": 4, "y": 1}},
                {"x": 3, "lat": 3.0, "_counters": {"y": 2}},
                {"x": 4, "lat": 4.0}]
        result = assemble(spec, rows)
        assert result.counters == {"x": 5, "y": 3}
        assert list(result.counters) == ["x", "y"]  # sorted by name
        assert result.series == {"lat": [1.0, 2.0, 3.0, 4.0]}


# ---------------------------------------------------------------------------
# Instrumented model layers: one traced fig7 point
# ---------------------------------------------------------------------------

class TestInstrumentation:
    def test_at_least_five_tracks_and_all_layers_present(self):
        events = _fig7_events()
        tracks = {(e[1], e[2]) for e in events}
        assert len(tracks) >= 5
        # DES loop, both HCAs, both waiter/client cores
        assert (PID_SIM, TID_DES) in tracks
        assert (node_pid(0), TID_HCA) in tracks
        assert (node_pid(1), TID_HCA) in tracks
        assert (node_pid(0), 0) in tracks and (node_pid(1), 0) in tracks
        names = {e[3] for e in events if e[0] == "X"}
        assert {"am.send", "am.post", "rdma.put", "rdma.flight",
                "rdma.dma_write", "mb.wait", "mb.sig_read", "mb.parse",
                "mb.dispatch", "mb.invoke", "vm.call"} <= names
        # toolchain GOT rewrites and cache misses arrive as instants
        inames = {e[3] for e in events if e[0] == "i"}
        assert "got.rewrite" in inames
        assert any(n.startswith("cache.miss.") for n in inames)

    def test_span_nesting_across_one_injected_send(self):
        events = _fig7_events()
        # sender core: am.send contains the update and the post
        send = last_span(events, "am.send")
        kids = {e[3] for e in span_children(events, send)}
        assert {"am.update", "am.post"} <= kids
        # sender HCA: rdma.put contains post + flight
        put = last_span(events, "rdma.put")
        kids = {e[3] for e in span_children(events, put)}
        assert {"rdma.post", "rdma.flight"} <= kids
        # waiter core: dispatch contains parse + invoke, invoke holds the VM
        disp = last_span(events, "mb.dispatch")
        kids = {e[3] for e in span_children(events, disp)}
        assert {"mb.parse", "mb.invoke"} <= kids
        inv = last_span(events, "mb.invoke")
        assert "vm.call" in {e[3] for e in span_children(events, inv)}
        # wake: mb.wait contains the signal read
        wait = last_span(events, "mb.wait")
        assert "mb.sig_read" in {e[3] for e in span_children(events, wait)}

    def test_instrumentation_is_silent_when_disabled(self):
        assert not TRACER.enabled
        before = len(TRACER.events)
        spec = full_registry()[FIG]
        spec.point(**spec.points(True)[0])
        assert len(TRACER.events) == before

    def test_trace_is_deterministic_across_identical_runs(self):
        spec = full_registry()[FIG]
        params = spec.points(True)[0]
        runs = []
        for _ in range(2):
            with TRACER.capture():
                spec.point(**params)
                runs.append(list(TRACER.events))
        assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Perfetto export
# ---------------------------------------------------------------------------

class TestPerfettoExport:
    def test_trace_event_schema(self):
        events = _fig7_events()
        out = to_trace_events(events)
        meta = [e for e in out if e["ph"] == "M"]
        rest = [e for e in out if e["ph"] != "M"]
        # metadata first: one process_name per pid, one thread_name per track
        assert out[: len(meta)] == meta
        assert {m["name"] for m in meta} == {"process_name", "thread_name"}
        tracks = {(e[1], e[2]) for e in events}
        assert sum(m["name"] == "thread_name" for m in meta) == len(tracks)
        for ev in rest:
            assert {"ph", "name", "cat", "pid", "tid", "ts"} <= ev.keys()
            if ev["ph"] == "X":
                assert ev["dur"] >= 0.0
            else:
                assert ev["ph"] == "i" and ev["s"] == "t"
        # ts/dur are microseconds
        span = next(e for e in events if e[0] == "X")
        exported = next(e for e in rest if e["ph"] == "X")
        assert exported["ts"] == pytest.approx(span[4] / 1000.0)
        doc = to_trace_document(events)
        assert doc["displayTimeUnit"] == "ns"
        json.dumps(doc)  # serializable as claimed

    def test_export_figure_trace_writes_loadable_json(self, tmp_path):
        out = tmp_path / "trace.json"
        summary = export_figure_trace(FIG, out)
        doc = json.loads(out.read_text())
        assert summary["figure"] == FIG
        assert summary["tracks"] >= 5
        n_meta = sum(e["ph"] == "M" for e in doc["traceEvents"])
        assert len(doc["traceEvents"]) == summary["events"] + n_meta
        assert sum(e["ph"] == "X"
                   for e in doc["traceEvents"]) == summary["spans"]
        assert "vm.call" in summary["span_names"]

    def test_export_rejects_unknown_figure_and_point(self, tmp_path):
        with pytest.raises(ValueError, match="unknown figure"):
            export_figure_trace("nosuchfig", tmp_path / "x.json")
        with pytest.raises(ValueError, match="out of range"):
            export_figure_trace(FIG, tmp_path / "x.json", point_index=99)

    def test_export_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        export_figure_trace(FIG, a)
        export_figure_trace(FIG, b)
        assert a.read_bytes() == b.read_bytes()

    def test_cli_trace_export(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert cli_main(["trace", "export", "--figure", FIG,
                         "-o", str(out)]) == 0
        assert "tracks" in capsys.readouterr().out
        assert json.loads(out.read_text())["traceEvents"]
        assert cli_main(["trace", "export", "--figure", "nope",
                         "-o", str(out)]) == 2


# ---------------------------------------------------------------------------
# Phase attribution + bench --trace
# ---------------------------------------------------------------------------

class TestPhaseBreakdown:
    def test_phase_durations_groups_by_name(self):
        events = [("X", 0, 0, "a", 0.0, 5.0, None),
                  ("i", 0, 0, "b", 1.0, 0.0, None),
                  ("X", 0, 0, "a", 10.0, 7.0, None)]
        durs = phase_durations(events)
        assert durs == {"a": [5.0, 7.0]}
        # accumulates in place across points
        phase_durations([("X", 0, 0, "c", 0.0, 1.0, None)], durs)
        assert set(durs) == {"a", "c"}

    def test_phase_breakdown_summary_fields(self):
        pb = phase_breakdown({"a": [1.0, 3.0], "b": [2.0], "empty": []})
        assert list(pb) == ["a", "b"]  # sorted, empties dropped
        assert pb["a"] == {"count": 2, "p50_ns": 2.0, "p95_ns": 2.9,
                           "mean_ns": 2.0, "total_ns": 4.0}

    def test_traced_run_attaches_phases_and_rows_match_untraced(self):
        plain = run_figures([FIG], smoke=True, jobs=1)[0]
        traced = run_figures([FIG], smoke=True, jobs=1, trace=True)[0]
        # tracing must not change the simulated numbers
        assert [r.row for r in traced.points] == [r.row for r in plain.points]
        assert all(r.phases for r in traced.points)
        assert all(r.phases is None for r in plain.points)
        durs = traced.phase_durs
        assert "am.send" in durs and "vm.call" in durs

    def test_write_runs_embeds_phase_breakdown_meta(self, tmp_path):
        runs = run_figures([FIG], smoke=True, jobs=1, trace=True)
        meta = build_meta(fast=True, smoke=True, jobs=1)
        paths = write_runs(runs, tmp_path, meta)
        payload = json.loads(paths[0].read_text())
        pb = payload["meta"]["phase_breakdown"]
        assert list(pb) == sorted(pb)
        for block in pb.values():
            assert set(block) == {"count", "p50_ns", "p95_ns", "mean_ns",
                                  "total_ns"}
        # untraced runs carry no block
        runs = run_figures([FIG], smoke=True, jobs=1)
        payload = json.loads(write_runs(runs, tmp_path, meta)[0].read_text())
        assert "phase_breakdown" not in payload["meta"]

    def test_cli_bench_run_trace(self, tmp_path, capsys):
        assert cli_main(["bench", "run", FIG, "--smoke", "--trace",
                         "--no-cache", "--quiet",
                         "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / f"BENCH_{FIG}.json").read_text())
        assert payload["meta"]["phase_breakdown"]


# ---------------------------------------------------------------------------
# Tracer-off overhead
# ---------------------------------------------------------------------------

class TestOverhead:
    def test_untraced_throughput_near_committed_baseline(self):
        """The disabled-tracer predicate must not slow the simulator.

        Compares sim_ns_per_wall_s of a fresh untraced fig7 smoke run
        against the committed baseline, which was regenerated on the
        same host as this instrumentation.  Wall-clock on a shared
        machine is noisy, so the band is generous (40% of baseline);
        a real always-on tracing bug costs integer factors, not tens of
        percent.  Skipped off the baseline host, where absolute
        throughput is meaningless to compare.
        """
        path = BASELINE / f"BENCH_{FIG}.json"
        if not path.exists():
            pytest.skip("no committed baseline")
        payload = json.loads(path.read_text())
        base = payload["meta"].get("sim_throughput", {}).get(
            "sim_ns_per_wall_s")
        if not base:
            pytest.skip("baseline is fully cached (no throughput)")
        if payload["meta"].get("host") != platform.node():
            pytest.skip("different host than baseline")
        run = run_figures([FIG], smoke=True, jobs=1)[0]
        tp = run.sim_counters["sim_ns"] / max(run.wall_s, 1e-9)
        assert tp > 0.4 * base, (
            f"untraced throughput {tp:.0f} sim-ns/s fell below 40% of "
            f"the committed baseline {base:.0f}")

    def test_metrics_off_throughput_near_committed_baseline(self):
        """`--no-metrics` walls must be unchanged: with the registry
        disabled the instrumentation is a single attribute check, so a
        metrics-off run must hold the same generous band against the
        committed (metrics-on) baseline as the untraced guard above.
        Same skips: wall-clock comparisons only mean something on the
        host that produced the baseline."""
        path = BASELINE / f"BENCH_{FIG}.json"
        if not path.exists():
            pytest.skip("no committed baseline")
        payload = json.loads(path.read_text())
        base = payload["meta"].get("sim_throughput", {}).get(
            "sim_ns_per_wall_s")
        if not base:
            pytest.skip("baseline is fully cached (no throughput)")
        if payload["meta"].get("host") != platform.node():
            pytest.skip("different host than baseline")
        run = run_figures([FIG], smoke=True, jobs=1, metrics=False)[0]
        assert run.metrics_snapshot is None
        tp = run.sim_counters["sim_ns"] / max(run.wall_s, 1e-9)
        assert tp > 0.4 * base, (
            f"metrics-off throughput {tp:.0f} sim-ns/s fell below 40% "
            f"of the committed baseline {base:.0f}")
