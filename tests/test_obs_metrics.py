"""Tests for the sim-time metrics registry and the SLO health gate.

Covers the HDR histogram's percentile accuracy against exact numpy
percentiles on several distributions, the gauge/counter semantics, the
snapshot algebra, both export surfaces (Prometheus text and Perfetto
counter tracks), the determinism contract of ``meta.metrics`` across
scheduling modes, and the direction-aware ``bench diff --health`` gate.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.bench.orchestrator import build_meta, diff_paths, run_figures
from repro.bench.report import render_diff
from repro.cli import main as cli_main
from repro.obs.metrics import (
    METRICS,
    MetricsRegistry,
    bucket_index,
    bucket_mid,
    bucket_upper,
    counter_track_events,
    merge_snapshots,
    metrics_block,
    parse_prometheus,
    split_key,
    to_prometheus,
)
from repro.obs.slo import (
    DEFAULT_HEALTH_THRESHOLD_PCT,
    HealthDiff,
    direction_for,
    floor_for,
    health_diff_payloads,
    health_indicators,
)


class TestBuckets:
    def test_value_lands_inside_its_bucket(self):
        for v in (1e-6, 0.5, 1.0, 3.7, 117.0, 1e9, 2.0**40):
            idx = bucket_index(v)
            assert bucket_mid(idx) == pytest.approx(v, rel=1 / 64)
            assert v <= bucket_upper(idx) * (1 + 1e-12)

    def test_nonpositive_values_share_the_zero_bucket(self):
        from repro.obs.metrics import ZERO_BUCKET

        assert bucket_index(0.0) == bucket_index(-5.0) == ZERO_BUCKET
        assert bucket_mid(ZERO_BUCKET) == 0.0
        assert bucket_upper(ZERO_BUCKET) == 0.0
        # the sentinel is unreachable from, and sorts below, any real value
        assert bucket_index(5e-324) > ZERO_BUCKET

    def test_subunit_values_get_real_buckets(self):
        # frexp exponents go negative below 1.0; those indices must not
        # collapse into the zero bucket.
        for v in (1e-6, 0.25, 0.4999, 0.75):
            idx = bucket_index(v)
            assert bucket_mid(idx) == pytest.approx(v, rel=1 / 64)

    def test_edges_are_monotonic(self):
        idxs = [bucket_index(v) for v in np.geomspace(1e-3, 1e6, 500)]
        assert idxs == sorted(idxs)
        uppers = [bucket_upper(i) for i in sorted(set(idxs))]
        assert uppers == sorted(uppers)


class TestHistogramPercentiles:
    """Satellite contract: HDR percentiles track exact numpy percentiles.

    The bucket midpoint is within 1/64 (~1.6%) of any sample, so every
    reported percentile must be within that relative error of numpy's
    ``interpolation='lower'`` answer (matching the rank-walk).
    """

    @pytest.mark.parametrize("name,values", [
        ("uniform", np.random.RandomState(7).uniform(10.0, 5000.0, 20_000)),
        ("exponential", np.random.RandomState(8).exponential(900.0, 20_000)
         + 1.0),
        ("bimodal", np.concatenate([
            np.random.RandomState(9).normal(120.0, 4.0, 15_000),
            np.random.RandomState(10).normal(9_000.0, 300.0, 5_000)])),
    ])
    def test_vs_numpy(self, name, values):
        reg = MetricsRegistry()
        reg.attach()
        for v in values:
            reg.observe("h", float(v))
        h = reg.hists["h"]
        assert h.count == len(values)
        assert h.sum == pytest.approx(values.sum())
        for q in (50.0, 90.0, 99.0, 99.9):
            exact = float(np.percentile(values, q, method="lower"))
            assert h.percentile(q) == pytest.approx(exact, rel=1 / 60), \
                f"{name} p{q}"

    def test_single_sample_reports_exactly(self):
        reg = MetricsRegistry()
        reg.attach()
        reg.observe("h", 117.25)
        h = reg.hists["h"]
        for q in (50.0, 99.0, 99.9):
            assert h.percentile(q) == 117.25
        assert h.vmin == h.vmax == 117.25

    def test_empty_histogram_has_no_percentiles(self):
        reg = MetricsRegistry()
        reg.attach()
        reg.observe("other", 1.0)
        from repro.obs.metrics import Histogram

        h = Histogram()
        assert h.percentile(50.0) is None
        snap = reg.snapshot()
        assert "h" not in snap["hists"]

    def test_percentiles_clamp_into_min_max(self):
        reg = MetricsRegistry()
        reg.attach()
        reg.observe("h", 100.0)
        reg.observe("h", 100.1)
        p999 = reg.hists["h"].percentile(99.9)
        assert 100.0 <= p999 <= 100.1


class TestGaugeSemantics:
    def test_time_weighted_mean(self):
        reg = MetricsRegistry()
        reg.attach()
        # value 2 held for 10 ns, value 6 held for 30 ns, final sample
        # carries no weight.
        reg.sample("g", 0.0, 2.0)
        reg.sample("g", 10.0, 6.0)
        reg.sample("g", 40.0, 100.0)
        g = reg.gauges["g"]
        assert g.mean() == pytest.approx((2.0 * 10 + 6.0 * 30) / 40.0)
        assert g.value == 100.0 and g.vmin == 2.0 and g.vmax == 100.0

    def test_single_sample_mean_is_the_value(self):
        reg = MetricsRegistry()
        reg.attach()
        reg.sample("g", 5.0, 42.0)
        assert reg.gauges["g"].mean() == 42.0

    def test_clock_restart_does_not_corrupt_integral(self):
        # sim clocks restart across worlds within one sweep point; a
        # negative dt must contribute nothing.
        reg = MetricsRegistry()
        reg.attach()
        reg.sample("g", 100.0, 1.0)
        reg.sample("g", 110.0, 1.0)
        reg.sample("g", 5.0, 1.0)  # new world, clock rewound
        reg.sample("g", 15.0, 1.0)
        g = reg.gauges["g"]
        assert g.integral == pytest.approx(20.0)  # 10 + 0 + 10


class TestRegistryLifecycle:
    def test_disabled_registry_is_default(self):
        assert METRICS.enabled is False

    def test_capture_attaches_and_detaches(self):
        reg = MetricsRegistry()
        with reg.capture() as r:
            assert r.enabled
            r.count("c_total", 1.0)
        assert not reg.enabled
        assert reg.counters["c_total"].value == 1

    def test_attach_clears_by_default(self):
        reg = MetricsRegistry()
        reg.attach()
        reg.count("c_total", 1.0)
        reg.attach()
        assert len(reg) == 0
        reg.count("c_total", 1.0)
        reg.attach(clear=False)
        assert reg.counters["c_total"].value == 1

    def test_stable_only_snapshot_excludes_unstable(self):
        reg = MetricsRegistry()
        reg.attach()
        reg.count("a_total", 1.0, stable=True)
        reg.count("b_total", 1.0, stable=False)
        reg.sample("g", 1.0, 2.0, stable=False)
        reg.observe("h", 3.0, stable=False)
        full = reg.snapshot()
        stable = reg.snapshot(stable_only=True)
        assert set(full["counters"]) == {"a_total", "b_total"}
        assert set(stable["counters"]) == {"a_total"}
        assert not stable["gauges"] and not stable["hists"]


class TestSnapshotAlgebra:
    def _snap(self, reg):
        return reg.snapshot()

    def test_merge_adds_counters_and_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, n in ((a, 3), (b, 4)):
            reg.attach()
            reg.count("c_total", 1.0, n)
            reg.observe("h", 100.0)
            reg.observe("h", 200.0 if reg is b else 100.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["c_total"][0] == 7
        h = merged["hists"]["h"]
        assert h["count"] == 4 and h["min"] == 100.0 and h["max"] == 200.0
        assert sum(h["buckets"].values()) == 4

    def test_merge_gauges_keeps_last_and_combines_extremes(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.attach()
        a.sample("g", 0.0, 5.0)
        a.sample("g", 10.0, 1.0)
        b.attach()
        b.sample("g", 0.0, 9.0)
        b.sample("g", 20.0, 2.0)
        m = merge_snapshots([a.snapshot(), b.snapshot()])["gauges"]["g"]
        last, vmin, vmax, integral, span, n, stable = m
        assert last == 2.0 and vmin == 1.0 and vmax == 9.0
        assert integral == pytest.approx(5.0 * 10 + 9.0 * 20)
        assert span == 30.0 and n == 4 and stable

    def test_merge_tolerates_empty_snapshots(self):
        reg = MetricsRegistry()
        reg.attach()
        reg.count("c_total", 1.0)
        merged = merge_snapshots([{}, reg.snapshot(), None])
        assert merged["counters"]["c_total"][0] == 1

    def test_metrics_block_summarizes(self):
        reg = MetricsRegistry()
        reg.attach()
        reg.count("c_total|node=0", 1.0, 5)
        reg.sample("g|node=0", 0.0, 1.0)
        reg.sample("g|node=0", 10.0, 3.0)
        for v in (100.0, 200.0, 300.0):
            reg.observe("h|node=0", v)
        block = metrics_block(reg.snapshot())
        assert block["counters"]["c_total|node=0"] == 5
        g = block["gauges"]["g|node=0"]
        assert g["last"] == 3.0 and g["mean"] == 1.0 and g["samples"] == 2
        h = block["histograms"]["h|node=0"]
        assert h["count"] == 3 and h["min"] == 100.0 and h["max"] == 300.0
        assert 100.0 <= h["p50"] <= 300.0 and h["p999"] == 300.0
        # the block is JSON-clean
        json.dumps(block)


class TestPrometheus:
    def _sample_registry(self):
        reg = MetricsRegistry()
        reg.attach()
        reg.count("tc_x_total|node=0", 1.0, 3)
        reg.count("tc_x_total|node=1", 1.0, 4)
        reg.sample("tc_g|node=0|level=l1d", 2.0, 0.75)
        for v in (10.0, 20.0, 30.0, 40.0):
            reg.observe("tc_h_ns|node=0", v)
        return reg

    def test_round_trip(self):
        text = to_prometheus(self._sample_registry().snapshot())
        fams = parse_prometheus(text)
        assert fams["tc_x_total"]["type"] == "counter"
        assert {tuple(sorted(lbl.items())) for _, lbl, _ in
                fams["tc_x_total"]["samples"]} == {
                    (("node", "0"),), (("node", "1"),)}
        assert fams["tc_g"]["type"] == "gauge"
        ((_, labels, value),) = fams["tc_g"]["samples"]
        assert labels == {"node": "0", "level": "l1d"} and value == 0.75
        hist = fams["tc_h_ns"]
        assert hist["type"] == "histogram"
        buckets = [(lbl, v) for name, lbl, v in hist["samples"]
                   if name == "tc_h_ns_count"]
        assert buckets == [({"node": "0"}, 4.0)]
        # cumulative buckets end at +Inf == count
        infs = [v for name, lbl, v in hist["samples"]
                if name == "tc_h_ns_bucket" and lbl.get("le") == "+Inf"]
        assert infs == [4.0]
        cums = [v for name, lbl, v in hist["samples"]
                if name == "tc_h_ns_bucket"]
        assert cums == sorted(cums)

    def test_malformed_lines_raise(self):
        with pytest.raises(ValueError):
            parse_prometheus("tc_x_total{node=0} 3\n")  # unquoted label
        with pytest.raises(ValueError):
            parse_prometheus("loneword\n")
        with pytest.raises(ValueError):
            parse_prometheus("tc_x_total nope\n")

    def test_split_key(self):
        assert split_key("n|a=1|b=x") == ("n", {"a": "1", "b": "x"})
        assert split_key("n") == ("n", {})


class TestCounterTracks:
    def test_node_label_routes_to_node_pid(self):
        reg = MetricsRegistry()
        reg.attach()
        reg.count("tc_x_total|node=1", 5.0)
        reg.count("tc_x_total|node=1", 7.0)
        reg.sample("tc_free|kind=a", 3.0, 0.5)
        events = counter_track_events(reg)
        by_name = {}
        for ph, pid, tid, name, ts, dur, args in events:
            assert ph == "C" and tid == 0 and dur == 0.0
            by_name.setdefault(name, []).append((pid, ts, args["value"]))
        assert by_name["tc_x_total"] == [(2, 5.0, 1), (2, 7.0, 2)]
        assert by_name["tc_free{kind=a}"] == [(0, 3.0, 0.5)]

    def test_histograms_do_not_emit_tracks(self):
        reg = MetricsRegistry()
        reg.attach()
        reg.observe("tc_h_ns|node=0", 1.0)
        assert counter_track_events(reg) == []


FIGURE = "fig7"


def _figure_metrics(jobs, fork):
    (run,) = run_figures([FIGURE], smoke=True, jobs=jobs, store=None,
                         fork=fork)
    snap = run.metrics_snapshot
    assert snap is not None
    return metrics_block(snap)


class TestMetaMetricsDeterminism:
    """Satellite contract: ``meta.metrics`` is identical across ``--jobs``
    settings and fork vs ``--no-fork`` world reuse."""

    def test_jobs_and_fork_invariance(self):
        baseline = _figure_metrics(jobs=1, fork=True)
        assert baseline["counters"] and baseline["histograms"]
        assert _figure_metrics(jobs=2, fork=True) == baseline
        assert _figure_metrics(jobs=1, fork=False) == baseline

    def test_no_metrics_run_has_no_snapshot(self):
        (run,) = run_figures([FIGURE], smoke=True, jobs=1, store=None,
                             metrics=False)
        assert run.metrics_snapshot is None
        meta = build_meta(fast=True, smoke=True, jobs=1, metrics=False)
        assert meta["metrics_enabled"] is False


def _payload(figure="figchain", *, stall=1000.0, sends=100.0, p99=250.0,
             hit=0.95):
    return {
        "figure": figure,
        "meta": {
            "metrics": {
                "counters": {
                    f"tc_fc_stall_ns_total|node={n}": stall for n in (0, 1)
                } | {
                    f"tc_am_sends_total|node={n}": sends for n in (0, 1)
                },
                "gauges": {
                    "tc_cache_hit_rate|node=0|level=l1d":
                        {"last": hit, "min": hit, "max": hit, "mean": hit,
                         "samples": 10},
                },
                "histograms": {
                    "tc_mb_dispatch_ns|node=1":
                        {"count": 100, "sum": 9999.0, "min": 50.0,
                         "max": 400.0, "p50": 120.0, "p90": 180.0,
                         "p99": p99, "p999": 390.0},
                },
            },
        },
    }


class TestHealthGate:
    def test_indicators_extracted(self):
        ind = health_indicators(_payload())
        assert ind["fc_stall_ns_per_send"] == pytest.approx(10.0)
        assert ind["mb_dispatch_p99_ns"] == 250.0
        assert ind["cache_hit_rate_l1d"] == 0.95

    def test_no_metrics_payload_is_a_note(self):
        diffs, notes = health_diff_payloads({"figure": "fig5", "meta": {}},
                                            {"figure": "fig5", "meta": {}})
        assert diffs == [] and "no health indicators" in notes[0]

    def test_injected_fc_stall_regression_is_flagged(self):
        base = _payload()
        bad = _payload(stall=10_000.0)  # 10x the stall time per send
        diffs, _notes = health_diff_payloads(base, bad)
        stall = next(d for d in diffs if d.series == "fc_stall_ns_per_send")
        assert stall.regression and stall.mean_pct == pytest.approx(900.0)
        # everything else is unchanged, hence not regressed
        assert all(not d.regression for d in diffs
                   if d.series != "fc_stall_ns_per_send")
        # and the reverse direction is an improvement, not a regression
        diffs, _ = health_diff_payloads(bad, base)
        assert not any(d.regression for d in diffs)

    def test_hit_rate_drop_is_a_regression(self):
        diffs, _ = health_diff_payloads(_payload(hit=0.95),
                                        _payload(hit=0.70))
        hr = next(d for d in diffs if d.series == "cache_hit_rate_l1d")
        assert hr.direction == "higher" and hr.regression

    def test_tiny_absolute_deltas_are_noise(self):
        # doubles relatively, but moves far below the absolute floor
        diffs, _ = health_diff_payloads(_payload(stall=0.02),
                                        _payload(stall=0.04))
        stall = next(d for d in diffs if d.series == "fc_stall_ns_per_send")
        assert stall.mean_pct == pytest.approx(100.0)
        assert not stall.regression

    def test_zero_baseline_clamps_display_pct(self):
        diffs, _ = health_diff_payloads(_payload(stall=0.0),
                                        _payload(stall=1000.0))
        fc = next(d for d in diffs if d.series == "fc_stall_ns_per_send")
        assert fc.regression and fc.mean_pct == 999.99

    def test_one_sided_indicator_is_a_note(self):
        lopsided = _payload()
        del lopsided["meta"]["metrics"]["gauges"][
            "tc_cache_hit_rate|node=0|level=l1d"]
        diffs, notes = health_diff_payloads(_payload(), lopsided)
        assert any("cache_hit_rate_l1d only in base" in n for n in notes)
        assert not any(d.series == "cache_hit_rate_l1d" for d in diffs)

    def test_direction_and_floor_defaults(self):
        assert direction_for("cache_hit_rate_llc") == "higher"
        assert direction_for("unknown_metric") == "lower"
        assert floor_for("unknown_metric") == 0.0

    def test_renders_through_report(self):
        diffs, notes = health_diff_payloads(_payload(),
                                            _payload(stall=10_000.0))
        text = render_diff(diffs, notes,
                           threshold_pct=DEFAULT_HEALTH_THRESHOLD_PCT)
        assert "fc_stall_ns_per_send" in text
        assert isinstance(diffs[0], HealthDiff)


class TestHealthDiffCli:
    def _write(self, tmp_path, name, payload):
        d = tmp_path / name
        d.mkdir()
        (d / "BENCH_figchain.json").write_text(json.dumps(payload))
        return d

    def test_cli_health_gate_fails_on_regression(self, tmp_path, capsys):
        base = self._write(tmp_path, "base", _payload())
        bad = self._write(tmp_path, "bad", _payload(stall=10_000.0))
        assert cli_main(["bench", "diff", str(base), str(bad),
                         "--health"]) == 1
        out = capsys.readouterr().out
        assert "fc_stall_ns_per_send" in out
        assert cli_main(["bench", "diff", str(base), str(base),
                         "--health"]) == 0
        capsys.readouterr()

    def test_wall_clock_and_health_are_exclusive(self, tmp_path, capsys):
        base = self._write(tmp_path, "a", _payload())
        assert cli_main(["bench", "diff", str(base), str(base),
                         "--health", "--wall-clock"]) == 2
        capsys.readouterr()

    def test_diff_paths_health_route(self, tmp_path):
        base = self._write(tmp_path, "x", _payload())
        bad = self._write(tmp_path, "y", _payload(p99=1000.0))
        diffs, _notes = diff_paths(base, bad, health=True)
        assert any(d.series == "mb_dispatch_p99_ns" and d.regression
                   for d in diffs)


class TestMetricsCli:
    def test_metrics_export_prometheus(self, capsys):
        assert cli_main(["metrics", "export", "--figure", "fig7"]) == 0
        text = capsys.readouterr().out
        fams = parse_prometheus(text)
        assert len(fams) >= 10
        assert "tc_am_sends_total" in fams
        assert any(f["type"] == "histogram" for f in fams.values())

    def test_metrics_export_json(self, capsys, tmp_path):
        out = tmp_path / "m.json"
        assert cli_main(["metrics", "export", "--figure", "fig7",
                         "--json", "-o", str(out)]) == 0
        capsys.readouterr()
        block = json.loads(out.read_text())
        assert block["counters"] and block["histograms"]

    def test_metrics_export_unknown_figure(self, capsys):
        assert cli_main(["metrics", "export", "--figure", "nope"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_trace_export_counts_counter_tracks(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        assert cli_main(["trace", "export", "--figure", "fig7",
                         "-o", str(out)]) == 0
        assert "counter tracks" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        cs = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert len({(e["pid"], e["name"]) for e in cs}) >= 3
        for e in cs:
            assert "value" in e["args"]
            assert "dur" not in e and "s" not in e


class TestNaNRounding:
    def test_round_handles_hostile_floats(self):
        from repro.obs.metrics import _round

        assert _round(math.inf) is None
        assert _round(math.nan) is None
        assert _round(2.0) == 2
        assert _round(2.5004) == 2.5
        assert _round(3) == 3
