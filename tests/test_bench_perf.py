"""Simulator-throughput instrumentation: counters, profile, wall-clock diff.

Covers :mod:`repro.perf` (the process-wide SimCounters and the
``sim_throughput`` block), ``twochains profile`` (cProfile + counter
report), and ``bench diff --wall-clock`` (host-performance regression
detection on ``meta.sim_throughput``).
"""

from __future__ import annotations

import json

import pytest

from repro.bench.orchestrator import (
    diff_paths,
    run_figures,
    wall_clock_diff_payloads,
)
from repro.bench.profile import profile_figures, render_profile_text
from repro.cli import main as cli_main
from repro.perf import COUNTERS, SimCounters, throughput

CHEAP = "abl_got"       # structural sweep, no DES
DES_FIG = "fig7"        # cheap sweep exercising VM + hierarchy + DES


# ---------------------------------------------------------------------------
# SimCounters / throughput
# ---------------------------------------------------------------------------

def test_counters_snapshot_delta_reset():
    c = SimCounters()
    before = c.snapshot()
    c.instructions += 10
    c.cache_probes += 4
    c.des_events += 2
    c.sim_ns += 1.5
    c.fused_instructions += 80
    c.block_invalidations += 1
    assert c.delta(before) == {"instructions": 10, "cache_probes": 4,
                               "des_events": 2, "sim_ns": 1.5,
                               "fused_instructions": 80,
                               "block_invalidations": 1}
    c.reset()
    assert c.snapshot() == {"instructions": 0, "cache_probes": 0,
                            "des_events": 0, "sim_ns": 0.0,
                            "fused_instructions": 0,
                            "block_invalidations": 0}


def test_throughput_block_rates():
    tp = throughput({"instructions": 1000, "cache_probes": 500,
                     "des_events": 20, "sim_ns": 4000.0}, wall_s=2.0)
    assert tp["instructions"] == 1000
    assert tp["instructions_per_s"] == pytest.approx(500.0)
    assert tp["sim_ns_per_wall_s"] == pytest.approx(2000.0)
    assert tp["wall_s"] == pytest.approx(2.0)
    # zero wall-clock must not divide by zero (fully cached runs)
    assert throughput({}, 0.0)["instructions_per_s"] == 0


def test_simulation_work_bumps_process_counters():
    before = COUNTERS.snapshot()
    run_figures([DES_FIG], smoke=True, jobs=1)
    d = COUNTERS.delta(before)
    assert d["instructions"] > 0
    assert d["cache_probes"] > 0
    assert d["des_events"] > 0
    assert d["sim_ns"] > 0


def test_run_figures_records_per_point_sim_deltas():
    run = run_figures([DES_FIG], smoke=True, jobs=1)[0]
    assert all(rec.sim is not None for rec in run.points)
    total = run.sim_counters
    assert total["instructions"] > 0 and total["sim_ns"] > 0


# ---------------------------------------------------------------------------
# twochains profile
# ---------------------------------------------------------------------------

def test_profile_smoke_report_shape():
    report = profile_figures([CHEAP], smoke=True)
    assert report["figures"] == [CHEAP]
    assert report["points"] == 1 and report["smoke"] is True
    assert report["wall_s"] >= 0
    assert set(report["sim_throughput"]) >= {"instructions", "sim_ns",
                                             "sim_ns_per_wall_s"}
    assert report["subsystems"], "subsystem rollup is empty"
    # hotspots are repro-internal functions, sorted by tottime
    times = [h["tottime_s"] for h in report["hotspots"]]
    assert times == sorted(times, reverse=True)
    # the report is JSON-able as documented
    json.dumps(report)
    text = render_profile_text(report)
    assert "simulator throughput" in text and CHEAP in text


def test_cli_profile_quick(tmp_path, capsys):
    out = tmp_path / "profile.json"
    assert cli_main(["profile", CHEAP, "--quick", "--json", str(out)]) == 0
    assert "time by subsystem" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["figures"] == [CHEAP] and report["smoke"] is True


def test_cli_profile_rejects_unknown_figure(capsys):
    assert cli_main(["profile", "nosuchfig", "--quick"]) == 2
    assert "unknown figure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench diff --wall-clock
# ---------------------------------------------------------------------------

def _wc_payload(rate):
    return {"figure": "figX",
            "meta": {"sim_throughput": {"sim_ns_per_wall_s": rate}}}


def test_wall_clock_diff_flags_throughput_drop():
    diffs, notes = wall_clock_diff_payloads(_wc_payload(1000.0),
                                            _wc_payload(700.0))
    assert not notes and len(diffs) == 1
    d = diffs[0]
    assert d.series == "sim_ns_per_wall_s" and d.direction == "higher"
    assert d.mean_pct == pytest.approx(-30.0)
    assert d.regression


def test_wall_clock_diff_improvement_and_noise_ok():
    assert not any(d.regression for d, in
                   [wall_clock_diff_payloads(_wc_payload(1000.0),
                                             _wc_payload(3000.0))[0]])
    diffs, _ = wall_clock_diff_payloads(_wc_payload(1000.0),
                                        _wc_payload(900.0))
    assert not diffs[0].regression  # -10% is inside the 20% default band
    diffs, _ = wall_clock_diff_payloads(_wc_payload(1000.0),
                                        _wc_payload(900.0), threshold_pct=5.0)
    assert diffs[0].regression


def test_wall_clock_diff_skips_cached_or_preschema_runs():
    no_tp = {"figure": "figX", "meta": {}}
    diffs, notes = wall_clock_diff_payloads(no_tp, _wc_payload(1000.0))
    assert not diffs and any("baseline" in n for n in notes)
    diffs, notes = wall_clock_diff_payloads(_wc_payload(1000.0), no_tp)
    assert not diffs and any("new result" in n for n in notes)


def test_diff_paths_wall_clock_mode(tmp_path):
    base_dir, new_dir = tmp_path / "base", tmp_path / "new"
    base_dir.mkdir(), new_dir.mkdir()
    (base_dir / "BENCH_figX.json").write_text(json.dumps(_wc_payload(1000.0)))
    (new_dir / "BENCH_figX.json").write_text(json.dumps(_wc_payload(500.0)))
    diffs, notes = diff_paths(base_dir, new_dir, wall_clock=True)
    assert len(diffs) == 1 and diffs[0].regression

    # same files, series mode: no directions map, nothing to diff
    diffs, notes = diff_paths(base_dir, new_dir)
    assert not diffs


def test_cli_bench_diff_wall_clock(tmp_path, capsys):
    base_dir, new_dir = tmp_path / "base", tmp_path / "new"
    base_dir.mkdir(), new_dir.mkdir()
    (base_dir / "BENCH_figX.json").write_text(json.dumps(_wc_payload(1000.0)))
    (new_dir / "BENCH_figX.json").write_text(json.dumps(_wc_payload(500.0)))
    rc = cli_main(["bench", "diff", "--wall-clock",
                   str(base_dir), str(new_dir)])
    assert rc == 1  # regression exits non-zero
    assert "REGRESSION" in capsys.readouterr().out
    assert cli_main(["bench", "diff", "--wall-clock",
                     str(base_dir), str(base_dir)]) == 0
