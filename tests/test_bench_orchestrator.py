"""Tests for the parallel benchmark orchestrator and its result store.

Covers the tentpole contract of ``twochains bench``: registry
completeness (every benchmarks/bench_*.py script drives a registered
sweep), cache hit/miss/tamper behaviour, the BENCH_<figure>.json schema
round-trip, and direction-aware regression detection in ``bench diff``.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

from repro.bench.figures import full_registry, run_spec
from repro.bench.orchestrator import (
    build_meta,
    diff_paths,
    diff_payloads,
    resolve_jobs,
    resolve_names,
    run_figures,
    write_runs,
)
from repro.bench.report import render_diff
from repro.bench.resultstore import (
    SCHEMA_VERSION,
    ResultStore,
    config_fingerprint,
    point_key,
)
from repro.cli import main as cli_main

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

# The cheapest registered sweep: structural GOT-rewrite counts, no DES.
CHEAP = "abl_got"


# ---------------------------------------------------------------------------
# registry completeness
# ---------------------------------------------------------------------------

def _referenced_sweeps(path: Path) -> set[str]:
    """Sweep names a benchmark script requests from the registry."""
    text = path.read_text()
    return set(re.findall(r'(?:figure|run_spec)\(\s*"([^"]+)"', text))


def test_every_bench_script_uses_a_registered_sweep():
    registry = full_registry()
    scripts = sorted(BENCH_DIR.glob("bench_*.py"))
    assert scripts, "no benchmark scripts found"
    for script in scripts:
        names = _referenced_sweeps(script)
        assert names, f"{script.name} does not drive any registered sweep"
        missing = names - registry.keys()
        assert not missing, f"{script.name} references unregistered {missing}"


def test_registry_covers_all_paper_figures():
    registry = full_registry()
    expected = {"fig5", "fig6", "fig7", "fig7_sum", "fig8", "fig9",
                "fig10", "fig10_sum", "fig11", "fig12", "fig13", "fig14",
                "abl_adaptive", "abl_mailbox", "abl_multicore",
                "abl_prefetch", "abl_security", "abl_got"}
    assert expected <= registry.keys()


def test_specs_have_serializable_unique_points():
    for name, spec in full_registry().items():
        for fast in (True, False):
            points = spec.points(fast)
            assert points, f"{name}: empty sweep (fast={fast})"
            blobs = [json.dumps(p, sort_keys=True) for p in points]
            assert len(set(blobs)) == len(blobs), f"{name}: duplicate points"
        for direction in spec.directions.values():
            assert direction in ("lower", "higher"), (name, direction)


def test_resolve_names_rejects_unknown():
    assert resolve_names(None) == list(full_registry())
    assert resolve_names([CHEAP]) == [CHEAP]
    with pytest.raises(ValueError, match="nosuchfig"):
        resolve_names(["nosuchfig"])


def test_jobs_auto_follows_the_cpu_affinity_mask(monkeypatch):
    """Under taskset or a cgroup cpuset, --jobs auto must not count the
    host's cores; meta.cpus records the same budget."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert resolve_jobs("auto") == 1
    assert build_meta(fast=True, smoke=False, jobs=1)["cpus"] == 1


# ---------------------------------------------------------------------------
# result store
# ---------------------------------------------------------------------------

def test_resultstore_miss_put_hit(tmp_path):
    store = ResultStore(tmp_path, fingerprint={"f": 1}, version="v1")
    key = store.key_for("figX", {"a": 1})
    assert store.get(key) is None
    store.put(key, "figX", {"a": 1}, {"x": 1, "lat": 2.5})
    assert store.get(key) == {"x": 1, "lat": 2.5}
    assert (store.hits, store.misses) == (1, 1)


def test_resultstore_key_depends_on_everything():
    base = point_key("figX", {"a": 1}, fingerprint={"f": 1}, version="v1")
    assert point_key("figY", {"a": 1}, fingerprint={"f": 1},
                     version="v1") != base
    assert point_key("figX", {"a": 2}, fingerprint={"f": 1},
                     version="v1") != base
    assert point_key("figX", {"a": 1}, fingerprint={"f": 2},
                     version="v1") != base
    assert point_key("figX", {"a": 1}, fingerprint={"f": 1},
                     version="v2") != base
    # param order does not matter: canonical JSON sorts keys
    assert point_key("figX", {"a": 1, "b": 2}, fingerprint={"f": 1},
                     version="v1") == point_key(
        "figX", {"b": 2, "a": 1}, fingerprint={"f": 1}, version="v1")


def test_resultstore_tampered_entry_is_a_miss(tmp_path):
    store = ResultStore(tmp_path, fingerprint={"f": 1}, version="v1")
    key = store.key_for("figX", {"a": 1})
    store.put(key, "figX", {"a": 1}, {"x": 1})
    path = store._path(key)
    entry = json.loads(path.read_text())
    entry["params"] = {"a": 99}  # stored params no longer hash to the key
    path.write_text(json.dumps(entry))
    assert store.get(key) is None


def test_resultstore_stale_after_code_change(tmp_path):
    old = ResultStore(tmp_path, fingerprint={"f": 1}, version="v1")
    key = old.key_for("figX", {"a": 1})
    old.put(key, "figX", {"a": 1}, {"x": 1})
    new = ResultStore(tmp_path, fingerprint={"f": 1}, version="v2")
    assert new.key_for("figX", {"a": 1}) != key
    assert new.get(new.key_for("figX", {"a": 1})) is None


# ---------------------------------------------------------------------------
# orchestrator + cache
# ---------------------------------------------------------------------------

def test_run_figures_populates_and_reuses_cache(tmp_path):
    store = ResultStore(tmp_path)
    first = run_figures([CHEAP], jobs=1, store=store)[0]
    assert first.cache_hits == 0
    assert first.cache_misses == len(first.points)

    second = run_figures([CHEAP], jobs=1, store=ResultStore(tmp_path))[0]
    assert second.cache_misses == 0
    assert second.cache_hits == len(second.points)
    assert second.result.series == first.result.series
    assert second.result.metrics == first.result.metrics


def test_smoke_runs_first_point_only():
    run = run_figures([CHEAP], smoke=True, jobs=1)[0]
    assert len(run.points) == 1
    full = full_registry()[CHEAP].points(True)
    assert run.points[0].params == full[0]


# ---------------------------------------------------------------------------
# BENCH_<figure>.json schema
# ---------------------------------------------------------------------------

TOP_LEVEL_KEYS = {
    "schema_version", "figure", "title", "x_label", "meta", "config",
    "points", "x", "series", "summary", "metrics", "counters",
    "directions", "notes",
}

META_KEYS = {
    "generated_at", "host", "platform", "python", "git_sha",
    "code_version", "seed", "fast", "smoke", "jobs", "trace", "fork", "fuse",
    "trace_jit", "metrics_enabled", "cpus", "wall_clock_s",
    "sweep_wall_s", "cache_hits", "cache_misses", "setup_cache",
    "sim_throughput", "metrics",
}

SIM_THROUGHPUT_KEYS = {
    "instructions", "cache_probes", "des_events", "sim_ns", "wall_s",
    "instructions_per_s", "sim_ns_per_wall_s",
    "blocks_compiled", "fused_dispatches", "fused_instructions",
    "block_invalidations",
    "traces_compiled", "trace_dispatches", "trace_instructions",
    "guard_bails", "trace_invalidations",
}


def test_bench_json_schema_roundtrip(tmp_path):
    runs = run_figures([CHEAP], jobs=1)
    paths = write_runs(runs, tmp_path, build_meta(fast=True, smoke=False,
                                                  jobs=1))
    assert [p.name for p in paths] == [f"BENCH_{CHEAP}.json"]
    payload = json.loads(paths[0].read_text())

    assert set(payload) == TOP_LEVEL_KEYS
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["figure"] == CHEAP
    assert set(payload["meta"]) == META_KEYS
    assert set(payload["meta"]["sim_throughput"]) == SIM_THROUGHPUT_KEYS
    assert payload["config"] == config_fingerprint()

    npts = len(payload["points"])
    assert len(payload["x"]) == npts
    for point in payload["points"]:
        assert set(point) == {"params", "cached", "x", "values", "counters"}
    assert [p["x"] for p in payload["points"]] == payload["x"]
    for name, values in payload["series"].items():
        assert len(values) == npts
        assert payload["summary"][name]["n"] == npts
        assert {"n", "mean", "p50", "min", "max"} == set(
            payload["summary"][name])
    for name in payload["directions"]:
        assert name in payload["series"]

    # the document survives a JSON round-trip unchanged
    assert json.loads(json.dumps(payload)) == payload

    # and it matches what run_spec computes directly
    direct = run_spec(CHEAP, fast=True)
    assert payload["series"] == direct.series
    assert payload["x"] == direct.x


# ---------------------------------------------------------------------------
# bench diff
# ---------------------------------------------------------------------------

def _payload(series, directions):
    return {"figure": "figX", "series": series, "directions": directions}


def test_diff_flags_regressions_in_both_directions():
    base = _payload({"lat_ns": [100.0, 200.0], "rate": [10.0, 20.0]},
                    {"lat_ns": "lower", "rate": "higher"})
    worse = _payload({"lat_ns": [120.0, 240.0], "rate": [8.0, 16.0]},
                     {"lat_ns": "lower", "rate": "higher"})
    diffs = diff_payloads(base, worse, threshold_pct=5.0)
    assert len(diffs) == 2
    assert all(d.regression for d in diffs)
    lat = next(d for d in diffs if d.series == "lat_ns")
    assert lat.mean_pct == pytest.approx(20.0)
    assert lat.worst_point_pct == pytest.approx(20.0)


def test_diff_improvements_and_noise_are_ok():
    base = _payload({"lat_ns": [100.0], "rate": [10.0]},
                    {"lat_ns": "lower", "rate": "higher"})
    better = _payload({"lat_ns": [80.0], "rate": [12.0]},
                      {"lat_ns": "lower", "rate": "higher"})
    assert not any(d.regression for d in diff_payloads(base, better))
    noisy = _payload({"lat_ns": [103.0], "rate": [9.8]},
                     {"lat_ns": "lower", "rate": "higher"})
    assert not any(d.regression
                   for d in diff_payloads(base, noisy, threshold_pct=5.0))
    # tighter threshold turns the same delta into a regression
    assert all(d.regression
               for d in diff_payloads(base, noisy, threshold_pct=1.0))


def test_diff_skips_undirected_series():
    base = _payload({"lat_ns": [100.0], "wire_b": [1536.0]},
                    {"lat_ns": "lower"})
    new = _payload({"lat_ns": [100.0], "wire_b": [9999.0]},
                   {"lat_ns": "lower"})
    diffs = diff_payloads(base, new)
    assert [d.series for d in diffs] == ["lat_ns"]


def test_diff_paths_over_directories(tmp_path):
    base_dir, new_dir = tmp_path / "base", tmp_path / "new"
    base_dir.mkdir(), new_dir.mkdir()
    base = _payload({"lat_ns": [100.0]}, {"lat_ns": "lower"})
    worse = _payload({"lat_ns": [150.0]}, {"lat_ns": "lower"})
    (base_dir / "BENCH_figX.json").write_text(json.dumps(base))
    (base_dir / "BENCH_only_base.json").write_text(json.dumps(base))
    (new_dir / "BENCH_figX.json").write_text(json.dumps(worse))
    (new_dir / "BENCH_only_new.json").write_text(json.dumps(worse))
    diffs, notes = diff_paths(base_dir, new_dir)
    assert len(diffs) == 1 and diffs[0].regression
    assert any("only in baseline" in n for n in notes)
    assert any("only in new" in n for n in notes)
    text = render_diff(diffs, notes)
    assert "REGRESSION" in text and "only in baseline" in text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_bench_run_and_diff(tmp_path, capsys):
    out = tmp_path / "bench"
    argv = ["bench", "run", CHEAP, "--smoke", "--jobs", "1",
            "--out", str(out), "--quiet"]
    assert cli_main(argv) == 0
    bench_file = out / f"BENCH_{CHEAP}.json"
    assert bench_file.is_file()
    payload = json.loads(bench_file.read_text())
    assert payload["schema_version"] == SCHEMA_VERSION
    capsys.readouterr()

    # second run is served from <out>/.cache
    assert cli_main(argv) == 0
    assert json.loads(bench_file.read_text())["meta"]["cache_hits"] == 1
    capsys.readouterr()

    # a result set does not regress against itself (abl_got has no
    # directed series, so there is nothing to compare — rc is still 0)
    assert cli_main(["bench", "diff", str(out), str(out)]) == 0
    assert "bench diff" in capsys.readouterr().out

    assert cli_main(["bench", "run", "nosuchfig", "--quiet",
                     "--out", str(out)]) == 2
    assert cli_main(["bench", "diff", str(out / "nope.json"),
                     str(bench_file)]) == 2


def test_cli_bench_list(capsys):
    assert cli_main(["bench", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig5", "fig14", "abl_got"):
        assert name in out


# ---------------------------------------------------------------------------
# wall-clock diff mode and sweep timing
# ---------------------------------------------------------------------------

def _wc_payload(sim_ns_per_wall_s):
    return {"figure": "figX",
            "meta": {"sim_throughput": {"sim_ns_per_wall_s":
                                        sim_ns_per_wall_s}}}


def test_diff_paths_wall_clock_threshold_defaults_to_20pct(tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(_wc_payload(100.0)))

    # 15% throughput drop: within the 20% default -> no regression
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(_wc_payload(85.0)))
    diffs, _ = diff_paths(base, ok, wall_clock=True)
    assert len(diffs) == 1 and not diffs[0].regression

    # 30% drop: beyond the default -> regression
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_wc_payload(70.0)))
    diffs, _ = diff_paths(base, bad, wall_clock=True)
    assert len(diffs) == 1 and diffs[0].regression

    # an explicit threshold still wins in either mode
    diffs, _ = diff_paths(base, ok, threshold_pct=10.0, wall_clock=True)
    assert diffs[0].regression


def test_diff_paths_wall_clock_skips_cached_runs(tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(_wc_payload(100.0)))
    cached = tmp_path / "cached.json"
    cached.write_text(json.dumps({"figure": "figX", "meta": {}}))
    diffs, notes = diff_paths(base, cached, wall_clock=True)
    assert not diffs
    assert any("sim_throughput" in n for n in notes)


def test_wall_s_and_sweep_wall_s_are_distinct(tmp_path):
    store = ResultStore(tmp_path)
    run = run_figures([CHEAP], jobs=1, store=store)[0]
    assert run.wall_s > 0.0
    assert run.sweep_wall_s >= run.wall_s  # invocation covers the points

    # fully cached rerun: no point work, but the invocation still took time
    cached = run_figures([CHEAP], jobs=1, store=ResultStore(tmp_path))[0]
    assert cached.wall_s == 0.0
    assert cached.sweep_wall_s > 0.0


def test_meta_records_setup_cache_and_sweep_wall(tmp_path):
    runs = run_figures(["fig7"], smoke=True, jobs=1, fork=True)
    paths = write_runs(runs, tmp_path,
                       build_meta(fast=True, smoke=True, jobs=1, fork=True))
    meta = json.loads(paths[0].read_text())["meta"]
    assert meta["fork"] is True
    assert meta["trace"] is False
    assert meta["sweep_wall_s"] == pytest.approx(runs[0].sweep_wall_s,
                                                abs=1e-6)
    sc = meta["setup_cache"]
    assert set(sc) == {"hits", "misses"}
    # fig7's single smoke point builds both of its worlds: misses only
    assert sc["misses"] >= 1 and sc["hits"] == 0


def test_no_fork_produces_identical_rows():
    forked = run_figures(["fig7"], smoke=True, jobs=1, fork=True)[0]
    fresh = run_figures(["fig7"], smoke=True, jobs=1, fork=False)[0]
    assert [p.row for p in forked.points] == [p.row for p in fresh.points]
    assert fresh.setup_hits == 0 and fresh.setup_misses == 0


def test_timing_store_roundtrip(tmp_path):
    from repro.bench.resultstore import TimingStore, timing_key

    ts = TimingStore(tmp_path)
    assert ts.get("figX", {"a": 1}) is None
    ts.record("figX", {"a": 1}, 1.25)
    ts.save()
    # a fresh store sees the persisted history (LPT ordering input)
    again = TimingStore(tmp_path)
    assert again.get("figX", {"a": 1}) == pytest.approx(1.25)
    assert timing_key("figX", {"a": 1}) != timing_key("figX", {"a": 2})
