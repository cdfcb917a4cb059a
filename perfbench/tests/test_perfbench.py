"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
The traced/untraced identity tests run one worker pass per workload and
mode at the held-out seed (about a minute in all).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import ledger  # noqa: E402
import oracle  # noqa: E402
import points  # noqa: E402
import run  # noqa: E402
from run import END_TO_END_UNITS, WorkerFailed, run_worker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _committed(figure: str) -> dict:
    return json.loads((ROOT / "results" / "bench" /
                       f"BENCH_{figure}.json").read_text())


def _rows(payload: dict, n: int | None = None) -> list[dict]:
    return [{"x": p["x"], "values": p["values"], "counters": p["counters"]}
            for p in payload["points"][:n]]


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == ledger.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(points.WORKLOADS)
    for name in [*END_TO_END_UNITS, *ledger.PER_LAYER_UNITS,
                 *points.WORKLOADS]:
        assert NAME.fullmatch(name), name
    assert set(ledger.LAYER_OF.values()) <= {
        name.split(".")[0] for name in ledger.PER_LAYER_UNITS}


def test_default_seed_rows_equal_committed_figures():
    expected = oracle.load_expected()
    seed = str(points.DEFAULT_SEED)
    assert expected["stress_tail"][seed]["rows"] \
        == _rows(_committed("fig12"), 2)
    assert expected["inject_rate"][seed]["rows"] == _rows(_committed("fig8"))


def test_paper_err_pct_matches_committed_figure_metrics():
    fig12, fig8 = _committed("fig12"), _committed("fig8")
    assert points.FIG12_PAPER_TAIL_GAIN \
        == fig12["metrics"]["paper_tail_improvement"]
    gain = fig12["metrics"]["max_tail_improvement"]
    stress = points.paper_err_pct("stress_tail", _rows(fig12, 2))
    assert stress == pytest.approx(abs(gain - 2.0) / 2.0 * 100)
    assert round(stress, 1) == 2.6
    loss = -fig8["metrics"]["small_payload_rate_loss_pct"]
    rate = points.paper_err_pct("inject_rate", _rows(fig8))
    assert rate == pytest.approx(abs(loss - 40.0) / 40.0 * 100)
    assert round(rate, 1) == 17.7
    assert points.paper_err_pct("chain_kv", []) is None


def test_oracle_flags_a_changed_row_and_a_raised_point():
    expected = oracle.load_expected()
    want = oracle.expected_for(expected, "inject_rate", points.DEFAULT_SEED)
    row = json.loads(json.dumps(want["rows"][0]))
    digest = want["metrics_digests"][0]
    assert oracle.check_point(expected, "inject_rate", 99, 0, row, None,
                              digest) == ""
    row["values"]["local_mps"] += 1e-6
    assert "local_mps" in oracle.check_point(
        expected, "inject_rate", 99, 0, row, None, digest)
    assert oracle.check_point(expected, "inject_rate", 99, 0, None,
                              "ValueError: boom", digest).startswith("raised")


def test_unrecorded_stress_seed_uses_consistency_checks():
    expected = oracle.load_expected()
    held_out = oracle.expected_for(expected, "stress_tail",
                                   points.HELD_OUT_SEED)
    row = json.loads(json.dumps(held_out["rows"][1]))
    assert oracle.check_point(expected, "stress_tail", 123456, 1, row, None,
                              "any") == ""
    row["values"]["tail_improvement"] *= 1.01
    assert oracle.check_point(expected, "stress_tail", 123456, 1, row, None,
                              "any")


def test_rollup_self_time_excludes_child_spans():
    book = ledger.Ledger()
    inner = book.wrap_call("isa.call", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()

    outer = book.wrap_call("des.run", body)
    book.point = 0
    t0 = time.perf_counter()
    outer()
    wall = time.perf_counter() - t0
    roll = ledger.rollup(book, wall)
    assert roll["names"]["isa.call"]["self_s"] >= 0.02
    assert 0.01 <= roll["names"]["des.run"]["self_s"] < 0.02
    total = sum(v["self_s"] for v in roll["names"].values())
    assert total + roll["unattributed_s"] == pytest.approx(wall)


def test_pre_hook_span_is_harness_time_not_the_callers():
    book = ledger.Ledger()
    touch = book.wrap_call("trace.touch", lambda: time.sleep(0.02))
    hier = book.wrap_call("hier.access_line", lambda: None, pre=touch)
    outer = book.wrap_call("isa.call", hier)
    book.point = 0
    outer()
    names = ledger.rollup(book, 1.0)["names"]
    assert names["trace.touch"]["self_s"] >= 0.02
    assert names["isa.call"]["self_s"] < 0.01
    assert names["hier.access_line"]["self_s"] < 0.01


def test_generator_wrapper_forwards_sends_and_return_value():
    book = ledger.Ledger()

    def echo():
        got = yield 1
        got = yield got + 1
        return got * 10

    book.point = 0
    gen = book.wrap_gen("runtime.send_jam", echo)()
    assert next(gen) == 1
    assert gen.send(5) == 6
    with pytest.raises(StopIteration) as stop:
        gen.send(7)
    assert stop.value.value == 70
    roll = ledger.rollup(book, 1.0)
    assert roll["names"]["runtime.send_jam"]["steps"] == 3
    assert roll["names"]["runtime.send_jam"]["yields"] == 2


@pytest.fixture(scope="module")
def passes():
    """One untraced and one traced pass per workload at the held-out seed."""
    return {w: (run_worker(w, points.HELD_OUT_SEED),
                run_worker(w, points.HELD_OUT_SEED, "--trace"))
            for w in points.WORKLOADS}


@pytest.mark.parametrize("workload", points.WORKLOADS)
def test_traced_and_untraced_rows_are_byte_identical(passes, workload):
    plain, traced = passes[workload]
    assert plain["errors"] == traced["errors"] == [None] * len(plain["rows"])
    assert json.dumps(plain["rows"]) == json.dumps(traced["rows"])
    assert plain["metrics_digests"] == traced["metrics_digests"]
    expected = oracle.load_expected()
    for i, (row, digest) in enumerate(zip(plain["rows"],
                                          plain["metrics_digests"])):
        assert oracle.check_point(expected, workload, points.HELD_OUT_SEED,
                                  i, row, None, digest) == ""


@pytest.mark.parametrize("workload", points.WORKLOADS)
def test_self_times_plus_unattributed_add_up_to_traced_wall(passes,
                                                            workload):
    roll = passes[workload][1]["trace"]["rollup"]
    total = sum(v["self_s"] for v in roll["names"].values())
    assert roll["unattributed_s"] >= 0.0
    assert total + roll["unattributed_s"] == pytest.approx(roll["wall_s"],
                                                           rel=1e-9)


@pytest.mark.parametrize("workload", points.WORKLOADS)
def test_layer_metrics_are_complete_and_isolate_layers(passes, workload):
    plain, traced = passes[workload]
    m = ledger.layer_metrics(traced, plain["wall_s"])
    assert set(m) == set(ledger.PER_LAYER_UNITS)
    assert m["isa.instructions"] > 0 and m["des.events"] > 0
    assert m["world.builds"] > 0 and m["world.restores"] > 0
    stress_counts = ("llc.install_calls", "llc.lines_installed",
                     "noise.ticks")
    if workload == "stress_tail":
        assert all(m[k] > 0 for k in stress_counts)
        assert 0.0 < m["noise.touched_set_share"] < 1.0
    else:
        assert all(m[k] == 0 for k in stress_counts)
        assert m["noise.touched_set_share"] == 0.0
    assert (m["chainkv.ops"] > 0) == (workload == "chain_kv")


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("fail_after", [0, 1])
def test_crashing_workers_count_as_failed_points(monkeypatch, capsys,
                                                  trace, fail_after):
    """A worker that dies (at warm-up, or at the first pass) fails every
    point it would have run; the run still prints its result."""
    calls = []

    def dying_worker(*args):
        calls.append(args)
        if len(calls) > fail_after:
            raise WorkerFailed("worker exited 1: boom")
        return {"setup_s": 1.0}

    monkeypatch.setattr(run, "run_worker", dying_worker)
    assert run.main(["--workload", "inject_rate", "--seconds", "1",
                     "--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    npoints = len(points.points("inject_rate"))
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == npoints
    assert len(calls) == fail_after + 1
    assert all(m["value"] is None for m in result["metrics"].values())


def test_run_refuses_a_tree_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"),
         "--workload", "inject_rate", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
