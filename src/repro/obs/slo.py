"""Health indicators and the ``bench diff --health`` regression gate.

The wall-clock gate answers "did the simulator get slower?"; this layer
answers "did the *modelled system* get sicker?" by distilling each
``BENCH_<figure>.json`` ``meta.metrics`` block into a handful of named,
direction-aware indicators:

``fc_stall_ns_per_send``
    Simulated nanoseconds the sender spent blocked in
    ``Connection._wait_bank_free`` per active-message send
    (``tc_fc_stall_ns_total / tc_am_sends_total``).  Lower is better; a
    jump means flow control is throttling the injection path.
``mb_dispatch_p99_ns``
    Worst per-node p99 of the mailbox dispatch-latency histogram
    (``tc_mb_dispatch_ns``).  Lower is better.
``cache_hit_rate_<level>``
    Worst per-node time-weighted mean of the per-level cache hit-rate
    gauges (``tc_cache_hit_rate``).  Higher is better.

Both sides must carry the indicator for it to be compared; one-sided
indicators are reported as notes, never as regressions, so old payloads
(schema < 2, no ``meta.metrics``) diff cleanly against new ones.
Relative deltas below a per-indicator absolute floor are ignored — a
hit rate drifting from 0.0001 to 0.0002 doubles but means nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: better-direction per indicator name (prefix match for labelled ones).
HEALTH_DIRECTIONS = {
    "fc_stall_ns_per_send": "lower",
    "mb_dispatch_p99_ns": "lower",
    "cache_hit_rate": "higher",
}

#: absolute-delta floor below which a relative change is noise.
HEALTH_FLOORS = {
    "fc_stall_ns_per_send": 1.0,     # ns per send
    "mb_dispatch_p99_ns": 1.0,       # ns
    "cache_hit_rate": 0.005,         # rate points
}

#: default relative threshold (percent) for ``bench diff --health``.
DEFAULT_HEALTH_THRESHOLD_PCT = 10.0


def direction_for(indicator: str) -> str:
    for prefix, direction in HEALTH_DIRECTIONS.items():
        if indicator.startswith(prefix):
            return direction
    return "lower"


def floor_for(indicator: str) -> float:
    for prefix, floor in HEALTH_FLOORS.items():
        if indicator.startswith(prefix):
            return floor
    return 0.0


@dataclass(frozen=True)
class HealthDiff:
    """One indicator compared across payloads; renders through
    :func:`..bench.report.render_diff` (field-compatible with
    ``SeriesDiff``)."""

    figure: str
    series: str
    direction: str
    base_mean: float
    new_mean: float
    mean_pct: float
    worst_point_pct: float
    regression: bool


def _sum_family(counters: dict, family: str) -> float:
    """Sum a counter family across every label combination."""
    total = 0.0
    for key, value in counters.items():
        if key == family or key.startswith(family + "|"):
            total += value
    return total


def health_indicators(payload: dict) -> dict[str, float]:
    """Extract the indicator map from one BENCH payload; empty when the
    payload predates ``meta.metrics``."""
    meta = payload.get("meta", {})
    metrics = meta.get("metrics")
    out: dict[str, float] = {}
    if metrics:
        counters = metrics.get("counters", {})
        stalls = _sum_family(counters, "tc_fc_stall_ns_total")
        sends = _sum_family(counters, "tc_am_sends_total")
        if sends > 0:
            out["fc_stall_ns_per_send"] = stalls / sends
        hists = metrics.get("histograms", {})
        p99s = [h["p99"] for k, h in hists.items()
                if k.split("|", 1)[0] == "tc_mb_dispatch_ns"
                and h.get("p99") is not None]
        if p99s:
            out["mb_dispatch_p99_ns"] = max(p99s)
        by_level: dict[str, list[float]] = {}
        for key, g in metrics.get("gauges", {}).items():
            name, _, labelpart = key.partition("|")
            if name != "tc_cache_hit_rate":
                continue
            labels = dict(item.partition("=")[::2]
                          for item in labelpart.split("|") if item)
            level = labels.get("level", "all")
            if g.get("mean") is not None:
                by_level.setdefault(level, []).append(g["mean"])
        for level, means in by_level.items():
            # worst node is the honest summary: one cold node hides
            # inside a cross-node average.
            out[f"cache_hit_rate_{level}"] = min(means)
    return out


def health_diff_payloads(base: dict, new: dict,
                         threshold_pct: float = DEFAULT_HEALTH_THRESHOLD_PCT,
                         ) -> tuple[list[HealthDiff], list[str]]:
    """Compare the two payloads' health indicators; returns
    ``(diffs, notes)`` in the same shape the wall-clock differ uses."""
    figure = base.get("figure", "?")
    bi = health_indicators(base)
    ni = health_indicators(new)
    diffs: list[HealthDiff] = []
    notes: list[str] = []
    if not bi and not ni:
        notes.append(f"{figure}: no health indicators on either side "
                     "(meta.metrics absent)")
        return diffs, notes
    for name in sorted(set(bi) | set(ni)):
        if name not in bi:
            notes.append(f"{figure}: {name} only in new payload")
            continue
        if name not in ni:
            notes.append(f"{figure}: {name} only in base payload")
            continue
        bv, nv = bi[name], ni[name]
        direction = direction_for(name)
        if bv == 0.0:
            pct = 0.0 if nv == 0.0 else math.inf * (1 if nv > 0 else -1)
        else:
            pct = 100.0 * (nv - bv) / bv
        worse = pct > 0 if direction == "lower" else pct < 0
        regression = (worse and abs(pct) > threshold_pct
                      and abs(nv - bv) >= floor_for(name))
        diffs.append(HealthDiff(
            figure=figure, series=name, direction=direction,
            base_mean=bv, new_mean=nv,
            mean_pct=pct if math.isfinite(pct) else math.copysign(999.99, pct),
            worst_point_pct=pct if math.isfinite(pct)
            else math.copysign(999.99, pct),
            regression=regression))
    return diffs, notes
