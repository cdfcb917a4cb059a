"""The process-wide sim-time metrics registry: counters, gauges, HDRs.

Where :mod:`.tracer` answers *when* things happened (spans on a
timeline), this module answers *how much* and *how bad*: monotonic
counters, last-value gauges with sim-time-weighted means, and HDR-style
log-bucketed histograms with exact-count percentile queries
(p50/p90/p99/p99.9/max).  Everything is timestamped in **simulated**
nanoseconds off the DES clock — nothing here reads wall-clock time —
so a metrics snapshot is a deterministic pure function of the seed and
sweep point.

The hot-path contract is identical to the tracer's: **disabled metrics
cost exactly one attribute check**::

    from ..obs.metrics import METRICS as _M
    ...
    if _M.enabled:
        _M.count(f"tc_am_sends_total|node={nid}", now)

Metric keys
-----------

A metric is addressed by a flat string key ``name|label=value|...`` with
labels in a fixed order chosen by the call site (``node`` first, then
anything else).  The name carries the Prometheus family name directly
(counters end in ``_total``); the export layer splits the key back into
``family{label="value"}`` pairs.  See docs/METRICS.md for the full name
catalogue.

Stability
---------

Every metric the simulator emits is *stable*: bit-identical across
``--jobs`` settings and fork vs ``--no-fork`` world reuse, and therefore
safe to embed in ``BENCH_<figure>.json`` ``meta.metrics`` (which the
determinism tests require to be byte-identical).  No call site emits
``stable=False``.  The flag stays only because
:meth:`MetricsRegistry.snapshot` carries it in every entry, and that
snapshot format is what the benchmark's row oracle hashes
(perfbench/worker.py); ``stable_only=True`` still filters on it.

Histogram buckets
-----------------

:class:`Histogram` uses ``math.frexp`` octaves subdivided into
``NSUB = 64`` linear sub-buckets, i.e. a relative bucket width of
1/64 of the octave base: the midpoint representative is within ~0.8%
of any recorded value, while percentile *counts* are exact (each sample
lands in exactly one bucket and ranks are walked over true counts).
Non-positive values clamp into a dedicated zero bucket.  Reported
percentiles are additionally clamped into ``[min, max]`` of the observed
samples, so single-sample histograms report that sample exactly.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from .tracer import PID_SIM, node_pid

#: Linear sub-buckets per frexp octave (power of two for cheap math).
NSUB = 64

#: Index reserved for non-positive values.  Values below 1.0 produce
#: *negative* regular indices (frexp exponents reach -1074), so the
#: sentinel sits far beneath any index a float can generate.
ZERO_BUCKET = -(1 << 20)

#: Percentiles reported by summaries, as (json key, q).
PERCENTILES = ((50.0, "p50"), (90.0, "p90"), (99.0, "p99"), (99.9, "p999"))


def bucket_index(value: float) -> int:
    """Bucket index of ``value``; non-positive values share ``ZERO_BUCKET``."""
    if value <= 0.0:
        return ZERO_BUCKET
    m, e = math.frexp(value)  # value = m * 2**e with m in [0.5, 1)
    sub = int((m - 0.5) * (2 * NSUB))
    if sub >= NSUB:  # m == 1.0 - eps rounding guard
        sub = NSUB - 1
    return e * NSUB + sub


def bucket_mid(index: int) -> float:
    """Midpoint representative value of bucket ``index``."""
    if index == ZERO_BUCKET:
        return 0.0
    e, sub = divmod(index, NSUB)  # divmod floors, so negatives decode too
    return math.ldexp(0.5 + (sub + 0.5) / (2 * NSUB), e)


def bucket_upper(index: int) -> float:
    """Exclusive upper edge of bucket ``index`` (Prometheus ``le``)."""
    if index == ZERO_BUCKET:
        return 0.0
    e, sub = divmod(index, NSUB)
    return math.ldexp(0.5 + (sub + 1) / (2 * NSUB), e)


class Counter:
    """Monotonic counter with a cumulative (ts, value) sample series."""

    __slots__ = ("value", "stable", "samples")

    def __init__(self, stable: bool = True) -> None:
        self.value: float = 0
        self.stable = stable
        # (ts_ns, cumulative value) per increment — feeds counter tracks.
        self.samples: list[tuple[float, float]] = []


class Gauge:
    """Last-value gauge with min/max and a sim-time-weighted integral.

    The time-weighted mean over the sampled window is
    ``integral / (t_last - t_first)``; each sample's value is weighted by
    how long it remained current.  The final sample carries zero weight
    (its holding time is unknown), except when it is the only one.
    """

    __slots__ = ("value", "vmin", "vmax", "integral", "t_first", "t_last",
                 "stable", "samples")

    def __init__(self, stable: bool = True) -> None:
        self.value = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        self.integral = 0.0
        self.t_first: Optional[float] = None
        self.t_last = 0.0
        self.stable = stable
        self.samples: list[tuple[float, float]] = []

    def mean(self) -> float:
        span = self.t_last - (self.t_first or 0.0)
        if self.t_first is None:
            return 0.0
        if span <= 0.0:
            return self.value
        return self.integral / span


class Histogram:
    """HDR-style log-bucketed histogram with exact counts per bucket."""

    __slots__ = ("buckets", "count", "sum", "vmin", "vmax", "stable")

    def __init__(self, stable: bool = True) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        self.stable = stable

    def percentile(self, q: float) -> Optional[float]:
        """Exact-rank percentile: the representative value of the bucket
        holding the ``ceil(q/100 * count)``-th smallest sample, clamped
        into ``[min, max]``."""
        return percentile_from_buckets(self.buckets, self.count, q,
                                       self.vmin, self.vmax)


def percentile_from_buckets(buckets: dict[int, int], count: int, q: float,
                            vmin: float, vmax: float) -> Optional[float]:
    """Rank-walk percentile over ``{bucket_index: count}`` buckets."""
    if count <= 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * count))
    if rank > count:
        rank = count
    cum = 0
    for idx in sorted(buckets):
        cum += buckets[idx]
        if cum >= rank:
            return min(max(bucket_mid(idx), vmin), vmax)
    return vmax  # unreachable unless counts disagree; stay defensive


class MetricsRegistry:
    """Process-wide metric store.  ``enabled`` gates every emission."""

    __slots__ = ("enabled", "counters", "gauges", "hists")

    def __init__(self) -> None:
        self.enabled = False
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.hists: dict[str, Histogram] = {}

    # -- lifecycle -------------------------------------------------------
    def attach(self, clear: bool = True) -> None:
        """Enable recording (optionally dropping any prior metrics)."""
        if clear:
            self.clear()
        self.enabled = True

    def detach(self) -> None:
        """Stop recording; already-captured metrics stay readable."""
        self.enabled = False

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.hists.clear()

    @contextmanager
    def capture(self) -> Iterator["MetricsRegistry"]:
        """``with METRICS.capture(): ...`` — attach, then detach."""
        self.attach()
        try:
            yield self
        finally:
            self.detach()

    # -- emission (hot paths; call sites pre-gate on ``enabled``) --------
    def count(self, key: str, ts: float, n: float = 1,
              stable: bool = True) -> None:
        """Add ``n`` to counter ``key`` at sim time ``ts``."""
        c = self.counters.get(key)
        if c is None:
            c = self.counters[key] = Counter(stable)
        c.value += n
        c.samples.append((ts, c.value))

    def sample(self, key: str, ts: float, value: float,
               stable: bool = True) -> None:
        """Record gauge ``key`` = ``value`` at sim time ``ts``."""
        g = self.gauges.get(key)
        if g is None:
            g = self.gauges[key] = Gauge(stable)
        if g.t_first is None:
            g.t_first = ts
        else:
            dt = ts - g.t_last
            if dt > 0.0:  # clocks restart across worlds within one point
                g.integral += g.value * dt
        g.value = value
        g.t_last = ts
        if value < g.vmin:
            g.vmin = value
        if value > g.vmax:
            g.vmax = value
        g.samples.append((ts, value))

    def observe(self, key: str, value: float, stable: bool = True) -> None:
        """Record one ``value`` into histogram ``key``."""
        h = self.hists.get(key)
        if h is None:
            h = self.hists[key] = Histogram(stable)
        idx = bucket_index(value)
        h.buckets[idx] = h.buckets.get(idx, 0) + 1
        h.count += 1
        h.sum += value
        if value < h.vmin:
            h.vmin = value
        if value > h.vmax:
            h.vmax = value

    # -- snapshots -------------------------------------------------------
    def snapshot(self, stable_only: bool = False) -> dict:
        """Mergeable, JSON-safe dump of every metric's aggregate state.

        Sample series are *not* included (they feed Perfetto counter
        tracks straight off the live registry); snapshots are compact
        enough to store per sweep point in the result cache.
        """
        counters = {}
        for k in sorted(self.counters):
            c = self.counters[k]
            if stable_only and not c.stable:
                continue
            counters[k] = [c.value, c.stable]
        gauges = {}
        for k in sorted(self.gauges):
            g = self.gauges[k]
            if stable_only and not g.stable:
                continue
            gauges[k] = [g.value, g.vmin, g.vmax, g.integral,
                         (g.t_last - g.t_first) if g.t_first is not None
                         else 0.0,
                         len(g.samples), g.stable]
        hists = {}
        for k in sorted(self.hists):
            h = self.hists[k]
            if stable_only and not h.stable:
                continue
            hists[k] = {"count": h.count, "sum": h.sum,
                        "min": h.vmin if h.count else None,
                        "max": h.vmax if h.count else None,
                        "buckets": {str(i): h.buckets[i]
                                    for i in sorted(h.buckets)},
                        "stable": h.stable}
        return {"counters": counters, "gauges": gauges, "hists": hists}

    # -- inspection ------------------------------------------------------
    def series(self) -> list[tuple[str, str, list[tuple[float, float]]]]:
        """All (kind, key, samples) time series with at least one point,
        key-sorted — the feed for Perfetto counter tracks."""
        out: list[tuple[str, str, list[tuple[float, float]]]] = []
        for k in sorted(self.counters):
            s = self.counters[k].samples
            if s:
                out.append(("counter", k, s))
        for k in sorted(self.gauges):
            s = self.gauges[k].samples
            if s:
                out.append(("gauge", k, s))
        return out

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.hists)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"MetricsRegistry(enabled={self.enabled}, "
                f"counters={len(self.counters)}, gauges={len(self.gauges)}, "
                f"hists={len(self.hists)})")


#: The process-wide registry every instrumented layer reports into.
METRICS = MetricsRegistry()


# -- snapshot algebra ----------------------------------------------------

def merge_snapshots(snaps: list[dict]) -> dict:
    """Merge per-point snapshots (in sweep order) into one figure-level
    snapshot: counters add, gauge integrals/windows add (last value is
    the final snapshot's), histogram buckets add."""
    counters: dict[str, list] = {}
    gauges: dict[str, list] = {}
    hists: dict[str, dict] = {}
    for snap in snaps:
        if not snap:
            continue
        for k, (v, stable) in snap.get("counters", {}).items():
            cur = counters.get(k)
            if cur is None:
                counters[k] = [v, stable]
            else:
                cur[0] += v
        for k, (last, vmin, vmax, integral, span, n, stable) in \
                snap.get("gauges", {}).items():
            cur = gauges.get(k)
            if cur is None:
                gauges[k] = [last, vmin, vmax, integral, span, n, stable]
            else:
                cur[0] = last
                cur[1] = min(cur[1], vmin)
                cur[2] = max(cur[2], vmax)
                cur[3] += integral
                cur[4] += span
                cur[5] += n
        for k, h in snap.get("hists", {}).items():
            cur = hists.get(k)
            if cur is None:
                hists[k] = {"count": h["count"], "sum": h["sum"],
                            "min": h["min"], "max": h["max"],
                            "buckets": dict(h["buckets"]),
                            "stable": h["stable"]}
            else:
                cur["count"] += h["count"]
                cur["sum"] += h["sum"]
                if h["min"] is not None:
                    cur["min"] = (h["min"] if cur["min"] is None
                                  else min(cur["min"], h["min"]))
                if h["max"] is not None:
                    cur["max"] = (h["max"] if cur["max"] is None
                                  else max(cur["max"], h["max"]))
                for i, n in h["buckets"].items():
                    cur["buckets"][i] = cur["buckets"].get(i, 0) + n
    return {"counters": {k: counters[k] for k in sorted(counters)},
            "gauges": {k: gauges[k] for k in sorted(gauges)},
            "hists": {k: hists[k] for k in sorted(hists)}}


def _round(v: float) -> Any:
    if isinstance(v, int):
        return v
    if v != v or v in (math.inf, -math.inf):  # NaN / inf: JSON-hostile
        return None
    r = round(v, 3)
    return int(r) if r == int(r) else r


def metrics_block(snap: dict) -> dict:
    """The presentation form embedded as ``meta.metrics`` in
    ``BENCH_<figure>.json``: counters as totals, gauges as
    last/min/max/mean summaries, histograms as count/sum/min/max plus
    p50/p90/p99/p99.9."""
    counters = {k: _round(v) for k, (v, _s) in snap.get("counters", {}).items()}
    gauges = {}
    for k, (last, vmin, vmax, integral, span, n, _s) in \
            snap.get("gauges", {}).items():
        mean = integral / span if span > 0.0 else last
        gauges[k] = {"last": _round(last), "min": _round(vmin),
                     "max": _round(vmax), "mean": _round(mean),
                     "samples": n}
    hists = {}
    for k, h in snap.get("hists", {}).items():
        buckets = {int(i): n for i, n in h["buckets"].items()}
        entry = {"count": h["count"], "sum": _round(h["sum"]),
                 "min": _round(h["min"]) if h["min"] is not None else None,
                 "max": _round(h["max"]) if h["max"] is not None else None}
        for q, label in PERCENTILES:
            p = percentile_from_buckets(buckets, h["count"], q,
                                        h["min"] if h["min"] is not None
                                        else 0.0,
                                        h["max"] if h["max"] is not None
                                        else 0.0)
            entry[label] = _round(p) if p is not None else None
        hists[k] = entry
    return {"counters": counters, "gauges": gauges, "histograms": hists}


# -- key handling --------------------------------------------------------

def split_key(key: str) -> tuple[str, dict[str, str]]:
    """``"name|a=1|b=x"`` → ``("name", {"a": "1", "b": "x"})``."""
    parts = key.split("|")
    labels = {}
    for part in parts[1:]:
        k, _, v = part.partition("=")
        labels[k] = v
    return parts[0], labels


def _label_str(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels.items())
    return "{" + inner + "}"


# -- Prometheus text exposition ------------------------------------------

def to_prometheus(snap: dict) -> str:
    """Render a snapshot in Prometheus text exposition format (0.0.4).

    Counters keep their ``_total`` family names; gauges export the last
    sampled value; histograms export classic cumulative
    ``_bucket{le=...}`` series over the occupied bucket edges plus
    ``_sum`` and ``_count``.
    """
    lines: list[str] = []
    seen_family: set[str] = set()

    def head(family: str, kind: str, help_text: str) -> None:
        if family not in seen_family:
            seen_family.add(family)
            lines.append(f"# HELP {family} {help_text}")
            lines.append(f"# TYPE {family} {kind}")

    for key, (value, _stable) in snap.get("counters", {}).items():
        family, labels = split_key(key)
        head(family, "counter", "two-chains simulated counter")
        lines.append(f"{family}{_label_str(labels)} {fmt_value(value)}")
    for key, (last, _mn, _mx, _integ, _span, _n, _stable) in \
            snap.get("gauges", {}).items():
        family, labels = split_key(key)
        head(family, "gauge", "two-chains simulated gauge (last value)")
        lines.append(f"{family}{_label_str(labels)} {fmt_value(last)}")
    for key, h in snap.get("hists", {}).items():
        family, labels = split_key(key)
        head(family, "histogram", "two-chains simulated histogram")
        cum = 0
        for idx in sorted(int(i) for i in h["buckets"]):
            cum += h["buckets"][str(idx)]
            le = fmt_value(bucket_upper(idx))
            ll = _label_str({**labels, "le": le})
            lines.append(f"{family}_bucket{ll} {cum}")
        ll = _label_str({**labels, "le": "+Inf"})
        lines.append(f"{family}_bucket{ll} {h['count']}")
        lines.append(f"{family}_sum{_label_str(labels)} "
                     f"{fmt_value(h['sum'])}")
        lines.append(f"{family}_count{_label_str(labels)} {h['count']}")
    return "\n".join(lines) + "\n"


def fmt_value(v: float) -> str:
    """Shortest faithful decimal for a sample value."""
    if isinstance(v, int) or (isinstance(v, float) and v == int(v)
                              and abs(v) < 1e15):
        return str(int(v))
    return repr(float(v))


def parse_prometheus(text: str) -> dict[str, dict]:
    """Minimal exposition-format parser (validation aid, not a client).

    Returns ``{family: {"type": str, "samples": [(name, labels, value)]}}``
    and raises :class:`ValueError` on lines that fit neither a comment,
    a blank, nor a sample.
    """
    families: dict[str, dict] = {}
    typed: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                typed[parts[2]] = parts[3] if len(parts) > 3 else ""
            continue
        # sample: name{labels} value  |  name value
        if "{" in line:
            name, rest = line.split("{", 1)
            labelpart, rest = rest.split("}", 1)
            labels = {}
            for item in filter(None, labelpart.split(",")):
                k, _, v = item.partition("=")
                if not (v.startswith('"') and v.endswith('"')):
                    raise ValueError(f"line {lineno}: unquoted label {item!r}")
                labels[k.strip()] = v[1:-1]
            value_str = rest.strip()
        else:
            try:
                name, value_str = line.rsplit(None, 1)
            except ValueError:
                raise ValueError(f"line {lineno}: malformed sample {raw!r}")
        if value_str == "+Inf":
            value = math.inf
        else:
            try:
                value = float(value_str)
            except ValueError:
                raise ValueError(f"line {lineno}: bad value {value_str!r}")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in typed:
                family = name[:-len(suffix)]
                break
        entry = families.setdefault(
            family, {"type": typed.get(family, ""), "samples": []})
        entry["type"] = typed.get(family, entry["type"])
        entry["samples"].append((name, labels, value))
    return families


# -- Perfetto counter-track feed -----------------------------------------

def counter_track_events(registry: Optional[MetricsRegistry] = None,
                         ) -> list[tuple]:
    """Tracer-style event tuples (``ph: "C"``) for every counter/gauge
    series, ready to merge into a Perfetto export.

    A ``node=<n>`` label routes the track onto that node's pid (the
    label is dropped from the display name); everything else lands on
    the simulator pid.  Counter tracks plot the cumulative value.
    """
    reg = registry if registry is not None else METRICS
    events: list[tuple] = []
    for _kind, key, samples in reg.series():
        family, labels = split_key(key)
        node = labels.pop("node", None)
        pid = node_pid(int(node)) if node is not None else PID_SIM
        name = family
        if labels:
            name += "{" + ",".join(f"{k}={v}"
                                   for k, v in sorted(labels.items())) + "}"
        for ts, value in samples:
            events.append(("C", pid, 0, name, ts, 0.0, {"value": value}))
    return events


# -- figure-level collection (CLI back-end) ------------------------------

def collect_figure_metrics(figure: str, point_index: int = 0,
                           fast: bool = True) -> tuple[dict, dict]:
    """Run one sweep point of ``figure`` with metrics enabled and return
    ``(snapshot, info)``.  Mirrors :func:`..obs.perfetto.export_figure_trace`."""
    from ..bench.figures import full_registry

    registry = full_registry()
    if figure not in registry:
        raise ValueError(f"unknown figure {figure!r}; choices: "
                         f"{', '.join(registry)}")
    spec = registry[figure]
    points = spec.points(fast=fast)
    if not 0 <= point_index < len(points):
        raise ValueError(f"{figure} has {len(points)} points; "
                         f"index {point_index} is out of range")
    params = points[point_index]
    with METRICS.capture():
        spec.point(**params)
    snap = METRICS.snapshot()
    info = {
        "figure": figure,
        "params": params,
        "counters": len(snap["counters"]),
        "gauges": len(snap["gauges"]),
        "histograms": len(snap["hists"]),
    }
    return snap, info
