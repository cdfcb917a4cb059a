"""Process-wide simulator throughput counters.

Lightweight counters bumped from the three layers every benchmark
bottoms out in — the CHAIN VM (instructions retired), the cache
hierarchy (demand/stream line probes), and the DES kernel (events
executed, simulated nanoseconds advanced).  They exist to answer one
question cheaply: *how much simulated work did this process do per
wall-second?*  ``twochains profile`` prints them, and the benchmark
orchestrator records a per-figure ``sim_throughput`` block in every
``BENCH_<figure>.json`` meta so the perf trajectory of the simulator
itself is tracked across PRs (docs/BENCHMARKS.md).

Counting rules (kept deliberately coarse so the hot paths stay hot):

* ``instructions`` — retired CHAIN instructions, added once per
  completed ``Vm.call`` (intrinsic calls count as one, like
  ``CallResult.steps``).
* ``cache_probes`` — hierarchy line lookups: one per ``access_line``
  or ``_stream_line`` call, regardless of which level hit.
* ``des_events`` — callbacks executed by ``Engine.run``.
* ``sim_ns`` — simulated time advanced by ``Engine.run``.
* ``fused_instructions`` — always 0.  The fused-block tier that
  retired instructions in bulk is gone; the field stays because the
  benchmark's per-layer ledger (perfbench/ledger.py) reads it for
  ``isa.fused_share``.
* ``block_invalidations`` — predecoded lines dropped because a write
  changed their bytes (stores, DMA, GOT patches; ``fill`` and
  ``view_i64`` drop overlapping lines without comparing).  The name
  dates from the fused-block tier; the ledger reads it for
  ``isa.block_invalidations``.

Counters are per-process; the orchestrator snapshots them around each
sweep point and ships the deltas back from pool workers.
"""

from __future__ import annotations

_FIELDS = ("instructions", "cache_probes", "des_events", "sim_ns",
           "fused_instructions", "block_invalidations")


class SimCounters:
    """Mutable counter block; one process-wide instance (:data:`COUNTERS`)."""

    __slots__ = _FIELDS

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        for name in _FIELDS:
            setattr(self, name, 0.0 if name == "sim_ns" else 0)

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in _FIELDS}

    def delta(self, before: dict) -> dict:
        """Counter deltas since a previous :meth:`snapshot`."""
        return {name: getattr(self, name) - before.get(name, 0)
                for name in _FIELDS}


COUNTERS = SimCounters()


def throughput(counters: dict, wall_s: float) -> dict:
    """The ``sim_throughput`` block: counters plus per-wall-second rates."""
    wall = max(wall_s, 1e-12)
    out = {name: (round(float(counters.get(name, 0.0)), 3)
                  if name == "sim_ns" else int(counters.get(name, 0)))
           for name in _FIELDS}
    out.update(
        wall_s=round(wall_s, 6),
        instructions_per_s=round(counters.get("instructions", 0) / wall, 1),
        sim_ns_per_wall_s=round(counters.get("sim_ns", 0.0) / wall, 1),
    )
    return out
