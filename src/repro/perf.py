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
* ``des_events`` — callbacks executed by ``Engine.run`` (bare
  ``Engine.step`` calls outside ``run`` are not counted).
* ``sim_ns`` — simulated time advanced by ``Engine.run``.
* ``blocks_compiled`` — fused superblock closures materialized by the
  VM's basic-block fusion layer (one per generated closure, not per
  memo hit).
* ``fused_dispatches`` — hot-loop dispatches that entered a fused
  block (each retires 2+ instructions in one call).
* ``fused_instructions`` — instructions retired *inside* fused blocks
  (exact across mid-block bail-outs; the fused/interp/trace tier split
  feeds the per-tier metrics in docs/METRICS.md).
* ``block_invalidations`` — fused blocks dropped because a write
  changed bytes under them (stores, DMA, GOT patches).
* ``traces_compiled`` — cross-branch trace closures generated by the
  VM's trace tier (one per generated closure, not per memo hit).
* ``trace_dispatches`` — hot-loop dispatches that entered a trace
  (each may retire thousands of instructions in one call).
* ``trace_instructions`` — instructions retired *inside* traces; with
  ``instructions`` this yields the trace-coverage ratio that
  ``twochains profile --hot-loops`` reports.
* ``guard_bails`` — trace exits through a branch-direction guard whose
  prediction missed (control returns to the dispatcher at the exact
  branch pc).
* ``trace_invalidations`` — live traces killed because a write changed
  bytes under *any* stitched block (stores, DMA, GOT patches,
  checkpoint restore).

Counters are per-process; the orchestrator snapshots them around each
sweep point and ships the deltas back from pool workers.
"""

from __future__ import annotations

_FIELDS = ("instructions", "cache_probes", "des_events", "sim_ns",
           "blocks_compiled", "fused_dispatches", "fused_instructions",
           "block_invalidations",
           "traces_compiled", "trace_dispatches", "trace_instructions",
           "guard_bails", "trace_invalidations")


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
