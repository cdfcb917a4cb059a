"""A fixed reference workload that measures the host's current speed.

This benchmark runs on shared machines whose speed drifts by tens of
percent over tens of seconds (neighbours contending for cores, caches
and memory bandwidth). Within one run the simulator and this loop slow
down together, so each run times the loop between its passes and scales
its host times by ``REFERENCE_S / median(loop times)``. Across runs that
cancels most of the drift. The loop is pure Python, with random reads and
writes over a dict and a list far larger than the CPU caches, like the
simulator's own memory-bound interpreter work. It shares no code with
the simulator, so a change to the simulator cannot move it.

Do not change this file, ``REFERENCE_S`` or the loop's size: every
recorded result depends on them.
"""

from __future__ import annotations

import random
import time

#: Loop time on the host the benchmark was defined on (a 2-vCPU Intel
#: Xeon KVM guest at 2.1 GHz), lightly loaded.  Scaled times are in
#: seconds of that host.
REFERENCE_S = 0.4

_ENTRIES = 1 << 20
_STEPS = 600_000


class Reference:
    """The loop's data, built once per run (about 85 MB, 0.5 s)."""

    def __init__(self) -> None:
        keys = list(range(_ENTRIES))
        random.Random(1).shuffle(keys)
        self.keys = keys
        self.table = dict.fromkeys(keys, 0)
        self.counts = [0] * _ENTRIES

    def _loop(self) -> int:
        keys, table, counts = self.keys, self.table, self.counts
        mask = _ENTRIES - 1
        acc = 0
        for i in range(_STEPS):
            k = keys[i & mask]
            acc += table[k]
            table[k] = acc & 0xFFFF
            counts[(i * 2654435761) & mask] += 1
        return acc

    def time_once(self) -> float:
        """Host seconds for one run of the loop."""
        t0 = time.perf_counter()
        self._loop()
        return time.perf_counter() - t0
