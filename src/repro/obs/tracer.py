"""The process-wide structured tracer: spans and instant events.

One :data:`TRACER` per process, disabled by default.  Model code reports
into it from every layer a message crosses — DES callback dispatch, RDMA
post/flight/DMA, mailbox wait/parse/dispatch, VM execution, GOT
rewrites, and cache-hierarchy misses — with the hot-path contract that
**disabled tracing costs exactly one attribute check**::

    from ..obs.tracer import TRACER as _T
    ...
    if _T.enabled:
        _T.span(pid, tid, "mb.dispatch", t0, t1, {"injected": True})

Timestamps are *simulated* nanoseconds (the DES clock), so traces are
bit-deterministic: the same seed and sweep point produce the same event
list, byte for byte.  Nothing in here reads wall-clock time.

Track model
-----------

Events land on Perfetto-style ``(pid, tid)`` tracks:

* ``pid 0`` — the simulator itself: ``tid 0`` the DES event loop,
  ``tid 1`` the toolchain (build-time GOT rewrites).
* ``pid node_id + 1`` — one process per simulated node: ``tid 0..N-1``
  the CPU cores, ``tid 64`` the node's HCA.

:func:`node_pid` maps a node id to its pid; the export layer
(:mod:`.perfetto`) turns these conventions into metadata events.

Events are plain tuples ``(ph, pid, tid, name, ts, dur, args)`` where
``ph`` is the trace-event phase: ``"X"`` complete span, ``"i"`` instant.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

# Track-addressing conventions (see module docstring).
PID_SIM = 0
TID_DES = 0
TID_TOOL = 1
TID_HCA = 64


def node_pid(node_id: int) -> int:
    """Perfetto pid of simulated node ``node_id``."""
    return node_id + 1


class Tracer:
    """Span/instant recorder.  ``enabled`` gates every emission."""

    __slots__ = ("enabled", "events", "_ts_hint")

    def __init__(self) -> None:
        self.enabled = False
        # (ph, pid, tid, name, ts_ns, dur_ns, args|None), emission order.
        self.events: list[tuple] = []
        self._ts_hint = 0.0

    # -- lifecycle -------------------------------------------------------
    def attach(self, clear: bool = True) -> None:
        """Enable recording (optionally dropping any prior events)."""
        if clear:
            self.clear()
        self.enabled = True

    def detach(self) -> None:
        """Stop recording; already-captured events stay readable."""
        self.enabled = False

    def clear(self) -> None:
        self.events.clear()
        self._ts_hint = 0.0

    @contextmanager
    def capture(self) -> Iterator["Tracer"]:
        """``with TRACER.capture(): ...`` — attach, then detach."""
        self.attach()
        try:
            yield self
        finally:
            self.detach()

    # -- emission --------------------------------------------------------
    def span(self, pid: int, tid: int, name: str, start_ns: float,
             end_ns: float, args: Optional[dict] = None) -> None:
        """Record a complete span (``ph: "X"``) on track ``(pid, tid)``."""
        dur = end_ns - start_ns
        if dur < 0.0:  # defensive: a model bug must not corrupt the trace
            dur = 0.0
        self.events.append(("X", pid, tid, name, start_ns, dur, args))
        if end_ns > self._ts_hint:
            self._ts_hint = end_ns

    def instant(self, pid: int, tid: int, name: str, ts_ns: float,
                args: Optional[dict] = None) -> None:
        """Record an instant event (``ph: "i"``)."""
        self.events.append(("i", pid, tid, name, ts_ns, 0.0, args))
        if ts_ns > self._ts_hint:
            self._ts_hint = ts_ns

    # -- inspection ------------------------------------------------------
    def ts_hint(self) -> float:
        """Largest timestamp seen so far — the 'current' trace time for
        emitters with no DES clock of their own (the toolchain)."""
        return self._ts_hint

    def spans(self, name: Optional[str] = None) -> list[tuple]:
        """Complete spans, optionally filtered by exact name."""
        return [e for e in self.events
                if e[0] == "X" and (name is None or e[3] == name)]

    def instants(self, name: Optional[str] = None) -> list[tuple]:
        return [e for e in self.events
                if e[0] == "i" and (name is None or e[3] == name)]

    def tracks(self) -> set[tuple[int, int]]:
        """Distinct ``(pid, tid)`` pairs that carry at least one event."""
        return {(e[1], e[2]) for e in self.events}

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Tracer(enabled={self.enabled}, events={len(self.events)}, "
                f"tracks={len(self.tracks())})")


#: The process-wide tracer every instrumented layer reports into.
TRACER = Tracer()
