"""Discrete-event simulation kernel.

A deliberately small generator-based DES: processes are Python generators
that ``yield`` either a :class:`Delay`, an absolute :class:`At` time, or an
:class:`Event` to wait on.  The engine owns a single priority queue of
scheduled callbacks; ties are broken by insertion order so runs are fully
deterministic.

This kernel is in the hot path of every benchmark, so it avoids abstraction
layers: one heap, plain tuples, no per-event allocation beyond the tuple.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional

from ..errors import SimulationError
from ..obs.tracer import PID_SIM, TID_DES, TRACER as _T
from ..perf import COUNTERS as _C

# Type of a simulation process body.
ProcessBody = Generator[Any, Any, Any]


class Delay:
    """Yielded by a process to sleep for ``dt`` nanoseconds."""

    __slots__ = ("dt",)

    def __init__(self, dt: float):
        if dt < 0:
            raise SimulationError(f"negative delay: {dt}")
        self.dt = dt

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Delay({self.dt!r})"


class At:
    """Yielded by a process to sleep until absolute time ``t``."""

    __slots__ = ("t",)

    def __init__(self, t: float):
        self.t = t

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"At({self.t!r})"


class Event:
    """A one-shot or reusable wake-up point.

    Processes yield an Event to block on it.  ``fire(payload)`` wakes every
    waiter at the current simulation time; the payload becomes the value of
    the ``yield`` expression inside the waiting process.  After ``fire`` the
    event automatically resets, so the same object can be reused for
    repeated signalling (mailbox-style).
    """

    __slots__ = ("engine", "name", "_waiters", "fire_count")

    def __init__(self, engine: "Engine", name: str = "event"):
        self.engine = engine
        self.name = name
        self._waiters: list[Process] = []
        self.fire_count = 0

    def fire(self, payload: Any = None) -> int:
        """Wake all current waiters; returns the number woken."""
        self.fire_count += 1
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self.engine.call_at(self.engine.now, proc._resume, payload)
        return len(waiters)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Event({self.name!r}, waiters={len(self._waiters)})"


class Process:
    """A running simulation process wrapping a generator body."""

    __slots__ = ("engine", "name", "body", "finished", "result", "_done_event")

    def __init__(self, engine: "Engine", body: ProcessBody, name: str):
        self.engine = engine
        self.name = name
        self.body = body
        self.finished = False
        self.result: Any = None
        self._done_event: Optional[Event] = None

    @property
    def done_event(self) -> Event:
        """Event fired when this process terminates (lazily created)."""
        if self._done_event is None:
            self._done_event = Event(self.engine, f"done:{self.name}")
            if self.finished:
                self._done_event.fire(self.result)
        return self._done_event

    def _resume(self, value: Any = None) -> None:
        if self.finished:
            return
        engine = self.engine
        try:
            yielded = self.body.send(value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            if self._done_event is not None:
                self._done_event.fire(self.result)
            return
        if isinstance(yielded, Delay):
            engine.call_at(engine.now + yielded.dt, self._resume, None)
        elif isinstance(yielded, At):
            if yielded.t < engine.now:
                raise SimulationError(
                    f"process {self.name}: At({yielded.t}) is in the past "
                    f"(now={engine.now})"
                )
            engine.call_at(yielded.t, self._resume, None)
        elif isinstance(yielded, Event):
            yielded._waiters.append(self)
        elif isinstance(yielded, (int, float)):
            # Bare number == Delay(number); convenient in tight model code.
            engine.call_at(engine.now + float(yielded), self._resume, None)
        else:
            raise SimulationError(
                f"process {self.name} yielded unsupported {yielded!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Process({self.name!r}, finished={self.finished})"


class Engine:
    """The event loop.  All model state shares one Engine per experiment."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        self._seq = 0
        self._running = False

    # -- scheduling ------------------------------------------------------

    def call_at(self, t: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``t``."""
        if t < self.now:
            raise SimulationError(f"call_at({t}) before now={self.now}")
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, fn, args))

    def call_after(self, dt: float, fn: Callable, *args: Any) -> None:
        self.call_at(self.now + dt, fn, *args)

    def event(self, name: str = "event") -> Event:
        return Event(self, name)

    def spawn(self, body: ProcessBody, name: str = "proc") -> Process:
        """Start a process; its first step runs at the current time."""
        proc = Process(self, body, name)
        self.call_at(self.now, proc._resume, None)
        return proc

    # -- running ---------------------------------------------------------

    def run(self, until: float | None = None, max_events: int = 50_000_000) -> None:
        """Run until the queue drains or simulated time passes ``until``.

        ``max_events`` is a runaway guard: exceeding it raises, which in
        practice means a model is spinning without advancing time.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        t_start = self.now
        executed = 0
        # The noise-heavy figures execute tens of millions of events per
        # run, so the per-event attribute lookups (self._heap,
        # heapq.heappop) are hoisted out of the loop.
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                t = heap[0][0]
                if until is not None and t > until:
                    self.now = until
                    return
                t, _seq, fn, args = pop(heap)
                self.now = t
                if _T.enabled:
                    # Name the dispatch after its target: a Process carries
                    # its name, an Event.fire its event name, else the
                    # qualname.
                    owner = getattr(fn, "__self__", None)
                    label = getattr(owner, "name", None)
                    if not isinstance(label, str):
                        label = getattr(fn, "__qualname__", "callback")
                    _T.instant(PID_SIM, TID_DES, label, t)
                fn(*args)
                executed += 1
                if executed > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; model is likely spinning"
                    )
        finally:
            self._running = False
            _C.des_events += executed
            _C.sim_ns += self.now - t_start

    # -- checkpointing ----------------------------------------------------

    @property
    def quiescent(self) -> bool:
        """True when nothing is scheduled and the loop is not running —
        the only state a world checkpoint is allowed in."""
        return not self._heap and not self._running

    def snapshot(self) -> tuple[float, int]:
        """Capture (now, seq).  Checkpoints must be quiescent: a pending
        callback cannot be serialized (it closes over live model objects),
        so a non-empty queue is a hard error, not a silent approximation."""
        if not self.quiescent:
            raise SimulationError(
                f"engine checkpoint requires quiescence: "
                f"{len(self._heap)} pending callback(s), "
                f"running={self._running}")
        return self.now, self._seq

    def restore(self, snap: tuple[float, int]) -> None:
        """Rewind the clock to a snapshot; same quiescence bar as
        :meth:`snapshot` (restoring under pending work would strand it
        in a future that no longer exists)."""
        if not self.quiescent:
            raise SimulationError(
                f"engine restore requires quiescence: "
                f"{len(self._heap)} pending callback(s), "
                f"running={self._running}")
        self.now, self._seq = snap

    def run_process(self, body: ProcessBody, name: str = "main",
                    until: float | None = None) -> Any:
        """Spawn ``body`` and run the loop until it finishes; returns its
        return value."""
        proc = self.spawn(body, name)
        self.run(until=until)
        if not proc.finished:
            raise SimulationError(
                f"process {name} did not finish (now={self.now}); deadlock?"
            )
        return proc.result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Engine(now={self.now}, pending={len(self._heap)})"
