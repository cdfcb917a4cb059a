"""Named integer counters shared by the models.

Components mutate a :class:`Scoreboard` rather than printing or logging;
benchmarks read it afterwards.  Counters are a plain dict so the hot
path stays cheap.
"""

from __future__ import annotations

from collections import defaultdict


class Scoreboard:
    """Named integer counters."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = defaultdict(int)

    def bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def count(self, name: str) -> int:
        return self.counters.get(name, 0)

    def checkpoint(self) -> dict[str, int]:
        """Copy of the counters for a later :meth:`restore`."""
        return dict(self.counters)

    def restore(self, state: dict[str, int]) -> None:
        self.counters.clear()
        self.counters.update(state)
