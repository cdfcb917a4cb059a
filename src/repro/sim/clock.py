"""Clock-domain helpers.

The simulation keeps global time in float nanoseconds.  Hardware components
(CPU cores, the on-chip interconnect) run in their own clock domains and
account work in integer cycles; these helpers convert between the two.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClockDomain:
    """A fixed-frequency clock domain.

    Parameters
    ----------
    name:
        Human-readable label used in traces.
    freq_ghz:
        Frequency in GHz; one cycle lasts ``1 / freq_ghz`` nanoseconds.
    """

    name: str
    freq_ghz: float

    def __post_init__(self) -> None:
        if self.freq_ghz <= 0:
            raise ValueError(f"{self.name}: frequency must be positive")

    def ns_to_cycles(self, ns: float) -> int:
        """Whole cycles elapsed in ``ns`` nanoseconds (rounded to nearest)."""
        return int(round(ns * self.freq_ghz))


# Clock domains of the paper's testbed (§VI-C): 2.6 GHz cores, 1.6 GHz
# on-chip interconnect.
CPU_CLOCK = ClockDomain("cpu", 2.6)
NOC_CLOCK = ClockDomain("noc", 1.6)
