"""Clock-domain helpers: conversions between cycles, frequencies and ns.

The shell uses several clock domains (paper §9.1): the fabric/system clock
(250 MHz on the evaluated Alveo U55C), the HBM clock (450 MHz) and the
PCIe user clock.  Simulated time is nanoseconds throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Clock", "FABRIC_CLOCK", "HBM_CLOCK", "PCIE_CLOCK"]


@dataclass(frozen=True)
class Clock:
    """A clock domain defined by its frequency in MHz."""

    name: str
    freq_mhz: float

    @property
    def period_ns(self) -> float:
        return 1000.0 / self.freq_mhz

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles * self.period_ns

    def bytes_per_ns(self, bytes_per_cycle: float) -> float:
        """Bandwidth of a bus moving ``bytes_per_cycle`` each cycle.

        bytes/ns is numerically equal to GB/s.
        """
        return bytes_per_cycle / self.period_ns


# Reference clock domains from the paper's evaluation platform (Alveo U55C).
FABRIC_CLOCK = Clock("fabric", 250.0)
HBM_CLOCK = Clock("hbm", 450.0)
PCIE_CLOCK = Clock("pcie", 250.0)
