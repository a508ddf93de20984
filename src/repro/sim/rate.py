"""Booked ports: O(1)-event FIFO servers on a virtual clock.

A port that holds each requester for one duration known at request time
(an HBM channel burst, an MMU translation slot, a PCIe descriptor, a GPU
P2P transfer, a fixed-rate pipeline) needs no grant or release events:
:meth:`FifoServer.book` computes when the hold starts and ends, and the
caller sleeps once, with ``env.sleep_until(end)``.  The times are exactly
those of a FIFO ``Resource(k)`` request -> ``timeout`` -> ``release``.

* FIFO order is call order.
* A booking is never refunded: if its caller is interrupted, the hold
  still runs to its end and the next booking starts no earlier.
* Whatever changes a duration (ECC re-reads, PCIe replays) is decided by
  the caller when it books.

Holds of unknown length stay on :class:`repro.sim.Resource`; see
DESIGN.md "Booked ports".
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import Generator, List

from .engine import Environment

__all__ = ["FifoServer", "RateServer"]


class FifoServer:
    """A FIFO port with ``stations`` parallel servers and booked holds."""

    def __init__(self, env: Environment, stations: int = 1):
        if stations < 1:
            raise ValueError("stations must be >= 1")
        self.env = env
        self._free: List[float] = [0.0] * stations  # heap: when each station frees
        self._ends: List[float] = []  # heap: ends of bookings not yet seen ended

    def book(self, duration_ns: float) -> float:
        """Book the earliest free station for ``duration_ns``; returns the
        time the booking ends."""
        now = self.env.now
        start = self._free[0]
        end = (start if start > now else now) + duration_ns
        heapreplace(self._free, end)
        ends = self._ends
        while ends and ends[0] <= now:
            heappop(ends)
        heappush(ends, end)
        return end

    @property
    def in_flight(self) -> int:
        """Bookings not yet ended: those in service plus those queued."""
        now = self.env.now
        ends = self._ends
        while ends and ends[0] <= now:
            heappop(ends)
        return len(ends)


class RateServer(FifoServer):
    """One station serialising reservations at ``units_per_ns``."""

    def __init__(self, env: Environment, units_per_ns: float, name: str = "rate"):
        if units_per_ns <= 0:
            raise ValueError("rate must be positive")
        super().__init__(env)
        self.name = name
        self.units_per_ns = units_per_ns
        self.total_units = 0.0

    def reserve(self, units: float) -> Generator:
        """Occupy the server for ``units`` worth of work; returns when done."""
        if units < 0:
            raise ValueError("units must be non-negative")
        self.total_units += units
        end = self.book(units / self.units_per_ns)
        if end > self.env.now:
            yield self.env.sleep_until(end)
