"""PCIe link bandwidth model.

The evaluated platform attaches the Alveo U55C over PCIe Gen3 x16.  The
paper reports ~12 GB/s of achievable host-memory bandwidth through the XDMA
core (§9.4), which is what the multi-tenant AES experiment saturates and
fairly shares.  The link is full duplex: host-to-card (H2C) and
card-to-host (C2H) directions are independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..faults.plan import PCIE_REPLAY
from ..sim.engine import Environment
from ..sim.rate import FifoServer

__all__ = ["PcieLinkConfig", "PcieLink"]


@dataclass(frozen=True)
class PcieLinkConfig:
    """Link speeds and per-descriptor overheads."""

    h2c_bandwidth: float = 12.0  # bytes/ns == GB/s (paper §9.4)
    c2h_bandwidth: float = 12.0
    descriptor_overhead_ns: float = 350.0  # DMA descriptor fetch + setup
    mmio_latency_ns: float = 900.0
    #: Data-link-layer replay penalty: a TLP that fails its LCRC is
    #: retransmitted from the replay buffer (ACK timeout + resend).
    replay_latency_ns: float = 1_000.0


class PcieLink:
    """Serialises DMA transfers per direction at the configured bandwidth.

    Each direction is a booked port (:mod:`repro.sim.rate`), served FIFO;
    fairness between tenants is
    achieved above this layer by the shell's packetizer and round-robin
    interleaver, which keep individual occupancies to one packet.
    """

    def __init__(self, env: Environment, config: PcieLinkConfig = PcieLinkConfig()):
        self.env = env
        self.config = config
        self._directions = {"h2c": FifoServer(env), "c2h": FifoServer(env)}
        self.h2c_bytes = 0
        self.c2h_bytes = 0
        self.h2c_transfers = 0
        self.c2h_transfers = 0
        #: Deepest occupancy seen per direction (holder + queued DMA
        #: descriptors) — the link-level analogue of credit telemetry.
        self.in_flight_high_water = {"h2c": 0, "c2h": 0}
        #: Armed :class:`repro.faults.FaultInjector`, or ``None``.
        self.faults = None
        self.replays = 0

    def in_flight(self, direction: str) -> int:
        """Transfers currently in service or queued in one direction."""
        return self._directions[direction].in_flight

    def _occupy(self, name: str, nbytes: int, bandwidth: float, overhead: bool) -> Generator:
        """Book one transfer on direction ``name`` and wait for its end."""
        duration = nbytes / bandwidth
        if overhead:
            duration += self.config.descriptor_overhead_ns
        if self.faults is not None and self.faults.fires(PCIE_REPLAY, name):
            # A TLP failed its LCRC: the replay costs latency, the data
            # still arrives intact.  Decided at booking, like the rest.
            self.replays += 1
            duration += self.config.replay_latency_ns
        direction = self._directions[name]
        end = direction.book(duration)
        depth = direction.in_flight
        if depth > self.in_flight_high_water[name]:
            self.in_flight_high_water[name] = depth
        yield self.env.sleep_until(end)

    def h2c(self, nbytes: int, overhead: bool = True) -> Generator:
        """Move ``nbytes`` from host memory to the card."""
        yield from self._occupy("h2c", nbytes, self.config.h2c_bandwidth, overhead)
        self.h2c_bytes += nbytes
        self.h2c_transfers += 1

    def c2h(self, nbytes: int, overhead: bool = True) -> Generator:
        """Move ``nbytes`` from the card to host memory."""
        yield from self._occupy("c2h", nbytes, self.config.c2h_bandwidth, overhead)
        self.c2h_bytes += nbytes
        self.c2h_transfers += 1
