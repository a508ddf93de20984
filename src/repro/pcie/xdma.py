"""AMD XDMA core model: the static layer's CPU-FPGA link (paper §5.1).

Provides the four channel groups the static layer exposes to the shell:

* **Shell control** — BAR-mapped register file (AXI4-Lite).
* **Host streaming channel** — direct host-memory <-> vFPGA data streams.
* **Migration channel** — bulk buffer moves between host memory and HBM.
* **Utility channel** — partial-bitstream download, completion writeback
  and MSI-X interrupt delivery.

Crucially (and unlike many shells), the XDMA descriptors can be issued from
the FPGA side too, which is what lets vFPGAs source their own DMA via the
send queues without host involvement.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Generator, List, Optional

from ..axi.lite import AxiLite, RegisterFile
from ..faults.plan import MSIX_LOSS
from ..mem.sparse import SparseMemory
from ..sim.engine import Environment
from .link import PcieLink, PcieLinkConfig

__all__ = ["Xdma", "XdmaConfig", "MsiVector", "Writeback"]

#: MSI-X delivery latency: PCIe message + kernel IRQ entry.
MSIX_LATENCY_NS = 2_000.0
#: Host-visible writeback counter update (posted write).
WRITEBACK_LATENCY_NS = 400.0


class MsiVector(Enum):
    """Interrupt sources multiplexed over MSI-X (paper §5.1)."""

    PAGE_FAULT = 0
    RECONFIG_DONE = 1
    TLB_INVALIDATION = 2
    USER = 3
    DMA_OFFLOAD = 4


@dataclass
class Writeback:
    """A host-memory completion counter (paper's writeback mechanism)."""

    name: str
    count: int = 0

    def bump(self) -> None:
        self.count += 1


@dataclass(frozen=True)
class XdmaConfig:
    link: PcieLinkConfig = PcieLinkConfig()
    host_memory_bytes: int = 64 * 1024 * 1024 * 1024  # 64 GB host DRAM


class Xdma:
    """The DMA bridge between host memory and the shell."""

    def __init__(self, env: Environment, config: XdmaConfig = XdmaConfig()):
        self.env = env
        self.config = config
        self.link = PcieLink(env, config.link)
        self.host_mem = SparseMemory(config.host_memory_bytes, name="host-dram")
        # BAR 0: shell control registers, memory-mapped over PCIe.
        self.bar0 = AxiLite(env, RegisterFile("bar0", size=4096))
        self._irq_handlers: Dict[MsiVector, List[Callable[[int], None]]] = {
            v: [] for v in MsiVector
        }
        self.writebacks: Dict[str, Writeback] = {}
        self.interrupts_raised = 0
        #: Armed :class:`repro.faults.FaultInjector`, or ``None``.
        self.faults = None
        self.interrupts_lost = 0
        #: Per-channel-group byte telemetry (the host streaming channel is
        #: already counted by the link's h2c/c2h totals).
        self.migration_bytes = 0

    # -- host streaming + migration channels --------------------------------

    def read_host(self, paddr: int, length: int, overhead: bool = True) -> Generator:
        """DMA-read host memory (H2C direction); returns the bytes."""
        yield from self.link.h2c(length, overhead=overhead)
        return self.host_mem.read(paddr, length)

    def write_host(self, paddr: int, data: bytes, overhead: bool = True) -> Generator:
        """DMA-write host memory (C2H direction)."""
        yield from self.link.c2h(len(data), overhead=overhead)
        self.host_mem.write(paddr, data)

    def migrate(self, nbytes: int, to_card: bool) -> Generator:
        """Bulk buffer migration over the dedicated migration channel."""
        if to_card:
            yield from self.link.h2c(nbytes)
        else:
            yield from self.link.c2h(nbytes)
        self.migration_bytes += nbytes

    # -- utility channel -----------------------------------------------------

    def writeback(self, name: str) -> Generator:
        """Update a host-mapped completion counter (avoids PCIe polling)."""
        wb = self.writebacks.setdefault(name, Writeback(name))
        yield self.env.timeout(WRITEBACK_LATENCY_NS)
        wb.bump()

    # -- interrupts ------------------------------------------------------------

    def on_interrupt(self, vector: MsiVector, handler: Callable[[int], None]) -> None:
        self._irq_handlers[vector].append(handler)

    def raise_msix(self, vector: MsiVector, value: int = 0) -> Generator:
        """Deliver an MSI-X interrupt to every registered handler."""
        yield self.env.timeout(MSIX_LATENCY_NS)
        if self.faults is not None and self.faults.fires(MSIX_LOSS, vector):
            # The MSI-X message write was lost in flight: no handler ever
            # runs.  Waiters must recover by timeout + status-register
            # polling (the driver's reconfiguration path does exactly that).
            self.interrupts_lost += 1
            return
        self.interrupts_raised += 1
        for handler in self._irq_handlers[vector]:
            handler(value)
