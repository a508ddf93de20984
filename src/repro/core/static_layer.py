"""The static layer (paper §5): the thin, card-specific bottom layer.

"The primary purpose of the static layer is now only to provide a link
between the host CPU and the FPGA, which can be used for data movement,
control and reconfiguration.  Importantly, the static layer does not
process the incoming data or control signals; instead it passes them onto
the upper layers."

Contents: the XDMA CPU-FPGA link, BAR-mapped shell control, the
reconfiguration (ICAP) controller, and MSI-X interrupt delivery.  It is
never reconfigured at run time; the synth model ships it as a routed and
locked checkpoint per device.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..pcie.xdma import MsiVector, Xdma, XdmaConfig
from ..sim.engine import Environment
from .reconfig import IcapController, VivadoHwManager

__all__ = ["StaticLayer"]


class StaticLayer:
    """Platform link: XDMA + BARs + ICAP.  One per card."""

    def __init__(self, env: Environment, xdma_config: XdmaConfig = XdmaConfig()):
        self.env = env
        self.xdma = Xdma(env, xdma_config)
        self.icap = IcapController(env, self.xdma)
        self.vivado = VivadoHwManager(env)

    # The static layer routes, it does not process: interrupt delivery is a
    # thin forward to MSI-X, and the shell control BAR is exposed directly.

    @property
    def bar0(self):
        return self.xdma.bar0

    def raise_user_interrupt(self, vfpga_id: int, value: int) -> None:
        """Forward a vFPGA user interrupt to the host as MSI-X."""
        self.env.process(
            self.xdma.raise_msix(MsiVector.USER, value=(vfpga_id << 32) | (value & 0xFFFFFFFF))
        )

    def on_user_interrupt(self, handler: Callable[[int], None]) -> None:
        self.xdma.on_interrupt(MsiVector.USER, handler)
