"""Device floorplans and partial-reconfiguration regions (paper §4).

"To enable shell reconfiguration, Coyote v2 provides a floor-plan and
interfaces which connect the static layer to the shell.  Both the
floor-plan and the interfaces are hidden from Coyote v2 users."

A device is divided into the locked static region, one shell (dynamic +
application layers) PR region, and per-vFPGA PR sub-regions nested inside
the shell region.  Partial bitstream sizes derive from region
configuration-frame footprints, which is what makes reconfiguration
latency a function of what is being reconfigured (Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["Device", "PrRegion", "Floorplan", "DEVICES"]

#: Bytes of configuration data per logic cell, calibrated so a full U55C
#: bitstream is ~90 MB and the evaluated shell configs land at the
#: bitstream sizes implied by Table 3 (51.6 ms @ 800 MB/s ~= 41 MB).
CONFIG_BYTES_PER_LUT = 72


@dataclass(frozen=True)
class Device:
    """An FPGA part with its resource totals."""

    name: str
    luts: int
    ffs: int
    brams: int
    urams: int
    dsps: int
    hbm_channels: int = 0

    @property
    def full_bitstream_bytes(self) -> int:
        return self.luts * CONFIG_BYTES_PER_LUT


DEVICES: Dict[str, Device] = {
    "u55c": Device("u55c", luts=1_303_680, ffs=2_607_360, brams=2_016, urams=960,
                   dsps=9_024, hbm_channels=32),
    "u250": Device("u250", luts=1_728_000, ffs=3_456_000, brams=2_688, urams=1_280,
                   dsps=12_288),
    "u280": Device("u280", luts=1_303_680, ffs=2_607_360, brams=2_016, urams=960,
                   dsps=9_024, hbm_channels=32),
}


@dataclass
class PrRegion:
    """A partially reconfigurable region of the fabric."""

    name: str
    luts: int


@dataclass
class Floorplan:
    """Static / shell / per-app region split for one device."""

    device: Device
    static_fraction: float = 0.08
    app_regions: int = 4
    app_fraction_each: float = 0.08

    def __post_init__(self) -> None:
        if not 0 < self.static_fraction < 1:
            raise ValueError("static_fraction must be in (0, 1)")
        shell_frac = 1.0 - self.static_fraction
        if self.app_regions * self.app_fraction_each >= shell_frac:
            raise ValueError("app regions exceed the shell region")

    @property
    def static_region(self) -> PrRegion:
        return PrRegion("static", int(self.device.luts * self.static_fraction))

    @property
    def shell_region(self) -> PrRegion:
        """The whole reconfigurable shell (dynamic + application layers)."""
        return PrRegion("shell", int(self.device.luts * (1.0 - self.static_fraction)))

    def app_region(self, index: int) -> PrRegion:
        if not 0 <= index < self.app_regions:
            raise IndexError(f"no app region {index} (have {self.app_regions})")
        return PrRegion(
            f"vfpga{index}", int(self.device.luts * self.app_fraction_each)
        )
