"""FPGA resource accounting: LUTs, FFs, BRAM, URAM, DSP.

Used for the resource-utilisation halves of Figures 11 and 12 and for the
congestion terms of the build-time model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.floorplan import Device

__all__ = ["ResourceVector", "utilization_report"]


@dataclass(frozen=True)
class ResourceVector:
    """A bundle of fabric resources."""

    luts: int = 0
    ffs: int = 0
    brams: int = 0
    urams: int = 0
    dsps: int = 0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            luts=self.luts + other.luts,
            ffs=self.ffs + other.ffs,
            brams=self.brams + other.brams,
            urams=self.urams + other.urams,
            dsps=self.dsps + other.dsps,
        )

    def scale(self, factor: float) -> "ResourceVector":
        return ResourceVector(
            luts=int(self.luts * factor),
            ffs=int(self.ffs * factor),
            brams=int(self.brams * factor),
            urams=int(self.urams * factor),
            dsps=int(self.dsps * factor),
        )

    def fraction_of(self, device: Device) -> Dict[str, float]:
        """Utilisation fractions against a device's totals."""
        return {
            "luts": self.luts / device.luts,
            "ffs": self.ffs / device.ffs,
            "brams": self.brams / device.brams,
            "urams": self.urams / device.urams if device.urams else 0.0,
            "dsps": self.dsps / device.dsps,
        }


def utilization_report(vector: ResourceVector, device: Device) -> str:
    """Human-readable utilisation table (one line per resource kind)."""
    fractions = vector.fraction_of(device)
    lines = [f"utilisation on {device.name}:"]
    for kind, frac in fractions.items():
        total = getattr(device, kind)
        used = getattr(vector, kind)
        lines.append(f"  {kind:>6}: {used:>9,} / {total:>9,} ({frac * 100:5.1f}%)")
    return "\n".join(lines)
