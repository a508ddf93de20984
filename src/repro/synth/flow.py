"""Build flows: shell flow, app flow, and bitstream generation.

Paper §9.2: "Shell flow refers to a flow which synthesizes, places and
routes both the application and the services.  App flow refers to a flow
which only synthesizes, places and routes the user application, which is
then linked against a previously routed and locked shell ... Overall, the
app flow can reduce the synthesis time by 15% to 20%."

The model decomposes a build into:

* per-module synthesis (+ place & route), linear in LUTs with a
  complexity multiplier and a utilisation-driven congestion term, and
* a *common* phase both flows pay: checkpoint I/O, full-device timing
  analysis, DRC and bitstream generation.

The coefficients are calibrated so the three evaluated configurations
land at the paper's scale (tens of minutes to ~4 h) with app-flow savings
inside the reported 15-20% band, and so partial-bitstream sizes imply
Table 3's reconfiguration latencies through the 800 MB/s ICAP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.bitstream import Bitstream, BitstreamKind
from ..core.dynamic_layer import ServiceConfig
from ..core.floorplan import DEVICES, Device, Floorplan
from .netlist import Module, get_module, modules_for_services, total_resources
from .resources import ResourceVector

__all__ = ["BuildFlow", "BuildResult", "LockedShellCheckpoint"]

# ----------------------------------------------------- calibrated constants

#: Per-module synthesis: fixed launch cost + per-LUT effort (seconds).
SYNTH_FIXED_S = 9.0
SYNTH_PER_LUT_S = 0.007
#: Place & route per LUT, amplified by utilisation-squared congestion.
PNR_PER_LUT_S = 0.009
PNR_CONGESTION = 2.2
#: Locked-context factor: routing an app inside a locked shell is tighter.
PNR_LOCKED_FACTOR = 1.25
#: Common phase: checkpoint I/O + full-device timing/DRC/bitgen.
COMMON_FIXED_S = 520.0
COMMON_PER_LUT_S = 0.034
#: App-flow linking against the locked shell checkpoint.
LINK_PER_LUT_S = 0.008

#: Bitstream size model (bytes = 72 * equivalent LUTs, see floorplan):
#: a partial bitstream covers a fraction of its region's frames plus the
#: configuration of the logic actually used (compressed bitstreams).
SHELL_REGION_FILL = 0.287
APP_REGION_FILL = 0.75
USED_DENSITY = 2.24
FULL_DEVICE_FILL = 0.715
FULL_USED_DENSITY = 1.9
CONFIG_BYTES_PER_LUT = 72


@dataclass(frozen=True)
class LockedShellCheckpoint:
    """A routed, locked shell the app flow links against (paper §4)."""

    device: str
    services: ServiceConfig
    shell_id: str
    used_luts: int


@dataclass(frozen=True)
class BuildResult:
    """Outcome of one flow invocation."""

    flow: str  # "shell" | "app" | "full"
    seconds: float
    bitstream: Bitstream
    resources: ResourceVector
    checkpoint: Optional[LockedShellCheckpoint] = None


class BuildFlow:
    """The nested build flows for one device."""

    def __init__(self, device: str = "u55c", num_vfpgas: int = 1):
        if device not in DEVICES:
            raise ValueError(f"unknown device {device!r}")
        self.device_name = device
        self.device: Device = DEVICES[device]
        self.floorplan = Floorplan(self.device, app_regions=num_vfpgas)

    # ------------------------------------------------------------ components

    @staticmethod
    def _synth_seconds(modules: Sequence[Module]) -> float:
        return sum(
            SYNTH_FIXED_S + SYNTH_PER_LUT_S * m.luts * m.complexity for m in modules
        )

    def _pnr_seconds(self, modules: Sequence[Module], locked: bool = False) -> float:
        placed = sum(m.luts * m.complexity for m in modules)
        util = sum(m.luts for m in modules) / self.floorplan.shell_region.luts
        congestion = 1.0 + PNR_CONGESTION * util * util
        factor = PNR_LOCKED_FACTOR if locked else 1.0
        return PNR_PER_LUT_S * placed * congestion * factor

    @staticmethod
    def _common_seconds(total_used_luts: int) -> float:
        return COMMON_FIXED_S + COMMON_PER_LUT_S * total_used_luts

    # ------------------------------------------------------- bitstream sizes

    def shell_bitstream_bytes(self, used_luts: int) -> int:
        region = self.floorplan.shell_region.luts
        return int(
            CONFIG_BYTES_PER_LUT * (SHELL_REGION_FILL * region + USED_DENSITY * used_luts)
        )

    def app_bitstream_bytes(self, app_luts: int) -> int:
        region = self.floorplan.app_region(0).luts
        return int(
            CONFIG_BYTES_PER_LUT * (APP_REGION_FILL * region + USED_DENSITY * app_luts)
        )

    def full_bitstream_bytes(self, used_luts: int) -> int:
        return int(
            CONFIG_BYTES_PER_LUT
            * (FULL_DEVICE_FILL * self.device.luts + FULL_USED_DENSITY * used_luts)
        )

    # ------------------------------------------------------------------ flows

    def _resolve_apps(self, app_names: Sequence[str]) -> List[Module]:
        return [get_module(name) for name in app_names]

    def shell_flow(
        self, services: ServiceConfig, app_names: Sequence[str]
    ) -> BuildResult:
        """Synthesize + implement services AND applications together."""
        service_modules = modules_for_services(services)
        app_modules = self._resolve_apps(app_names)
        everything = service_modules + app_modules
        used = sum(m.luts for m in everything)
        seconds = (
            self._synth_seconds(everything)
            + self._pnr_seconds(everything)
            + self._common_seconds(used)
        )
        bitstream = Bitstream(
            kind=BitstreamKind.SHELL,
            target_region="shell",
            size_bytes=self.shell_bitstream_bytes(used),
            services=services.service_names,
            apps=tuple(app_names),
            device=self.device_name,
        )
        checkpoint = LockedShellCheckpoint(
            device=self.device_name,
            services=services,
            shell_id=bitstream.shell_id,
            used_luts=used,
        )
        return BuildResult(
            flow="shell",
            seconds=seconds,
            bitstream=bitstream,
            resources=total_resources(everything),
            checkpoint=checkpoint,
        )

    def app_flow(
        self, checkpoint: LockedShellCheckpoint, app_names: Sequence[str]
    ) -> BuildResult:
        """Build only the apps, linked against a locked shell checkpoint.

        The linker verifies the checkpoint targets this device — this is
        the flow that "reduces synthesis time by 15% to 20%".
        """
        if checkpoint.device != self.device_name:
            raise ValueError(
                f"checkpoint for {checkpoint.device}, flow targets {self.device_name}"
            )
        app_modules = self._resolve_apps(app_names)
        app_luts = sum(m.luts for m in app_modules)
        total_used = checkpoint.used_luts + app_luts
        seconds = (
            self._synth_seconds(app_modules)
            + self._pnr_seconds(app_modules, locked=True)
            + self._common_seconds(total_used)
            + LINK_PER_LUT_S * total_used
        )
        bitstream = Bitstream(
            kind=BitstreamKind.APP,
            target_region="vfpga0",
            size_bytes=self.app_bitstream_bytes(app_luts),
            services=checkpoint.services.service_names,
            apps=tuple(app_names),
            device=self.device_name,
            linked_shell=checkpoint.shell_id,
        )
        return BuildResult(
            flow="app",
            seconds=seconds,
            bitstream=bitstream,
            resources=total_resources(app_modules),
        )

    def full_flow(
        self, services: ServiceConfig, app_names: Sequence[str]
    ) -> BuildResult:
        """Monolithic full-device build (the Vivado hardware-manager path)."""
        static_modules = [get_module("static_xdma"), get_module("static_icap")]
        service_modules = modules_for_services(services)
        app_modules = self._resolve_apps(app_names)
        everything = static_modules + service_modules + app_modules
        shell_used = sum(m.luts for m in service_modules + app_modules)
        used = sum(m.luts for m in everything)
        seconds = (
            self._synth_seconds(everything)
            + self._pnr_seconds(everything)
            + self._common_seconds(used)
        )
        bitstream = Bitstream(
            kind=BitstreamKind.FULL,
            target_region="device",
            size_bytes=self.full_bitstream_bytes(shell_used),
            services=services.service_names,
            apps=tuple(app_names),
            device=self.device_name,
        )
        return BuildResult(
            flow="full",
            seconds=seconds,
            bitstream=bitstream,
            resources=total_resources(everything),
        )
