"""The Coyote v2 shell: static + dynamic + application layers (paper §3).

:class:`Shell` is the top-level hardware object: it wires the XDMA link,
the service layer, and the vFPGAs together, routes send-queue descriptors
to the right data movers, and implements shell/app run-time
reconfiguration with the linked-shell safety check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..net.headers import MacAddress
from ..net.switch import Switch
from ..sim.engine import Environment
from ..sim.resources import Store
from .bitstream import Bitstream, BitstreamKind
from .dynamic_layer import DynamicLayer, ServiceConfig
from .floorplan import DEVICES, Floorplan
from .interfaces import Descriptor, StreamType
from .reconfig import IcapCrcError, ReconfigError
from .static_layer import StaticLayer
from .vfpga import UserApp, VFpga, VFpgaConfig

__all__ = ["Shell", "ShellConfig"]


@dataclass(frozen=True)
class ShellConfig:
    """Compile-time parameters of a shell build (paper §4: "a shell is
    fully parametrized by its services and the user applications")."""

    device: str = "u55c"
    num_vfpgas: int = 1
    vfpga: VFpgaConfig = VFpgaConfig()
    services: ServiceConfig = ServiceConfig()

    def __post_init__(self) -> None:
        if self.device not in DEVICES:
            raise ValueError(f"unknown device {self.device!r}")
        if self.num_vfpgas < 1:
            raise ValueError("need at least one vFPGA")

    @property
    def service_names(self) -> frozenset:
        return self.services.service_names


class Shell:
    """One card running one shell configuration."""

    def __init__(
        self,
        env: Environment,
        config: ShellConfig = ShellConfig(),
        switch: Optional[Switch] = None,
        mac: Optional[MacAddress] = None,
        ip: int = 0x0A000001,
    ):
        self.env = env
        self.config = config
        self.floorplan = Floorplan(
            DEVICES[config.device], app_regions=config.num_vfpgas
        )
        self.static = StaticLayer(env)
        self._switch = switch
        self._mac = mac
        self._ip = ip
        self.dynamic = DynamicLayer(
            env, self.static, config.services, switch=switch, mac=mac, ip=ip
        )
        self.vfpgas: List[VFpga] = []
        #: Outbound network bindings: (vfpga_id, stream dest) -> QP number.
        self.net_bindings: Dict[Tuple[int, int], int] = {}
        for index in range(config.num_vfpgas):
            self._make_vfpga(index)
        self.shell_reconfigs = 0
        self.app_reconfigs = 0
        #: Armed :class:`repro.faults.FaultInjector`, or ``None``.
        self.fault_injector = None
        #: Last successfully programmed (bitstream, app) per vFPGA, the
        #: rollback target after an ICAP CRC failure.
        self._last_good_app: Dict[int, Tuple[Bitstream, UserApp]] = {}
        self.icap_rollbacks = 0

    # -------------------------------------------------------------- wiring

    def bind_faults(self, injector) -> None:
        """Arm a :class:`repro.faults.FaultInjector` on every hardware
        block of this shell (re-applied automatically after shell swaps)."""
        self.fault_injector = injector
        self.static.xdma.faults = injector
        self.static.xdma.link.faults = injector
        self.static.icap.faults = injector
        if self.dynamic.hbm is not None:
            self.dynamic.hbm.faults = injector
        for vfpga in self.vfpgas:
            vfpga.faults = injector  # the app.* misbehaving-tenant sites

    def _make_vfpga(self, index: int) -> VFpga:
        vfpga = VFpga(self.env, index, self.config.vfpga)
        vfpga.bind_irq(self.static.raise_user_interrupt)
        mmu = self.dynamic.mmu_for(index)
        self.dynamic.host_mover.register(vfpga, mmu)
        if self.dynamic.card_mover is not None:
            self.dynamic.card_mover.register(vfpga, mmu)
        self.env.process(
            self._sq_dispatch(vfpga, vfpga.sq_rd, write=False),
            name=f"v{index}-sq-rd-dispatch",
        )
        self.env.process(
            self._sq_dispatch(vfpga, vfpga.sq_wr, write=True),
            name=f"v{index}-sq-wr-dispatch",
        )
        self.vfpgas.append(vfpga)
        return vfpga

    def _sq_dispatch(self, vfpga: VFpga, queue: Store, write: bool) -> Generator:
        """Route send-queue descriptors to the matching service datapath."""
        while True:
            desc: Descriptor = yield queue.get()
            if desc.stream is StreamType.HOST:
                target = vfpga._host_wr_dispatch if write else vfpga._host_rd_dispatch
                yield target.put(desc)
            elif desc.stream is StreamType.CARD:
                if self.dynamic.card_mover is None:
                    raise ReconfigError(
                        "card-memory request but the shell has no memory service"
                    )
                target = vfpga._card_wr_dispatch if write else vfpga._card_rd_dispatch
                yield target.put(desc)
            elif desc.stream is StreamType.NET:
                if self.dynamic.rdma is None:
                    raise ReconfigError("network request but the shell has no RDMA service")
                if not write:
                    raise ReconfigError(
                        "NET read descriptors are not used: inbound RDMA lands "
                        "directly in virtual memory via the MMU"
                    )
                self.env.process(self._net_write(vfpga, desc))
            else:  # pragma: no cover - enum is exhaustive
                raise ValueError(f"unknown stream {desc.stream}")

    def _net_write(self, vfpga: VFpga, desc: Descriptor) -> Generator:
        """Outbound hardware-issued RDMA: stream data -> remote memory."""
        qpn = self.net_bindings.get((vfpga.vfpga_id, desc.dest))
        if qpn is None:
            raise ReconfigError(
                f"vFPGA {vfpga.vfpga_id} net stream {desc.dest} has no bound QP"
            )
        collected = bytearray()
        total = 0
        while total < desc.length:
            flit = yield from vfpga.net_out[desc.dest].recv()
            total += flit.length
            collected += flit.data if flit.data is not None else bytes(flit.length)
        yield self.env.process(
            self._send_staged(qpn, bytes(collected), desc)
        )

    def _send_staged(self, qpn: int, payload: bytes, desc: Descriptor) -> Generator:
        stack = self.dynamic.rdma
        # Stage through a scratch virtual buffer the stack reads back.
        scratch = {"data": payload}

        def read_scratch(vaddr, length):
            yield self.env.timeout(0)
            return scratch["data"][vaddr : vaddr + length]

        stack.bind_qp_memory(qpn, read_scratch, stack._mem_write(qpn))
        try:
            yield self.env.process(
                stack.rdma_write(qpn, 0, desc.vaddr, len(payload), wr_id=desc.wr_id)
            )
        finally:
            stack.qp_memory.pop(qpn, None)

    # ------------------------------------------------------- identification

    @property
    def shell_id(self) -> str:
        """Identity used by the app-linking fail-safe."""
        probe = Bitstream(
            kind=BitstreamKind.SHELL,
            target_region="shell",
            size_bytes=1,
            services=self.config.service_names,
            device=self.config.device,
        )
        return probe.shell_id

    # ------------------------------------------------------ reconfiguration

    def reconfigure_app(
        self, bitstream: Bitstream, vfpga_id: int, app: UserApp
    ) -> Generator:
        """Swap one vFPGA's user logic at run time (paper §4)."""
        if bitstream.kind != BitstreamKind.APP:
            raise ReconfigError(f"expected an app bitstream, got {bitstream.kind}")
        if bitstream.device != self.config.device:
            raise ReconfigError(
                f"bitstream built for {bitstream.device}, card is {self.config.device}"
            )
        if bitstream.linked_shell != self.shell_id:
            raise ReconfigError(
                "app bitstream was linked against a different shell "
                "configuration; the services it requires may be missing"
            )
        missing = app.required_services - self.config.service_names
        if missing:
            raise ReconfigError(f"shell lacks services {sorted(missing)}")
        if not 0 <= vfpga_id < len(self.vfpgas):
            raise ReconfigError(f"no vFPGA {vfpga_id}")
        try:
            yield self.env.process(self.static.icap.program(bitstream))
        except IcapCrcError:
            # The region is now undefined: restore the last-good bitstream
            # before surfacing the error (the driver may then retry).
            yield self.env.process(self._rollback_app(vfpga_id))
            raise
        self.vfpgas[vfpga_id].load_app(app)
        self._last_good_app[vfpga_id] = (bitstream, app)
        self.app_reconfigs += 1

    #: Bound on back-to-back CRC failures while restoring a region.
    _MAX_ROLLBACK_ATTEMPTS = 8

    def _rollback_app(self, vfpga_id: int) -> Generator:
        """Re-program the last-good bitstream after a CRC failure."""
        last = self._last_good_app.get(vfpga_id)
        if last is None:
            # Nothing to roll back to: leave the region empty.
            self.vfpgas[vfpga_id].unload_app()
            return
        bitstream, app = last
        if bitstream is None:
            # Last-good was loaded at initial configuration: restoring it
            # is a plain reload, no bitstream to re-program.
            self.vfpgas[vfpga_id].load_app(app)
            self.icap_rollbacks += 1
            return
        for _attempt in range(self._MAX_ROLLBACK_ATTEMPTS):
            try:
                yield self.env.process(self.static.icap.program(bitstream))
            except IcapCrcError:
                continue
            self.vfpgas[vfpga_id].load_app(app)
            self.icap_rollbacks += 1
            return
        raise ReconfigError(
            f"vFPGA {vfpga_id}: rollback failed "
            f"{self._MAX_ROLLBACK_ATTEMPTS} times; region is offline"
        )

    def reconfigure_shell(
        self,
        bitstream: Bitstream,
        services: ServiceConfig,
        apps: Optional[List[Optional[UserApp]]] = None,
    ) -> Generator:
        """Swap the entire shell — services *and* applications — at run
        time, without taking the card offline (the headline capability)."""
        if bitstream.kind != BitstreamKind.SHELL:
            raise ReconfigError(f"expected a shell bitstream, got {bitstream.kind}")
        if bitstream.device != self.config.device:
            raise ReconfigError(
                f"bitstream built for {bitstream.device}, card is {self.config.device}"
            )
        yield self.env.process(self.static.icap.program(bitstream))
        self._apply_shell_swap(services, apps)

    def _apply_shell_swap(
        self,
        services: ServiceConfig,
        apps: Optional[List[Optional[UserApp]]] = None,
    ) -> None:
        """Tear out the old shell contents and instantiate the new ones.

        The old dynamic layer and vFPGAs are removed from the fabric; any
        processes still blocked inside them never resume (their queues
        are unreachable), matching hardware where the region is wiped.
        """
        for vfpga in self.vfpgas:
            vfpga.unload_app()
        # A reconfigured shell re-instantiates its CMAC: unplug the old one.
        if self.dynamic.cmac is not None and self._switch is not None:
            self._switch.detach(self._mac)
        self.config = replace(self.config, services=services)
        self.dynamic = DynamicLayer(
            self.env, self.static, services,
            switch=self._switch, mac=self._mac, ip=self._ip,
        )
        self.vfpgas = []
        self.net_bindings.clear()
        self._last_good_app.clear()
        for index in range(self.config.num_vfpgas):
            self._make_vfpga(index)
        if self.fault_injector is not None:
            # The new dynamic layer instantiated fresh hardware (HBM, …):
            # re-arm the injector on it.
            self.bind_faults(self.fault_injector)
        if apps is not None:
            for index, app in enumerate(apps):
                if app is not None:
                    self.load_app(index, app)
        self.shell_reconfigs += 1

    # ------------------------------------------------------------- app mgmt

    def load_app(self, vfpga_id: int, app: UserApp) -> VFpga:
        """Directly load user logic (initial configuration, no PR charge)."""
        missing = app.required_services - self.config.service_names
        if missing:
            raise ReconfigError(
                f"app {app.name!r} requires services {sorted(missing)} "
                f"not present in this shell"
            )
        vfpga = self.vfpgas[vfpga_id]
        vfpga.load_app(app)
        # Recovery/rollback target: a None bitstream marks an app loaded
        # at initial configuration (restoring it charges no PR).
        self._last_good_app[vfpga_id] = (None, app)
        return vfpga

    # ----------------------------------------------------------- host entry

    def post_descriptors(
        self, vfpga_id: int, reads: List[Descriptor], writes: List[Descriptor]
    ) -> None:
        """Entry point used by the driver to queue software-issued work:
        each send queue takes its descriptors as one burst (the shell's
        DMA fetch of a drained doorbell)."""
        vfpga = self.vfpgas[vfpga_id]
        if reads:
            vfpga.sq_rd.put_many(reads)
        if writes:
            vfpga.sq_wr.put_many(writes)
