"""Module library: the netlists the build flows compose.

Resource footprints are representative of the real IPs (the BALBOA RDMA
stack, XDMA, HBM memory controllers, the HLS HLL kernel of [35], ...) at
the granularity the experiments need: LUT counts drive bitstream sizes
(Table 3), build times (Figure 7b) and utilisation bars (Figures 11/12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from ..core.dynamic_layer import ServiceConfig
from ..mem.tlb import PAGE_1G, PAGE_2M, PAGE_4K
from .resources import ResourceVector

__all__ = ["Module", "MODULE_LIBRARY", "modules_for_services", "NetlistError"]


class NetlistError(KeyError):
    """Unknown module requested from the library."""


@dataclass(frozen=True)
class Module:
    """One synthesizable unit with its footprint and synthesis complexity.

    ``complexity`` scales place-and-route effort: congested, timing-
    critical blocks (memory controllers, 100G MACs) route slower per LUT.
    """

    name: str
    resources: ResourceVector
    complexity: float = 1.0

    @property
    def luts(self) -> int:
        return self.resources.luts


def _m(name, luts, brams=0, urams=0, dsps=0, complexity=1.0) -> Module:
    return Module(
        name=name,
        resources=ResourceVector(luts=luts, ffs=2 * luts, brams=brams, urams=urams, dsps=dsps),
        complexity=complexity,
    )


#: Everything the flows know how to build.
MODULE_LIBRARY: Dict[str, Module] = {
    module.name: module
    for module in [
        # -- static layer (pre-routed, locked checkpoint; never rebuilt)
        _m("static_xdma", 22_000, brams=48, complexity=1.3),
        _m("static_icap", 2_500),
        # -- dynamic layer
        _m("dyn_base", 95_000, brams=120, complexity=1.1),  # crossbars, credits, packetizer
        _m("mmu_4k", 12_000, brams=96),
        _m("mmu_2m", 8_000, brams=64),
        _m("mmu_1g", 6_000, brams=32),
        _m("hbm_ctrl", 85_000, brams=220, complexity=1.35),
        _m("rdma_stack", 75_000, brams=260, complexity=1.5),
        _m("tcp_stack", 58_000, brams=180, complexity=1.45),
        _m("cmac", 6_000, complexity=1.4),
        _m("sniffer", 9_000, brams=48),
        # -- user applications
        _m("passthrough", 2_000),
        _m("vadd", 5_000, dsps=64),
        _m("vmul", 6_000, dsps=128),
        _m("aes_ecb", 14_000, brams=40),
        _m("aes_cbc", 12_000, brams=40),
        _m("hll", 40_000, brams=80, dsps=20),
        # -- baseline (Coyote v1's monolithic static shell, Figure 11)
        _m("coyote_v1_base", 82_000, brams=110, complexity=1.1),
    ]
}


def get_module(name: str) -> Module:
    module = MODULE_LIBRARY.get(name)
    if module is None:
        raise NetlistError(f"no module {name!r} in the library")
    return module


_MMU_BY_PAGE = {PAGE_4K: "mmu_4k", PAGE_2M: "mmu_2m", PAGE_1G: "mmu_1g"}


def modules_for_services(services: ServiceConfig) -> List[Module]:
    """The dynamic-layer netlist of a shell configuration."""
    names = ["dyn_base", _MMU_BY_PAGE[services.mmu.tlb.page_size]]
    if services.en_memory:
        names.append("hbm_ctrl")
    if services.en_rdma:
        names.extend(["rdma_stack", "cmac"])
    if services.en_tcp:
        names.append("tcp_stack")
        if not services.en_rdma:
            names.append("cmac")
    if services.en_sniffer:
        names.append("sniffer")
    return [get_module(name) for name in names]


def total_resources(modules: Iterable[Module]) -> ResourceVector:
    total = ResourceVector()
    for module in modules:
        total = total + module.resources
    return total
