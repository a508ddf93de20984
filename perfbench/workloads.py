"""The benchmark's three whole-system workloads.

Each workload is a class built from a seed.  ``__init__`` draws every
input from the seed and touches no simulator code; ``setup()`` builds
the simulated system (the part ``setup_s`` times); ``run()`` drives the
closed-loop clients through the public API until every operation has
completed or failed and returns a :class:`RunResult`.  ``run()`` takes
the arguments of :func:`_drive`, which times the measured phase.  A
workload object is used once: build a fresh one for every repetition.

All three run the datapaths timing-only (``carry_data=False`` movers,
stubbed RDMA local memory), as the paper-figure runners do; carrying
real payload through the pure-Python AES model costs minutes per run.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro import CThread, Driver, Environment, LocalSg, Oper, SgEntry
from repro.apps import AesEcbApp, PassThroughApp
from repro.core import ServiceConfig, Shell, ShellConfig, StreamType, VFpgaConfig
from repro.core.movers import MoverConfig
from repro.driver import RingOp, RingOpcode
from repro.driver.report import card_report
from repro.net import (
    CMAC_BANDWIDTH,
    Cmac,
    DcqcnConfig,
    MacAddress,
    RdmaConfig,
    RdmaStack,
    Switch,
    SwitchConfig,
)
from repro.sim import AllOf

__all__ = ["WORKLOADS", "RunResult", "HbmFanout", "HostTenants", "RdmaIncast"]

KIB = 1024

#: One operation as recorded by a client:
#: (flow, size_bytes, start_ns, end_ns, status).  ``status`` is "ok" or
#: the class name of the typed error the operation failed with.
Op = Tuple[int, int, float, float, str]


def log_uniform_sizes(rng: random.Random, flows: int, per_flow: int,
                      lo: int, hi: int, align: int = 64) -> List[List[int]]:
    """``per_flow`` sizes for each of ``flows`` flows, log-uniform over
    [lo, hi] and rounded to ``align``.

    Each flow's draw is stratified: its i-th of n sizes falls in the i-th
    n-th of the distribution, and the seed shuffles their order.  Every
    seed so gets different sizes in a different order, but each flow
    keeps nearly the same total and quantiles, which keeps the
    seed-to-seed spread of the simulated metrics small without shrinking
    the range of sizes.
    """
    span = math.log(hi / lo)
    flows_sizes = []
    for _ in range(flows):
        sizes = [
            max(align, int(round(lo * math.exp((i + rng.random()) / per_flow * span)
                                 / align)) * align)
            for i in range(per_flow)
        ]
        rng.shuffle(sizes)
        flows_sizes.append(sizes)
    return flows_sizes


def is_typed_error(exc: BaseException) -> bool:
    """An error the program raises on purpose (defined under ``repro``)."""
    return type(exc).__module__.startswith("repro.")


def attempt(operation):
    """Run one operation (a generator) from a client process.

    Returns its status: "ok", the error code of an error completion, or
    the class name of the typed error it raised.  Any other exception
    propagates and aborts the run.
    """
    try:
        completion = yield from operation
    except Exception as exc:
        if not is_typed_error(exc):
            raise
        return type(exc).__name__
    status = getattr(completion, "status", "success")
    return "ok" if status == "success" else status


@dataclass
class RunResult:
    """What one measured phase produced."""

    ops: List[Op]
    #: Operations the clients set out to issue.
    attempted: int
    #: Simulated length of the measured phase (first issue to last
    #: completion).
    sim_ns: float
    #: Bytes the goodput counts (Fig 7(a) counts read + write for HBM).
    goodput_bytes: int
    #: Engine events dispatched in the measured phase.
    events: int
    queue_high_water: int
    #: Host CPU seconds of the measured phase, slice by slice (see
    #: :func:`_drive`).
    slice_s: List[float] = field(default_factory=list)
    #: Jain index over the workload's flows (channels, tenants, senders).
    fairness: float = 0.0
    #: Program counters, as deltas over the measured phase.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Output-check failures (empty when every check passed).
    problems: List[str] = field(default_factory=list)

    def digest(self) -> str:
        """sha256 of the simulated results: ops, counters and event count."""
        h = hashlib.sha256()
        h.update(repr(self.ops).encode())
        h.update(repr(sorted(self.counters.items())).encode())
        h.update(repr((self.attempted, self.sim_ns, self.goodput_bytes,
                       self.events, self.queue_high_water,
                       self.fairness)).encode())
        return h.hexdigest()


def _flow_rates(ops: List[Op], start: Dict[int, float]) -> List[float]:
    """Per-flow throughput: completed bytes over the flow's busy span."""
    done: Dict[int, int] = {}
    last: Dict[int, float] = {}
    for flow, size, _t0, t1, status in ops:
        if status == "ok":
            done[flow] = done.get(flow, 0) + size
            last[flow] = max(last.get(flow, 0.0), t1)
    return [
        done.get(flow, 0) / (last[flow] - t0) if flow in last and last[flow] > t0 else 0.0
        for flow, t0 in sorted(start.items())
    ]


def jain(values: List[float]) -> float:
    """Jain's fairness index: 1 when every value is equal."""
    total = sum(values)
    squares = sum(v * v for v in values)
    return total * total / (len(values) * squares) if squares else 0.0


def _exactly_once(ops: List[Op], planned: List[List[int]]) -> List[str]:
    """Each flow recorded each planned operation once, in order."""
    recorded: Dict[int, List[int]] = {flow: [] for flow in range(len(planned))}
    for flow, size, start, end, _status in ops:
        recorded.setdefault(flow, []).append(size)
        if end < start:
            return [f"flow {flow}: an operation ends before it starts"]
    return [
        f"flow {flow}: recorded operations differ from the plan "
        f"({len(sizes)} recorded, {len(planned[flow]) if flow < len(planned) else 0} planned)"
        for flow, sizes in recorded.items()
        if flow >= len(planned) or sizes != planned[flow]
    ]


def _card_counters(driver: Driver) -> Dict[str, float]:
    """The card telemetry counters the checks and the per-layer report read."""
    tel = card_report(driver)["telemetry"]
    counters = {}
    for key in (
        "pcie.h2c_bytes", "pcie.c2h_bytes", "pcie.h2c_transfers",
        "pcie.c2h_transfers", "mem.hbm_bytes_read", "mem.hbm_bytes_written",
        "mem.hbm_channel_accesses",
        "mem.tlb_hits", "mem.tlb_misses", "mem.page_faults",
        "ring.doorbells", "ring.descriptors",
    ):
        node = tel
        for part in key.split("."):
            node = node.get(part, {})
        if isinstance(node, dict):  # a gauge: {"value", "high_water"}
            node = node.get("value", 0)
        counters[key] = float(node)
    shell = driver.shell
    counters["movers.bytes"] = float(sum(
        m.bytes_read + m.bytes_written
        for m in (shell.dynamic.host_mover, shell.dynamic.card_mover)
        if m is not None
    ))
    return counters


#: Engine events per timed slice of a repetition's measured phase: a few
#: milliseconds of host time, short next to the stretches for which a
#: shared host runs the process slowly.
SLICE_EVENTS = 1000


def _drive(env: Environment, clients, tracer, events=None, between=None) -> List[float]:
    """Run the clients to completion; returns the host CPU seconds it took,
    slice by slice.

    Without ``events`` the phase is one ``env.run`` until every client
    has ended, timed as a single slice.  With ``events`` (the count a
    first run of the same seed dispatched) the phase is exactly that many
    events, drained by ``env.run_batch`` in slices of
    :data:`SLICE_EVENTS`, each timed on its own.  The simulation is
    deterministic, so the last of those events ends the last client;
    a run whose clients have not all ended by then is an error.
    ``between``, if given, is called after every slice, untimed.

    ``tracer`` (a :class:`layers.LayerTracer` or ``None``) is started and
    stopped around exactly this span, the measured phase.
    """
    done = AllOf(env, clients)
    slices = []
    if tracer is not None:
        tracer.start(env)
    if events is None:
        begin = time.process_time()
        env.run(done)
        slices.append(time.process_time() - begin)
    else:
        for first in range(0, events, SLICE_EVENTS):
            begin = time.process_time()
            env.run_batch(min(SLICE_EVENTS, events - first))
            slices.append(time.process_time() - begin)
            if between is not None:
                between()
    if tracer is not None:
        tracer.stop()
    if not done.processed:
        raise RuntimeError(f"the clients had not all ended after {events} events")
    return slices


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0.0) for key in after}


class _CardWorkload:
    """Shared by the workloads that build a shell and its ``Driver``."""

    driver_setup_s = 0.0

    def _build_driver(self, env: Environment, shell: Shell) -> Driver:
        begin = time.process_time()
        driver = Driver(env, shell)
        self.driver_setup_s = time.process_time() - begin
        return driver

    def _snapshot(self) -> Tuple[Dict[str, float], List[int]]:
        """The card counters and the per-channel HBM access counts."""
        hbm = self.driver.shell.dynamic.hbm
        return _card_counters(self.driver), list(hbm.channel_accesses) if hbm else []

    def _phase_counters(self, before) -> Dict[str, float]:
        """Counter deltas since the snapshot ``before``, plus the busiest
        HBM channel's share of the accesses made in between."""
        counters_before, channels_before = before
        after, channels_after = self._snapshot()
        counters = _delta(after, counters_before)
        accesses = [a - b for a, b in zip(channels_after, channels_before)]
        total = sum(accesses)
        counters["mem.hbm_busiest_channel_share"] = max(accesses) / total if total else 0.0
        return counters


class HbmFanout(_CardWorkload):
    """One pass-through vFPGA streaming card memory over 32 card streams.

    The top point of Figure 7(a): every stream has its own closed-loop
    client that issues its next card-to-card transfer as soon as the
    previous one completes.  Both buffers are offloaded to HBM before
    the measured phase, which also pre-fills the TLB; the working set
    (2 x 32 x 64 KiB) is far below the TLB reach, so the TLB stays warm.

    Transfers are 8-64 KiB: up to the 64 KiB per channel and round that
    Figure 7(a) streams, so each transfer is 4-32 packetizer chunks and
    the goodput depends on the packetizer chunk size as Figure 7(a)'s
    does.
    """

    name = "hbm_fanout"
    channels = 32
    max_bytes = 64 * KIB

    def __init__(self, seed: int, rounds: int = 32):
        rng = random.Random(f"{self.name}:{seed}")
        #: sizes[channel][round]
        self.sizes = log_uniform_sizes(rng, self.channels, rounds, 8 * KIB, self.max_bytes)
        self.attempted = self.channels * rounds

    def setup(self) -> None:
        env = self.env = Environment()
        services = ServiceConfig(mover=MoverConfig(carry_data=False))
        shell = Shell(env, ShellConfig(
            num_vfpgas=1,
            services=services,
            vfpga=VFpgaConfig(num_card_streams=self.channels),
        ))
        self.driver = self._build_driver(env, shell)
        shell.load_app(0, PassThroughApp(num_streams=self.channels,
                                         stream=StreamType.CARD))
        thread = self.thread = CThread(self.driver, 0, pid=1)
        length = self.channels * self.max_bytes

        def stage():
            self.src = yield from thread.get_mem(length)
            self.dst = yield from thread.get_mem(length)
            for buf in (self.src, self.dst):
                yield from thread.invoke(Oper.LOCAL_OFFLOAD, SgEntry(
                    local=LocalSg(src_addr=buf.vaddr, src_len=length)))

        env.run(env.process(stage(), name="bench-stage"))

    def _client(self, chan: int, ops: List[Op]):
        env, thread = self.env, self.thread
        # Each channel streams through its own slice of both buffers, so
        # consecutive transfers walk the HBM stripes instead of
        # re-hitting the slice's first channels.
        offset = 0
        for size in self.sizes[chan]:
            if offset + size > self.max_bytes:
                offset = 0
            addr = chan * self.max_bytes + offset
            offset += size
            sg = SgEntry(local=LocalSg(
                src_addr=self.src.vaddr + addr, src_len=size,
                dst_addr=self.dst.vaddr + addr, dst_len=size,
                src_stream=StreamType.CARD, dst_stream=StreamType.CARD,
                src_dest=chan, dst_dest=chan,
            ))
            start = env.now
            status = yield from attempt(thread.invoke(Oper.LOCAL_TRANSFER, sg))
            ops.append((chan, size, start, env.now, status))

    def run(self, tracer=None, events=None, between=None) -> RunResult:
        env = self.env
        before = self._snapshot()
        events0, t0 = env.events_processed, env.now
        ops: List[Op] = []
        clients = [env.process(self._client(c, ops), name=f"bench-ch{c}")
                   for c in range(self.channels)]
        slice_s = _drive(env, clients, tracer, events, between)
        counters = self._phase_counters(before)
        moved = int(counters["mem.hbm_bytes_read"] + counters["mem.hbm_bytes_written"])
        result = RunResult(
            ops=ops, attempted=self.attempted, sim_ns=env.now - t0,
            goodput_bytes=moved, events=env.events_processed - events0,
            queue_high_water=env.queue_high_water, slice_s=slice_s,
            counters=counters,
        )
        result.problems = _exactly_once(ops, self.sizes)
        done = sum(op[1] for op in ops if op[4] == "ok")
        for key in ("mem.hbm_bytes_read", "mem.hbm_bytes_written"):
            if counters[key] != done:
                result.problems.append(
                    f"{key} moved {counters[key]:.0f} B, operations completed {done} B")
        result.fairness = jain(_flow_rates(ops, {c: t0 for c in range(self.channels)}))
        return result


class HostTenants(_CardWorkload):
    """Four AES-ECB vFPGAs sharing the host link (the Figure 8 setup).

    Tenants 0 and 2 submit one operation at a time through
    ``CThread.invoke``; tenants 1 and 3 submit batches through
    ``post_many`` on command rings over registered MRs.  Every tenant is
    a closed loop: its next submission waits for the previous one.
    """

    name = "host_tenants"
    tenants = 4
    batch = 8
    max_bytes = 64 * KIB

    def __init__(self, seed: int, ops_per_tenant: int = 384):
        rng = random.Random(f"{self.name}:{seed}")
        self.sizes = log_uniform_sizes(rng, self.tenants, ops_per_tenant, 1 * KIB, 64 * KIB)
        self.attempted = self.tenants * ops_per_tenant

    def setup(self) -> None:
        env = self.env = Environment()
        services = ServiceConfig(mover=MoverConfig(carry_data=False))
        shell = Shell(env, ShellConfig(num_vfpgas=self.tenants, services=services))
        self.driver = self._build_driver(env, shell)
        self.threads = []
        self.buffers = []
        length = self.batch * self.max_bytes

        def stage(tenant: int):
            shell.load_app(tenant, AesEcbApp(num_streams=1))
            thread = CThread(self.driver, tenant, pid=100 + tenant)
            src = yield from thread.get_mem(length)
            dst = yield from thread.get_mem(length)
            if tenant % 2:
                thread.setup_rings(slots=2 * self.batch)
                src = yield from thread.register_mr(src.vaddr, length, writable=False)
                dst = yield from thread.register_mr(dst.vaddr, length)
            self.threads.append(thread)
            self.buffers.append((src, dst))

        for tenant in range(self.tenants):
            env.run(env.process(stage(tenant), name="bench-stage"))

    def _invoke_client(self, tenant: int, ops: List[Op]):
        env, thread = self.env, self.threads[tenant]
        src, dst = self.buffers[tenant]
        for size in self.sizes[tenant]:
            sg = SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=size,
                                       dst_addr=dst.vaddr, dst_len=size))
            start = env.now
            status = yield from attempt(thread.invoke(Oper.LOCAL_TRANSFER, sg))
            ops.append((tenant, size, start, env.now, status))

    def _ring_client(self, tenant: int, ops: List[Op]):
        env, thread = self.env, self.threads[tenant]
        src_mr, dst_mr = self.buffers[tenant]
        sizes = self.sizes[tenant]
        for first in range(0, len(sizes), self.batch):
            chunk = sizes[first:first + self.batch]
            batch = [
                RingOp(opcode=RingOpcode.TRANSFER, mr_key=src_mr.key,
                       offset=i * self.max_bytes, length=size,
                       dst_mr_key=dst_mr.key, dst_offset=i * self.max_bytes)
                for i, size in enumerate(chunk)
            ]
            start = env.now
            try:
                entries = yield from thread.post_many(batch)
            except Exception as exc:
                if not is_typed_error(exc):
                    raise
                ops.extend((tenant, size, start, env.now, type(exc).__name__)
                           for size in chunk)
                continue
            if len(entries) != len(chunk):
                raise AssertionError(
                    f"tenant {tenant}: {len(entries)} completions for {len(chunk)} ops")
            for size, entry in zip(chunk, entries):
                status = "ok" if entry.status == "success" else entry.status
                ops.append((tenant, size, start, entry.timestamp_ns, status))

    def run(self, tracer=None, events=None, between=None) -> RunResult:
        env = self.env
        before = self._snapshot()
        events0, t0 = env.events_processed, env.now
        ops: List[Op] = []
        clients = [
            env.process(
                (self._ring_client if t % 2 else self._invoke_client)(t, ops),
                name=f"bench-tenant{t}")
            for t in range(self.tenants)
        ]
        slice_s = _drive(env, clients, tracer, events, between)
        counters = self._phase_counters(before)
        done = sum(op[1] for op in ops if op[4] == "ok")
        result = RunResult(
            ops=ops, attempted=self.attempted, sim_ns=env.now - t0,
            goodput_bytes=done, events=env.events_processed - events0,
            queue_high_water=env.queue_high_water, slice_s=slice_s,
            counters=counters,
        )
        result.problems = _exactly_once(ops, self.sizes)
        for key in ("pcie.h2c_bytes", "pcie.c2h_bytes"):
            if counters[key] != done:
                result.problems.append(
                    f"{key} moved {counters[key]:.0f} B, operations completed {done} B")
        result.fairness = jain(_flow_rates(ops, {t: t0 for t in range(self.tenants)}))
        return result


#: DCQCN reaction-point parameters of the ``net_incast`` configuration.
INCAST_DCQCN = DcqcnConfig(
    enabled=True,
    min_rate=0.25,
    alpha_update_ns=5_000.0,
    rate_increase_ns=20_000.0,
    additive_increase=0.1,
    hyper_increase=0.5,
    cnp_interval_ns=10_000.0,
    initial_rate=CMAC_BANDWIDTH / 8.0,
)
#: Jain fairness floor with DCQCN on (the ``net_incast`` gate).
INCAST_FAIRNESS_FLOOR = 0.85


class RdmaIncast:
    """16 RDMA senders WRITE at one receiver through a shallow switch port.

    The ``net_incast`` configuration with DCQCN on: 1 KiB MTU, a 32 KiB
    egress buffer that ECN-marks above 8 KiB.  Local memory is stubbed
    with a fixed-rate delay, so no ``Driver`` or shell is built: the
    per-packet net path, switch queueing and DCQCN do all the work.
    """

    name = "rdma_incast"
    senders = 16
    driver = None
    driver_setup_s = 0.0

    def __init__(self, seed: int, writes_per_sender: int = 64):
        rng = random.Random(f"{self.name}:{seed}")
        self.offsets = [rng.uniform(0.0, 20_000.0) for _ in range(self.senders)]
        self.sizes = log_uniform_sizes(rng, self.senders, writes_per_sender,
                                       1 * KIB, 32 * KIB)
        self.attempted = self.senders * writes_per_sender

    def setup(self) -> None:
        env = self.env = Environment()
        self.switch = Switch(env, config=SwitchConfig(
            egress_capacity_bytes=32 * KIB, ecn_threshold_bytes=8 * KIB))
        config = RdmaConfig(mtu=1024, retransmit_timeout_ns=100_000.0,
                            dcqcn=INCAST_DCQCN)
        self.landed = 0
        self.payload_sent = 0
        self.cmacs = []

        def attach(mac_value: int, ip: int, name: str, receiver: bool) -> RdmaStack:
            mac = MacAddress(mac_value)
            cmac = Cmac(env, name=f"{name}-cmac")
            self.switch.attach(mac, cmac)
            self.cmacs.append(cmac)
            if not receiver:
                cmac.tx_taps.append(self._count_payload)
            stack = RdmaStack(env, cmac, mac, ip, name=name, config=config)

            def read_local(vaddr, length):
                yield env.timeout(length / 125.0)

            def write_local(vaddr, data, length):
                yield env.timeout(length / 125.0)
                if receiver:
                    self.landed += length

            stack.bind_memory(read_local, write_local)
            return stack

        self.receiver = attach(0x02_0000_0100, 0x0A0000FF, "incast-rx", True)
        self.stacks = [
            attach(0x02_0000_0001 + i, 0x0A000001 + i, f"incast-s{i}", False)
            for i in range(self.senders)
        ]
        for i, sender in enumerate(self.stacks):
            qp_s = sender.create_qp(1, psn=0)
            qp_r = self.receiver.create_qp(100 + i, psn=0)
            qp_s.connect(qp_r.local)
            qp_r.connect(qp_s.local)

    def _count_payload(self, _now: float, packet) -> None:
        self.payload_sent += packet.payload_length

    def _sender(self, i: int, ops: List[Op]):
        env, stack = self.env, self.stacks[i]
        yield env.timeout(self.offsets[i])
        for size in self.sizes[i]:
            start = env.now
            status = yield from attempt(stack.rdma_write(1, 0, 0x1000, size))
            ops.append((i, size, start, env.now, status))

    def counters(self) -> Dict[str, float]:
        counters = {f"switch.{k}": float(v) for k, v in self.switch.counters().items()}
        counters["switch.queue_high_water_bytes"] = float(
            max(port.queue_high_water for _, port in self.switch.egress_ports()))
        for key in ("tx_packets", "rx_packets", "retransmissions", "cnps_sent",
                    "cnps_received"):
            counters[f"rdma.{key}"] = float(
                sum(s.stats[key] for s in (self.receiver, *self.stacks)))
        counters["rdma.landed_bytes"] = float(self.landed)
        counters["rdma.payload_sent_bytes"] = float(self.payload_sent)
        counters["cmac.pause_frames"] = float(
            sum(c.pause_frames_rx + c.pause_frames_tx for c in self.cmacs))
        return counters

    def run(self, tracer=None, events=None, between=None) -> RunResult:
        env = self.env
        events0, t0 = env.events_processed, env.now
        ops: List[Op] = []
        senders = [env.process(self._sender(i, ops), name=f"bench-sender{i}")
                   for i in range(self.senders)]
        slice_s = _drive(env, senders, tracer, events, between)
        done = sum(op[1] for op in ops if op[4] == "ok")
        result = RunResult(
            ops=ops, attempted=self.attempted, sim_ns=env.now - t0,
            goodput_bytes=done, events=env.events_processed - events0,
            queue_high_water=env.queue_high_water, slice_s=slice_s,
            counters=self.counters(),
        )
        result.problems = _exactly_once(ops, self.sizes)
        if self.landed != done:
            result.problems.append(
                f"receiver memory took {self.landed} B, completed WRITEs {done} B")
        result.fairness = jain(_flow_rates(
            ops, {i: t0 + self.offsets[i] for i in range(self.senders)}))
        if result.fairness < INCAST_FAIRNESS_FLOOR:
            result.problems.append(
                f"Jain fairness {result.fairness:.3f} below {INCAST_FAIRNESS_FLOOR}")
        return result


WORKLOADS = {cls.name: cls for cls in (HbmFanout, HostTenants, RdmaIncast)}
