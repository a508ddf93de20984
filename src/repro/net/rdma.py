"""BALBOA: the RoCE v2 reliable-connection RDMA stack (paper §6.2).

Implements the requester and responder halves of IB RC verbs over the
simulated 100G CMAC: one-sided RDMA WRITE and READ plus two-sided SEND,
with go-back-N retransmission, NAK generation on PSN sequence errors and
cumulative ACKs.  Local buffer addresses are *virtual*: the stack calls
into the shell-injected translate/read/write callbacks, which route
through Coyote's MMU and the static layer — exactly the paper's layering
("the network stack ... operates on virtual memory addresses that are
translated using Coyote v2's internal MMU and TLB, before writing the data
to host memory through the static layer").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..sim.engine import Environment, Event
from ..sim.resources import Container, Store
from .cmac import CMAC_BANDWIDTH, FRAME_OVERHEAD_BYTES, Cmac
from .headers import (
    ECN_CE,
    ECN_ECT0,
    ECN_NOT_ECT,
    AethHeader,
    BthHeader,
    MacAddress,
    RethHeader,
    RoceOpcode,
)
from .packet import RocePacket
from .qp import PSN_MOD, DcqcnState, QpEndpoint, QpState, QueuePair

__all__ = [
    "RdmaConfig",
    "DcqcnConfig",
    "RdmaStack",
    "Completion",
    "RdmaError",
    "QpStateError",
    "WrFlushError",
]

class RdmaError(Exception):
    """Unrecoverable QP error (e.g. verbs on an unconnected QP)."""


class QpStateError(RdmaError):
    """A verb was armed on a QP whose state cannot carry it (ERROR,
    SQ_ERROR, or simply never connected).  Raised at arm time instead of
    silently queueing work that can never complete."""

    def __init__(self, qpn: int, state: QpState, reason: str = ""):
        detail = f" ({reason})" if reason else ""
        super().__init__(f"QP {qpn} in state {state.value!r}{detail}")
        self.qpn = qpn
        self.state = state
        self.reason = reason


class WrFlushError(RdmaError):
    """An outstanding work request was flushed because its QP moved to
    ERROR (IB completion status ``IBV_WC_WR_FLUSH_ERR``).  Carries enough
    context for the caller to know *which* connection died and why."""

    def __init__(self, qpn: int, wr_id: int = 0, opcode: str = "", reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"QP {qpn} flushed {opcode or 'WR'} wr_id={wr_id}{detail}")
        self.qpn = qpn
        self.wr_id = wr_id
        self.opcode = opcode
        self.reason = reason


def psn_leq(a: int, b: int) -> bool:
    """True if PSN ``a`` <= ``b`` under 24-bit wraparound."""
    return (b - a) % PSN_MOD < PSN_MOD // 2


@dataclass(frozen=True)
class DcqcnConfig:
    """DCQCN (RoCE congestion control) endpoint parameters.

    Off by default: uncongested workloads pay nothing.  When enabled,
    data packets leave ECT(0)-marked, CE-marked arrivals are answered
    with per-QP rate-limited CNPs, and each QP paces its transmissions
    through a :class:`~repro.net.qp.DcqcnState` rate limiter.  Rates are
    bytes/ns; timing defaults follow the DCQCN paper's 55 µs timers
    scaled to the simulated 100G link.
    """

    enabled: bool = False
    #: Uncut rate (bytes/ns): the 100G line by default.
    line_rate: float = CMAC_BANDWIDTH
    #: Floor under multiplicative decrease (1 Gbit/s here).
    min_rate: float = 0.125
    #: EWMA gain for the congestion estimate alpha.
    alpha_g: float = 1.0 / 16.0
    #: Alpha decays once per this period without CNPs.
    alpha_update_ns: float = 55_000.0
    #: Rate-increase round length.
    rate_increase_ns: float = 55_000.0
    #: Fast-recovery rounds before additive increase.
    fast_recovery_rounds: int = 5
    #: Additive / hyper increase steps (bytes/ns per round): the DCQCN
    #: paper's 40 / 400 Mbit/s — gentle enough that the CNP cadence can
    #: hold the aggregate near the bottleneck rate.
    additive_increase: float = 0.005
    hyper_increase: float = 0.05
    #: Per-QP minimum spacing between generated CNPs.
    cnp_interval_ns: float = 50_000.0
    #: Rate a fresh QP starts at (the RPG initial rate knob hardware
    #: reaction points expose); ``0`` means start at line rate.
    initial_rate: float = 0.0

    def make_state(self) -> DcqcnState:
        return DcqcnState(
            line_rate=self.line_rate,
            min_rate=self.min_rate,
            alpha_g=self.alpha_g,
            alpha_update_ns=self.alpha_update_ns,
            rate_increase_ns=self.rate_increase_ns,
            fast_recovery_rounds=self.fast_recovery_rounds,
            additive_increase=self.additive_increase,
            hyper_increase=self.hyper_increase,
            initial_rate=self.initial_rate,
        )


@dataclass(frozen=True)
class RdmaConfig:
    """Stack parameters; MTU 4096 is the RoCE maximum and Coyote's default."""

    mtu: int = 4096
    max_outstanding: int = 64  # requester window, in packets
    retransmit_timeout_ns: float = 100_000.0
    per_packet_processing_ns: float = 30.0  # stack pipeline occupancy
    max_retries: int = 8
    dcqcn: DcqcnConfig = DcqcnConfig()


@dataclass
class Completion:
    """A work completion delivered to the CQ."""

    wr_id: int
    opcode: str
    length: int
    status: str = "success"


@dataclass
class _PendingMessage:
    last_psn: int
    event: Event
    wr_id: int
    opcode: str
    length: int


@dataclass
class _ResponderMsg:
    """Responder-side progress of an in-flight inbound WRITE."""

    vaddr: int = 0
    remaining: int = 0


class RdmaStack:
    """One node's RoCE v2 engine bound to a CMAC port."""

    #: ``repro.health.PfcStormError``, resolved by the first stack built.
    #: The import is deferred (the health package imports this module at
    #: init) but must never run in ``_send_packet``'s except clause: a
    #: sender collected at interpreter exit would import during shutdown.
    _pfc_storm_error = None

    def __init__(
        self,
        env: Environment,
        cmac: Cmac,
        mac: MacAddress,
        ip: int,
        config: RdmaConfig = RdmaConfig(),
        name: str = "rdma",
        rx_queue=None,
    ):
        self.env = env
        self.cmac = cmac
        if RdmaStack._pfc_storm_error is None:
            from ..health.errors import PfcStormError

            RdmaStack._pfc_storm_error = PfcStormError
        #: Packet source: the raw CMAC queue, or a demuxed per-protocol
        #: queue when the shell runs several networking services at once.
        self._rx_queue = rx_queue if rx_queue is not None else cmac.rx_queue
        self.mac = mac
        self.ip = ip
        self.config = config
        self.name = name
        self.qps: Dict[int, QueuePair] = {}
        self.cq: Store = Store(env)
        # Shell-injected local memory access (virtual addresses).
        # Both are generator functions running in simulated time.
        self.read_local: Optional[Callable[[int, int], Generator]] = None
        self.write_local: Optional[Callable[[int, Optional[bytes], int], Generator]] = None
        # Per-QP overrides: each QP belongs to a cThread whose vFPGA MMU
        # must translate its addresses; the shell binds these per QP.
        self.qp_memory: Dict[int, Tuple[Callable, Callable]] = {}
        # Optional on-datapath offload per QP (paper: data routed through
        # the vFPGAs, enabling custom processing like SmartNICs/DPUs).
        self.rx_offloads: Dict[int, Callable[[bytes], bytes]] = {}
        # Requester state.
        self._window = Container(env, capacity=config.max_outstanding, init=config.max_outstanding)
        self._retransmit: Dict[int, Dict[int, RocePacket]] = {}  # qpn -> psn -> pkt
        self._pending: Dict[int, List[_PendingMessage]] = {}
        # Per-QP forward-progress clock: ACK arrival for that QP (or a
        # finished go-back-N round).  Per-QP, not stack-global — a dead
        # peer must exhaust its retry budget even while other QPs on the
        # same stack are making steady progress.
        self._last_progress: Dict[int, float] = {}
        self._timer_parked: Optional[Event] = None
        self._read_collect: Dict[int, dict] = {}  # qpn -> in-flight READ state
        self._atomic_pending: Dict[int, Dict[int, Event]] = {}  # qpn -> psn -> event
        self._recv_queues: Dict[int, Store] = {}
        self._responder_msg: Dict[int, _ResponderMsg] = {}
        self._nak_sent: Dict[int, bool] = {}
        #: Timer-driven go-back-N rounds without forward progress, per QP.
        #: Exceeding ``config.max_retries`` moves the QP to ERROR — the
        #: requester-side signal that the peer (or the path to it) is dead.
        self._retry_counts: Dict[int, int] = {}
        #: True after :meth:`halt` — the whole stack is down (node crash).
        self.halted = False
        #: Per-QP DCQCN reaction-point state (populated by ``create_qp``
        #: when ``config.dcqcn.enabled``).
        self.qp_rates: Dict[int, DcqcnState] = {}
        self._cnp_last_sent: Dict[int, float] = {}
        self.stats = {
            "tx_packets": 0,
            "rx_packets": 0,
            "retransmissions": 0,
            "naks_sent": 0,
            "naks_received": 0,
            "acks_sent": 0,
            "qp_errors": 0,
            "wr_flushes": 0,
            "ecn_ce_received": 0,
            "cnps_sent": 0,
            "cnps_received": 0,
            "pfc_storm_drops": 0,
        }
        #: Per-QP telemetry: completed verbs and payload bytes, the
        #: simulation's per-QP statistics registers.
        self.qp_stats: Dict[int, Dict[str, int]] = {}
        env.process(self._rx_loop(), name=f"{name}-rx")
        env.process(self._retransmit_timer(), name=f"{name}-timer")

    # ------------------------------------------------------------ plumbing

    def bind_memory(
        self,
        read_local: Callable[[int, int], Generator],
        write_local: Callable[[int, Optional[bytes], int], Generator],
    ) -> None:
        self.read_local = read_local
        self.write_local = write_local

    def bind_qp_memory(
        self,
        qpn: int,
        read_local: Callable[[int, int], Generator],
        write_local: Callable[[int, Optional[bytes], int], Generator],
    ) -> None:
        """Route this QP's local accesses through a specific MMU context."""
        self.qp_memory[qpn] = (read_local, write_local)

    def _mem_read(self, qpn: int) -> Callable[[int, int], Generator]:
        bound = self.qp_memory.get(qpn)
        fn = bound[0] if bound else self.read_local
        if fn is None:
            raise RdmaError("stack has no local memory binding")
        return fn

    def _mem_write(self, qpn: int) -> Callable[[int, Optional[bytes], int], Generator]:
        bound = self.qp_memory.get(qpn)
        fn = bound[1] if bound else self.write_local
        if fn is None:
            raise RdmaError("stack has no local memory binding")
        return fn

    def create_qp(self, qpn: int, psn: int = 0, buffer_vaddr: int = 0, buffer_len: int = 0) -> QueuePair:
        if qpn in self.qps:
            raise RdmaError(f"QP {qpn} already exists")
        endpoint = QpEndpoint(
            mac=self.mac, ip=self.ip, qpn=qpn, psn=psn,
            buffer_vaddr=buffer_vaddr, buffer_len=buffer_len,
        )
        qp = QueuePair(local=endpoint)
        self.qps[qpn] = qp
        self._retransmit[qpn] = {}
        self._pending[qpn] = []
        self._recv_queues[qpn] = Store(self.env)
        self._responder_msg[qpn] = _ResponderMsg()
        self._nak_sent[qpn] = False
        self._retry_counts[qpn] = 0
        self._last_progress[qpn] = self.env.now
        self.qp_stats[qpn] = {"ops": 0, "bytes": 0}
        if self.config.dcqcn.enabled:
            self.qp_rates[qpn] = self.config.dcqcn.make_state()
        return qp

    # --------------------------------------------------- QP error machinery

    def qp_error(self, qpn: int, reason: str = "error") -> int:
        """Move a QP to ERROR and flush every outstanding WR with a typed
        :class:`WrFlushError` (IB semantics: the SQ/RQ drain as flushed
        completions; nothing is left parked).  Window credits held by
        unacked packets are refunded so other QPs keep their bandwidth.
        Returns the number of flushed work requests.  Idempotent."""
        qp = self.qps.get(qpn)
        if qp is None:
            raise RdmaError(f"no such QP {qpn}")
        already = qp.state is QpState.ERROR
        qp.to_error(reason)
        if not already:
            self.stats["qp_errors"] += 1
        flushed = 0
        buffered = self._retransmit.get(qpn)
        if buffered:
            self._window.put(len(buffered))
            buffered.clear()
        for msg in self._pending.get(qpn, []):
            self._fail_event(msg.event, WrFlushError(qpn, msg.wr_id, msg.opcode, reason))
            flushed += 1
        self._pending[qpn] = []
        read_state = self._read_collect.pop(qpn, None)
        if read_state is not None:
            self._fail_event(read_state["event"], WrFlushError(qpn, 0, "READ", reason))
            flushed += 1
        atomics = self._atomic_pending.pop(qpn, None)
        if atomics:
            for psn in sorted(atomics):
                self._fail_event(atomics[psn], WrFlushError(qpn, 0, "ATOMIC", reason))
                flushed += 1
        queue = self._recv_queues.get(qpn)
        if queue is not None:
            # Posted receives with no data yet: flush the parked getters.
            while queue._getters:
                getter = queue._getters.popleft()
                if getter._abandoned or getter.triggered:
                    continue
                self._fail_event(getter, WrFlushError(qpn, 0, "RECV", reason))
                flushed += 1
        self.stats["wr_flushes"] += flushed
        return flushed

    @staticmethod
    def _fail_event(event: Event, exc: Exception) -> None:
        if event.triggered:
            return
        # Pre-defuse: a flush may hit an event nobody awaits yet (e.g. a
        # sender still parked on a window credit); an undefused failure
        # would otherwise crash the simulation loop.
        event.defuse().fail(exc)

    def reset_qp(self, qpn: int) -> QueuePair:
        """Flush and return the QP to RESET so recovery can re-connect
        (the verbs ``ERR → RESET → INIT → RTR → RTS`` recycle path)."""
        qp = self.qps.get(qpn)
        if qp is None:
            raise RdmaError(f"no such QP {qpn}")
        if not qp.in_error:
            qp.to_error("reset")
        self.qp_error(qpn, reason="reset")
        qp.reset()
        self._responder_msg[qpn] = _ResponderMsg()
        self._nak_sent[qpn] = False
        self._retry_counts[qpn] = 0
        self._last_progress[qpn] = self.env.now
        self._recv_queues[qpn].items.clear()
        if qpn in self.qp_rates:
            # A re-connecting QP starts its congestion history over.
            self.qp_rates[qpn] = self.config.dcqcn.make_state()
        self._cnp_last_sent.pop(qpn, None)
        return qp

    def destroy_qp(self, qpn: int) -> None:
        """Flush and forget a QP entirely (collective-mesh teardown)."""
        if qpn not in self.qps:
            raise RdmaError(f"no such QP {qpn}")
        self.qp_error(qpn, reason="destroyed")
        del self.qps[qpn]
        del self._retransmit[qpn]
        del self._pending[qpn]
        del self._recv_queues[qpn]
        del self._responder_msg[qpn]
        del self._nak_sent[qpn]
        del self._retry_counts[qpn]
        self._last_progress.pop(qpn, None)
        self._read_collect.pop(qpn, None)
        self._atomic_pending.pop(qpn, None)
        self.qp_rates.pop(qpn, None)
        self._cnp_last_sent.pop(qpn, None)

    def halt(self, reason: str = "node down") -> int:
        """Take the whole stack down (node crash): every QP to ERROR with
        its WRs flushed.  Clearing the retransmit buffers also parks the
        retransmit timer, so a crashed node cannot keep the simulation
        alive retrying into a dead port.  Returns total flushed WRs."""
        self.halted = True
        flushed = 0
        for qpn in sorted(self.qps):
            flushed += self.qp_error(qpn, reason=reason)
        return flushed

    def _complete_op(self, qpn: int, nbytes: int) -> None:
        per_qp = self.qp_stats.setdefault(qpn, {"ops": 0, "bytes": 0})
        per_qp["ops"] += 1
        per_qp["bytes"] += nbytes

    def _qp(self, qpn: int) -> QueuePair:
        qp = self.qps.get(qpn)
        if qp is None:
            raise RdmaError(f"no such QP {qpn}")
        if qp.in_error:
            raise QpStateError(qpn, qp.state, qp.error_reason)
        if not qp.connected:
            raise QpStateError(qpn, qp.state, "not connected")
        return qp

    def _check_sq(self, qpn: int, qp: QueuePair) -> None:
        """Mid-verb state re-check: a flush may land while a requester is
        parked on a window credit; erroring here (with the freshly granted
        credit refunded by the caller) beats transmitting into the void."""
        if qp.in_error:
            raise WrFlushError(qpn, 0, "SQ", qp.error_reason)

    def _segments(self, length: int) -> List[int]:
        mtu = self.config.mtu
        if length == 0:
            return [0]
        return [min(mtu, length - off) for off in range(0, length, mtu)]

    def _flow_port(self, qpn: int) -> int:
        """UDP source port carrying the flow's ECMP entropy: the RoCE v2
        convention of a per-QP value in the dynamic range, so a QP's
        packets always hash onto one fabric path (order-preserving)."""
        return 0xC000 | (qpn & 0x3FFF)

    def _data_ecn(self) -> int:
        """IP ECN codepoint for data packets: ECT(0) announces DCQCN."""
        return ECN_ECT0 if self.config.dcqcn.enabled else ECN_NOT_ECT

    def _send_packet(self, packet: RocePacket, qpn: Optional[int] = None) -> Generator:
        state = self.qp_rates.get(qpn) if qpn is not None else None
        if state is not None:
            gap = state.pacing_gap(
                self.env.now, packet.wire_length + FRAME_OVERHEAD_BYTES
            )
            if gap > 0.0:
                yield self.env.sleep(gap)
        # Pooled sleep: per-packet processing is the hottest delay in the
        # NIC and never composed, so it can reuse a recycled relay event.
        yield self.env.sleep(self.config.per_packet_processing_ns)
        try:
            yield from self.cmac.tx(packet)
        except self._pfc_storm_error:
            # The switch's storm watchdog broke our pause: the frame is
            # treated as lost (the retransmit machinery re-drives tracked
            # PSNs once the fabric recovers) instead of parking forever.
            self.stats["pfc_storm_drops"] += 1
            return
        self.stats["tx_packets"] += 1

    # ----------------------------------------------------------- requester

    def rdma_write(
        self,
        qpn: int,
        local_vaddr: int,
        remote_vaddr: int,
        length: int,
        wr_id: int = 0,
    ) -> Generator:
        """One-sided RDMA WRITE; returns once the peer acked the last packet."""
        qp = self._qp(qpn)
        read_fn = self._mem_read(qpn)
        segments = self._segments(length)
        done = Event(self.env)
        # Prefetch pipeline: local-memory reads overlap wire serialisation,
        # as in the hardware datapath where the DMA engine runs ahead of
        # the MAC.  Depth 4 keeps at most 16 KB of staged data.
        staged: Store = Store(self.env, capacity=4)

        def _fetcher():
            position = 0
            for seg in segments:
                data = yield self.env.process(read_fn(local_vaddr + position, seg))
                yield staged.put(data)
                position += seg

        self.env.process(_fetcher(), name=f"{self.name}-wr-fetch")
        offset = 0
        for index, seg_len in enumerate(segments):
            first = index == 0
            last = index == len(segments) - 1
            if first and last:
                opcode = RoceOpcode.RDMA_WRITE_ONLY
            elif first:
                opcode = RoceOpcode.RDMA_WRITE_FIRST
            elif last:
                opcode = RoceOpcode.RDMA_WRITE_LAST
            else:
                opcode = RoceOpcode.RDMA_WRITE_MIDDLE
            # Stage first, then take the credit: with no yield between the
            # credit grant and _track(), a concurrent flush can account for
            # every held credit from the retransmit buffer alone.
            payload = yield staged.get()
            yield self._window.get(1)
            if qp.in_error:
                self._window.put(1)
                self._check_sq(qpn, qp)
            psn = qp.next_psn()
            packet = RocePacket.build(
                src_mac=self.mac,
                dst_mac=qp.remote.mac,
                src_ip=self.ip,
                dst_ip=qp.remote.ip,
                # Request an ack on every packet so the window drains
                # continuously; real responders coalesce these replies.
                bth=BthHeader(opcode=opcode, dest_qp=qp.remote.qpn, psn=psn, ack_request=True),
                reth=RethHeader(vaddr=remote_vaddr, rkey=qp.remote.rkey, dma_length=length)
                if RoceOpcode.has_reth(opcode)
                else None,
                payload=payload if isinstance(payload, (bytes, bytearray)) else None,
                payload_length=seg_len,
                src_port=self._flow_port(qpn),
                ecn=self._data_ecn(),
            )
            self._track(qpn, psn, packet)
            if last:
                self._pending[qpn].append(
                    _PendingMessage(last_psn=psn, event=done, wr_id=wr_id, opcode="WRITE", length=length)
                )
            yield from self._send_packet(packet, qpn)
            offset += seg_len
        yield done
        self._complete_op(qpn, length)
        completion = Completion(wr_id=wr_id, opcode="WRITE", length=length)
        self.cq.put(completion)
        return completion

    def rdma_read(
        self,
        qpn: int,
        local_vaddr: int,
        remote_vaddr: int,
        length: int,
        wr_id: int = 0,
    ) -> Generator:
        """One-sided RDMA READ; returns once the full response arrived."""
        qp = self._qp(qpn)
        nresp = len(self._segments(length))
        start_psn = qp.sq_psn
        # A READ request consumes one PSN per response packet, and one
        # window credit for the request (released when responses ack it).
        yield self._window.get(1)
        if qp.in_error:
            self._window.put(1)
            self._check_sq(qpn, qp)
        for _ in range(nresp):
            qp.next_psn()
        done = Event(self.env)
        self._read_collect[qpn] = {
            "event": done,
            "local_vaddr": local_vaddr,
            "received": 0,
            "length": length,
            "request": None,  # filled below for retransmission
        }
        packet = RocePacket.build(
            src_mac=self.mac,
            dst_mac=qp.remote.mac,
            src_ip=self.ip,
            dst_ip=qp.remote.ip,
            bth=BthHeader(
                opcode=RoceOpcode.RDMA_READ_REQUEST,
                dest_qp=qp.remote.qpn,
                psn=start_psn,
                ack_request=True,
            ),
            reth=RethHeader(vaddr=remote_vaddr, rkey=qp.remote.rkey, dma_length=length),
            src_port=self._flow_port(qpn),
        )
        self._read_collect[qpn]["request"] = packet
        self._track(qpn, start_psn, packet)
        yield from self._send_packet(packet, qpn)
        yield done
        self._complete_op(qpn, length)
        completion = Completion(wr_id=wr_id, opcode="READ", length=length)
        self.cq.put(completion)
        return completion

    def fetch_add(self, qpn: int, remote_vaddr: int, addend: int, wr_id: int = 0) -> Generator:
        """Atomic 64-bit FETCH_ADD at the peer; returns the original value."""
        result = yield from self._atomic(
            qpn, RoceOpcode.FETCH_ADD, remote_vaddr, swap_add=addend, wr_id=wr_id
        )
        return result

    def compare_swap(
        self, qpn: int, remote_vaddr: int, compare: int, swap: int, wr_id: int = 0
    ) -> Generator:
        """Atomic 64-bit CMP_SWAP at the peer; returns the original value
        (the swap happened iff original == compare)."""
        result = yield from self._atomic(
            qpn, RoceOpcode.COMPARE_SWAP, remote_vaddr,
            swap_add=swap, compare=compare, wr_id=wr_id,
        )
        return result

    def _atomic(
        self, qpn: int, opcode: int, remote_vaddr: int,
        swap_add: int, compare: int = 0, wr_id: int = 0,
    ) -> Generator:
        from .headers import AtomicEthHeader

        qp = self._qp(qpn)
        yield self._window.get(1)
        if qp.in_error:
            self._window.put(1)
            self._check_sq(qpn, qp)
        psn = qp.next_psn()
        done = Event(self.env)
        self._atomic_pending.setdefault(qpn, {})[psn] = done
        packet = RocePacket.build(
            src_mac=self.mac,
            dst_mac=qp.remote.mac,
            src_ip=self.ip,
            dst_ip=qp.remote.ip,
            bth=BthHeader(opcode=opcode, dest_qp=qp.remote.qpn, psn=psn, ack_request=True),
            atomic_eth=AtomicEthHeader(
                vaddr=remote_vaddr, rkey=qp.remote.rkey,
                swap_add=swap_add & 0xFFFFFFFFFFFFFFFF,
                compare=compare & 0xFFFFFFFFFFFFFFFF,
            ),
            src_port=self._flow_port(qpn),
        )
        self._track(qpn, psn, packet)
        yield from self._send_packet(packet, qpn)
        original = yield done
        self._complete_op(qpn, 8)
        self.cq.put(Completion(wr_id=wr_id, opcode=RoceOpcode.name(opcode), length=8))
        return original

    def send(self, qpn: int, payload: bytes, wr_id: int = 0) -> Generator:
        """Two-sided SEND of a single message."""
        qp = self._qp(qpn)
        segments = self._segments(len(payload))
        done = Event(self.env)
        offset = 0
        for index, seg_len in enumerate(segments):
            first = index == 0
            last = index == len(segments) - 1
            if first and last:
                opcode = RoceOpcode.SEND_ONLY
            elif first:
                opcode = RoceOpcode.SEND_FIRST
            elif last:
                opcode = RoceOpcode.SEND_LAST
            else:
                opcode = RoceOpcode.SEND_MIDDLE
            yield self._window.get(1)
            if qp.in_error:
                self._window.put(1)
                self._check_sq(qpn, qp)
            psn = qp.next_psn()
            packet = RocePacket.build(
                src_mac=self.mac,
                dst_mac=qp.remote.mac,
                src_ip=self.ip,
                dst_ip=qp.remote.ip,
                bth=BthHeader(opcode=opcode, dest_qp=qp.remote.qpn, psn=psn, ack_request=True),
                payload=payload[offset : offset + seg_len],
                src_port=self._flow_port(qpn),
                ecn=self._data_ecn(),
            )
            self._track(qpn, psn, packet)
            if last:
                self._pending[qpn].append(
                    _PendingMessage(last_psn=psn, event=done, wr_id=wr_id, opcode="SEND", length=len(payload))
                )
            yield from self._send_packet(packet, qpn)
            offset += seg_len
        yield done
        self._complete_op(qpn, len(payload))
        completion = Completion(wr_id=wr_id, opcode="SEND", length=len(payload))
        self.cq.put(completion)
        return completion

    def recv(self, qpn: int) -> Generator:
        """Blocking receive of one SEND message."""
        qp = self.qps.get(qpn)
        if qp is None:
            raise RdmaError(f"no such QP {qpn}")
        if qp.state is QpState.ERROR:
            # SQ_ERROR still delivers inbound work; full ERROR does not.
            raise QpStateError(qpn, qp.state, qp.error_reason)
        message = yield self._recv_queues[qpn].get()
        return message

    # ------------------------------------------------------------ receiver

    def _rx_loop(self) -> Generator:
        while True:
            packet = yield self._rx_queue.get()
            if not isinstance(packet, RocePacket):
                continue  # another protocol on the shared fabric
            self.stats["rx_packets"] += 1
            yield self.env.sleep(self.config.per_packet_processing_ns)
            if self.halted:
                continue  # a crashed node processes nothing
            qpn = packet.bth.dest_qp
            qp = self.qps.get(qpn)
            if qp is None or qp.remote is None:
                continue  # drop traffic for unknown QPs
            if qp.state is QpState.ERROR:
                continue  # ERROR silently discards inbound work (IB)
            if packet.ip.ecn == ECN_CE:
                # Congestion point marked this frame: we are the DCQCN
                # notification point — answer with a (rate-limited) CNP.
                self.stats["ecn_ce_received"] += 1
                self._maybe_send_cnp(qpn, qp)
            opcode = packet.bth.opcode
            if opcode == RoceOpcode.CNP:
                self.stats["cnps_received"] += 1
                state = self.qp_rates.get(qpn)
                if state is not None:
                    state.on_cnp(self.env.now)
            elif opcode == RoceOpcode.ACKNOWLEDGE:
                self._handle_ack(qpn, qp, packet)
            elif opcode == RoceOpcode.ATOMIC_ACKNOWLEDGE:
                self._handle_atomic_ack(qpn, qp, packet)
            elif RoceOpcode.RDMA_READ_RESPONSE_FIRST <= opcode <= RoceOpcode.RDMA_READ_RESPONSE_ONLY:
                yield from self._handle_read_response(qpn, qp, packet)
            elif opcode == RoceOpcode.RDMA_READ_REQUEST:
                yield from self._handle_read_request(qpn, qp, packet)
            elif RoceOpcode.has_atomic_eth(opcode):
                yield from self._handle_atomic_request(qpn, qp, packet)
            else:
                yield from self._handle_inbound_data(qpn, qp, packet)

    def _maybe_send_cnp(self, qpn: int, qp: QueuePair) -> None:
        """Generate a CNP toward the marked flow's sender, at most one
        per QP per ``cnp_interval_ns`` (the notification-point filter).
        Sent from a spawned process: the reverse path may itself be
        congested or paused, and the rx loop must keep draining."""
        interval = self.config.dcqcn.cnp_interval_ns
        last = self._cnp_last_sent.get(qpn)
        if last is not None and self.env.now - last < interval:
            return
        self._cnp_last_sent[qpn] = self.env.now
        cnp = RocePacket.build(
            src_mac=self.mac,
            dst_mac=qp.remote.mac,
            src_ip=self.ip,
            dst_ip=qp.remote.ip,
            bth=BthHeader(opcode=RoceOpcode.CNP, dest_qp=qp.remote.qpn, psn=0),
            src_port=self._flow_port(qp.local.qpn),
        )
        self.stats["cnps_sent"] += 1
        self.env.process(self._send_packet(cnp), name=f"{self.name}-cnp")

    def _ack(self, qp: QueuePair, psn: int, syndrome: int = 0) -> Generator:
        packet = RocePacket.build(
            src_mac=self.mac,
            dst_mac=qp.remote.mac,
            src_ip=self.ip,
            dst_ip=qp.remote.ip,
            bth=BthHeader(opcode=RoceOpcode.ACKNOWLEDGE, dest_qp=qp.remote.qpn, psn=psn),
            aeth=AethHeader(syndrome=syndrome, msn=qp.msn),
            src_port=self._flow_port(qp.local.qpn),
        )
        if syndrome:
            self.stats["naks_sent"] += 1
        else:
            self.stats["acks_sent"] += 1
        yield from self._send_packet(packet)

    def _handle_inbound_data(self, qpn: int, qp: QueuePair, packet: RocePacket) -> Generator:
        """WRITE_* and SEND_* packets at the responder."""
        psn = packet.bth.psn
        if psn != qp.epsn:
            if psn_leq(psn, (qp.epsn - 1) % PSN_MOD):
                # Duplicate from a go-back-N rewind: re-ack, drop.
                yield from self._ack(qp, (qp.epsn - 1) % PSN_MOD)
            elif not self._nak_sent[qpn]:
                # Sequence gap: NAK once with the expected PSN.
                self._nak_sent[qpn] = True
                yield from self._ack(qp, qp.epsn, syndrome=AethHeader.NAK_PSN_SEQUENCE_ERROR)
            return
        self._nak_sent[qpn] = False
        qp.epsn = (qp.epsn + 1) % PSN_MOD
        opcode = packet.bth.opcode
        payload = packet.payload
        offload = self.rx_offloads.get(qpn)
        if offload is not None and payload is not None:
            payload = offload(payload)
        state = self._responder_msg[qpn]
        if opcode in (RoceOpcode.RDMA_WRITE_FIRST, RoceOpcode.RDMA_WRITE_ONLY):
            state.vaddr = packet.reth.vaddr
            state.remaining = packet.reth.dma_length
        if opcode in (
            RoceOpcode.RDMA_WRITE_FIRST,
            RoceOpcode.RDMA_WRITE_MIDDLE,
            RoceOpcode.RDMA_WRITE_LAST,
            RoceOpcode.RDMA_WRITE_ONLY,
        ):
            yield self.env.process(
                self._mem_write(qpn)(state.vaddr, payload, packet.payload_length)
            )
            state.vaddr += packet.payload_length
            state.remaining -= packet.payload_length
            if opcode in (RoceOpcode.RDMA_WRITE_LAST, RoceOpcode.RDMA_WRITE_ONLY):
                qp.msn = (qp.msn + 1) % PSN_MOD
        else:  # SEND family
            buf = self._recv_queues[qpn]
            key = "_send_parts"
            parts = getattr(buf, key, [])
            parts.append(payload or bytes(packet.payload_length))
            setattr(buf, key, parts)
            if opcode in (RoceOpcode.SEND_LAST, RoceOpcode.SEND_ONLY):
                qp.msn = (qp.msn + 1) % PSN_MOD
                buf.put(b"".join(parts))
                setattr(buf, key, [])
        if packet.bth.ack_request:
            yield from self._ack(qp, psn)

    def _handle_atomic_request(self, qpn: int, qp: QueuePair, packet: RocePacket) -> Generator:
        """Responder side of FETCH_ADD / CMP_SWAP: read-modify-write the
        8-byte target atomically (the rx loop serialises us) and return
        the original value in an ATOMIC_ACKNOWLEDGE."""
        from .headers import AtomicAckEthHeader

        psn = packet.bth.psn
        if psn != qp.epsn:
            if not self._nak_sent[qpn]:
                self._nak_sent[qpn] = True
                yield from self._ack(qp, qp.epsn, syndrome=AethHeader.NAK_PSN_SEQUENCE_ERROR)
            return
        self._nak_sent[qpn] = False
        qp.epsn = (qp.epsn + 1) % PSN_MOD
        qp.msn = (qp.msn + 1) % PSN_MOD
        ath = packet.atomic_eth
        raw = yield self.env.process(self._mem_read(qpn)(ath.vaddr, 8))
        original = int.from_bytes(raw, "little") if raw is not None else 0
        if packet.bth.opcode == RoceOpcode.FETCH_ADD:
            updated = (original + ath.swap_add) & 0xFFFFFFFFFFFFFFFF
        else:  # COMPARE_SWAP
            updated = ath.swap_add if original == ath.compare else original
        yield self.env.process(
            self._mem_write(qpn)(ath.vaddr, updated.to_bytes(8, "little"), 8)
        )
        response = RocePacket.build(
            src_mac=self.mac,
            dst_mac=qp.remote.mac,
            src_ip=self.ip,
            dst_ip=qp.remote.ip,
            bth=BthHeader(opcode=RoceOpcode.ATOMIC_ACKNOWLEDGE, dest_qp=qp.remote.qpn, psn=psn),
            aeth=AethHeader(syndrome=0, msn=qp.msn),
            atomic_ack=AtomicAckEthHeader(original=original),
        )
        yield from self._send_packet(response)

    def _handle_atomic_ack(self, qpn: int, qp: QueuePair, packet: RocePacket) -> None:
        """Requester side: the response both acks the PSN and carries the
        original value back to the waiting verb."""
        self._progress_ack(qpn, qp, packet.bth.psn)
        waiter = self._atomic_pending.get(qpn, {}).pop(packet.bth.psn, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(packet.atomic_ack.original)

    def _handle_read_request(self, qpn: int, qp: QueuePair, packet: RocePacket) -> Generator:
        psn = packet.bth.psn
        if psn != qp.epsn:
            if not self._nak_sent[qpn]:
                self._nak_sent[qpn] = True
                yield from self._ack(qp, qp.epsn, syndrome=AethHeader.NAK_PSN_SEQUENCE_ERROR)
            return
        self._nak_sent[qpn] = False
        read_fn = self._mem_read(qpn)
        length = packet.reth.dma_length
        vaddr = packet.reth.vaddr
        segments = self._segments(length)
        qp.epsn = (qp.epsn + len(segments)) % PSN_MOD
        qp.msn = (qp.msn + 1) % PSN_MOD
        offset = 0
        for index, seg_len in enumerate(segments):
            first = index == 0
            last = index == len(segments) - 1
            if first and last:
                opcode = RoceOpcode.RDMA_READ_RESPONSE_ONLY
            elif first:
                opcode = RoceOpcode.RDMA_READ_RESPONSE_FIRST
            elif last:
                opcode = RoceOpcode.RDMA_READ_RESPONSE_LAST
            else:
                opcode = RoceOpcode.RDMA_READ_RESPONSE_MIDDLE
            payload = yield self.env.process(read_fn(vaddr + offset, seg_len))
            response = RocePacket.build(
                src_mac=self.mac,
                dst_mac=qp.remote.mac,
                src_ip=self.ip,
                dst_ip=qp.remote.ip,
                bth=BthHeader(
                    opcode=opcode,
                    dest_qp=qp.remote.qpn,
                    psn=(psn + index) % PSN_MOD,
                ),
                aeth=AethHeader(syndrome=0, msn=qp.msn) if RoceOpcode.has_aeth(opcode) else None,
                payload=payload if isinstance(payload, (bytes, bytearray)) else None,
                payload_length=seg_len,
                src_port=self._flow_port(qpn),
                ecn=self._data_ecn(),
            )
            yield from self._send_packet(response, qpn)
            offset += seg_len

    def _handle_read_response(self, qpn: int, qp: QueuePair, packet: RocePacket) -> Generator:
        state = self._read_collect.get(qpn)
        if state is None:
            return
        # Responses double as acks for the consumed PSNs.
        self._progress_ack(qpn, qp, packet.bth.psn)
        yield self.env.process(
            self._mem_write(qpn)(
                state["local_vaddr"] + state["received"],
                packet.payload,
                packet.payload_length,
            )
        )
        state["received"] += packet.payload_length
        if state["received"] >= state["length"]:
            del self._read_collect[qpn]
            state["event"].succeed()

    # ----------------------------------------------------- ack processing

    def _progress_ack(self, qpn: int, qp: QueuePair, psn: int) -> None:
        """Cumulative acknowledgement of every PSN <= psn."""
        self._last_progress[qpn] = self.env.now
        self._retry_counts[qpn] = 0
        buffered = self._retransmit[qpn]
        released = [p for p in buffered if psn_leq(p, psn)]
        for p in released:
            del buffered[p]
        if released:
            self._window.put(len(released))
        if psn_leq(qp.acked_psn % PSN_MOD, psn):
            qp.acked_psn = psn
        pending = self._pending[qpn]
        finished = [m for m in pending if psn_leq(m.last_psn, psn)]
        self._pending[qpn] = [m for m in pending if not psn_leq(m.last_psn, psn)]
        for msg in finished:
            msg.event.succeed()

    def _handle_ack(self, qpn: int, qp: QueuePair, packet: RocePacket) -> None:
        aeth = packet.aeth
        if aeth is not None and aeth.is_nak:
            self.stats["naks_received"] += 1
            # Go-back-N: retransmit everything from the NAK'ed PSN.
            self.env.process(self._go_back_n(qpn, packet.bth.psn))
            return
        self._progress_ack(qpn, qp, packet.bth.psn)

    def _go_back_n(self, qpn: int, from_psn: int) -> Generator:
        buffered = self._retransmit[qpn]
        ordered = sorted(
            (p for p in buffered if psn_leq(from_psn, p)),
            key=lambda p: (p - from_psn) % PSN_MOD,
        )
        for psn in ordered:
            packet = buffered.get(psn)
            if packet is None:
                continue  # acked while we were retransmitting earlier PSNs
            self.stats["retransmissions"] += 1
            yield from self._send_packet(packet, qpn)
        self._last_progress[qpn] = self.env.now

    def _track(self, qpn: int, psn: int, packet: RocePacket) -> None:
        """Buffer an unacked packet and wake the retransmit timer."""
        if not self._retransmit[qpn]:
            # First outstanding packet after an idle spell starts the
            # progress clock; the timer fires one full timeout later.
            self._last_progress[qpn] = self.env.now
        self._retransmit[qpn][psn] = packet
        if self._timer_parked is not None and not self._timer_parked.triggered:
            self._timer_parked.succeed()

    def _retransmit_timer(self) -> Generator:
        timeout = self.config.retransmit_timeout_ns
        while True:
            if not any(self._retransmit[q] for q in self._retransmit):
                # Park: an idle requester must not keep the simulation
                # alive forever; _track() kicks us on the next packet.
                self._timer_parked = Event(self.env)
                yield self._timer_parked
                self._timer_parked = None
                continue
            yield self.env.sleep(timeout)
            outstanding = any(self._retransmit[q] for q in self._retransmit)
            if not outstanding:
                continue
            for qpn in list(self._retransmit):
                buffered = self._retransmit[qpn]
                if not buffered:
                    continue
                if self.env.now - self._last_progress.get(qpn, 0.0) < timeout:
                    continue
                self._retry_counts[qpn] = self._retry_counts.get(qpn, 0) + 1
                if self._retry_counts[qpn] > self.config.max_retries:
                    # Retry budget exhausted: the peer (or the path) is
                    # gone.  ERROR the QP; flushed WRs tell the requester.
                    self.qp_error(qpn, reason="retry exhausted")
                    continue
                oldest = min(
                    buffered, key=lambda p: (p - self.qps[qpn].acked_psn) % PSN_MOD
                )
                yield self.env.process(self._go_back_n(qpn, oldest))
