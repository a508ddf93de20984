"""Congestion datapath tests: egress queueing, ECN marking, PFC pause /
storm detection, DCQCN rate control, the leaf/spine topology and the
``net.ecn_suppress`` / ``net.pause_drop`` fault sites."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FpgaCluster
from repro.core import ServiceConfig
from repro.driver.report import card_report
from repro.faults import (
    NET_ECN_SUPPRESS,
    NET_PAUSE_DROP,
    FaultInjector,
    FaultPlan,
    FaultRule,
)
from repro.health import PfcStormError
from repro.mem import SparseMemory
from repro.net import (
    ECN_CE,
    ECN_ECT0,
    ECN_NOT_ECT,
    BthHeader,
    Cmac,
    DcqcnConfig,
    LeafSpineTopology,
    MacAddress,
    RdmaConfig,
    RdmaStack,
    RocePacket,
    RoceOpcode,
    Switch,
    SwitchConfig,
)
from repro.net.cmac import CMAC_BANDWIDTH, FRAME_OVERHEAD_BYTES
from repro.net.qp import DcqcnState
from repro.sim import Environment
from repro.telemetry import ClusterTelemetry

MAC_A = MacAddress(0x02_21_01)
MAC_B = MacAddress(0x02_21_02)
MAC_C = MacAddress(0x02_21_03)


def packet(src=MAC_A, dst=MAC_B, payload=b"x" * 1024, ecn=ECN_ECT0,
           psn=0, src_port=49152):
    return RocePacket.build(
        src_mac=src, dst_mac=dst, src_ip=1, dst_ip=2,
        bth=BthHeader(opcode=RoceOpcode.SEND_ONLY, dest_qp=1, psn=psn),
        payload=payload, ecn=ecn, src_port=src_port,
    )


def wire_ns(pkt):
    return (pkt.wire_length + FRAME_OVERHEAD_BYTES) / CMAC_BANDWIDTH


# --------------------------------------------------------- egress queueing


def test_egress_queue_serialises_concurrent_arrivals():
    """Two frames reaching one egress port at once leave one wire apart."""
    env = Environment()
    switch = Switch(env, latency_ns=0)
    cmac_a, cmac_b, cmac_c = Cmac(env), Cmac(env), Cmac(env)
    switch.attach(MAC_A, cmac_a)
    switch.attach(MAC_B, cmac_b)
    switch.attach(MAC_C, cmac_c)
    arrivals = []
    cmac_b.rx_taps.append(lambda now, pkt: arrivals.append(now))

    def sender(cmac, src):
        yield from cmac.tx(packet(src=src))

    env.process(sender(cmac_a, MAC_A))
    env.process(sender(cmac_c, MAC_C))
    env.run()
    assert len(arrivals) == 2
    # Both frames finish serialising onto the switch at the same instant;
    # the egress queue must space the deliveries by one wire time.
    assert arrivals[1] - arrivals[0] == pytest.approx(wire_ns(packet()))


def test_ecn_marked_above_threshold_only_for_ect():
    env = Environment()
    switch = Switch(env, config=SwitchConfig(ecn_threshold_bytes=0))
    cmac_a, cmac_b = Cmac(env), Cmac(env)
    switch.attach(MAC_A, cmac_a)
    switch.attach(MAC_B, cmac_b)
    seen = []
    cmac_b.rx_taps.append(lambda now, pkt: seen.append(pkt.ip.ecn))

    def sender():
        yield from cmac_a.tx(packet(ecn=ECN_ECT0))
        yield from cmac_a.tx(packet(ecn=ECN_NOT_ECT))

    env.run(env.process(sender()))
    env.run()
    assert seen == [ECN_CE, ECN_NOT_ECT]
    assert switch.ecn_marks == 1
    assert switch.counters()["ecn_marks"] == 1


def test_ecn_mark_copies_instead_of_mutating():
    """CE marking must not scribble on the sender's retransmit buffer."""
    env = Environment()
    switch = Switch(env, config=SwitchConfig(ecn_threshold_bytes=0))
    cmac_a, cmac_b = Cmac(env), Cmac(env)
    switch.attach(MAC_A, cmac_a)
    switch.attach(MAC_B, cmac_b)
    pkt = packet(ecn=ECN_ECT0)
    env.run(env.process(cmac_a.tx(pkt)))
    env.run()
    assert pkt.ip.ecn == ECN_ECT0


def test_tail_drop_at_capacity():
    env = Environment()
    switch = Switch(env, config=SwitchConfig(egress_capacity_bytes=2048))
    cmac_a, cmac_b, cmac_c = Cmac(env), Cmac(env), Cmac(env)
    switch.attach(MAC_A, cmac_a)
    switch.attach(MAC_B, cmac_b)
    switch.attach(MAC_C, cmac_c)

    def blast(cmac, src):
        for psn in range(6):
            yield from cmac.tx(packet(src=src, psn=psn))

    env.process(blast(cmac_a, MAC_A))
    env.process(blast(cmac_c, MAC_C))
    env.run()
    assert switch.tail_drops > 0
    assert switch.dropped == switch.tail_drops
    assert cmac_b.rx_frames == 12 - switch.tail_drops
    assert switch.counters()["tail_drops"] == switch.tail_drops


# ------------------------------------------------------------------- PFC


def test_pfc_pause_resume_is_lossless():
    env = Environment()
    switch = Switch(env, config=SwitchConfig(
        pfc_enabled=True, xoff_bytes=2048, xon_bytes=1024,
    ))
    cmac_a, cmac_b, cmac_c = Cmac(env), Cmac(env), Cmac(env)
    switch.attach(MAC_A, cmac_a)
    switch.attach(MAC_B, cmac_b)
    switch.attach(MAC_C, cmac_c)

    def blast(cmac, src):
        for psn in range(20):
            yield from cmac.tx(packet(src=src, psn=psn))

    env.process(blast(cmac_a, MAC_A))
    env.process(blast(cmac_c, MAC_C))
    env.run()
    # The overloaded egress pushed back instead of dropping.
    assert switch.pause_frames_sent > 0
    assert switch.pause_resumes_sent > 0
    assert cmac_a.pause_frames_rx + cmac_c.pause_frames_rx > 0
    assert switch.tail_drops == 0
    assert cmac_b.rx_frames == 40
    assert switch.pfc_storms == 0


def test_pfc_storm_is_typed_error_not_a_hang():
    """A wedged receiver (never drains its rx queue) must trip the storm
    watchdog: a typed PfcStormError is recorded, the stuck port is muted
    so traffic drains, and the simulation quiesces."""
    env = Environment()
    switch = Switch(env, config=SwitchConfig(storm_threshold_ns=50_000.0))
    cmac_a = Cmac(env)
    # Victim advertises a 2-frame watermark and nobody ever calls rx().
    wedged = Cmac(env, rx_xoff_frames=2, rx_xon_frames=1)
    switch.attach(MAC_A, cmac_a)
    switch.attach(MAC_B, wedged)
    storms = []
    switch.on_pfc_storm = storms.append

    def blast():
        for psn in range(150):
            yield from cmac_a.tx(packet(psn=psn))

    env.run(env.process(blast()))
    env.run()  # must quiesce, not livelock on pause refreshes
    assert switch.pfc_storms >= 1
    assert storms and isinstance(storms[0], PfcStormError)
    assert isinstance(switch.pfc_storm_errors[0], PfcStormError)
    assert switch.pfc_storm_errors[0].paused_ns >= 50_000.0
    # Muting the port let the backlog drain to the wedged host.
    assert wedged.rx_frames == 150
    assert switch.counters()["pfc_storms"] == switch.pfc_storms


def test_pause_drop_fault_site_breaks_pfc():
    env = Environment()
    switch = Switch(env, config=SwitchConfig(
        pfc_enabled=True, xoff_bytes=2048, xon_bytes=1024,
    ))
    FaultInjector(FaultPlan(rules=(
        FaultRule(site=NET_PAUSE_DROP, probability=1.0),
    ))).arm(switch=switch)
    cmac_a, cmac_b, cmac_c = Cmac(env), Cmac(env), Cmac(env)
    switch.attach(MAC_A, cmac_a)
    switch.attach(MAC_B, cmac_b)
    switch.attach(MAC_C, cmac_c)

    def blast(cmac, src):
        for psn in range(20):
            yield from cmac.tx(packet(src=src, psn=psn))

    env.process(blast(cmac_a, MAC_A))
    env.process(blast(cmac_c, MAC_C))
    env.run()
    # Every pause frame was eaten on the wire: the senders never slowed.
    assert switch.pause_frames_dropped > 0
    assert switch.pause_frames_sent == 0
    assert cmac_a.pause_frames_rx == 0
    assert cmac_c.pause_frames_rx == 0


# ------------------------------------------------------------------ DCQCN


def make_state(**overrides):
    params = dict(
        line_rate=CMAC_BANDWIDTH, min_rate=0.125, alpha_g=1.0 / 16.0,
        alpha_update_ns=55_000.0, rate_increase_ns=55_000.0,
        fast_recovery_rounds=5, additive_increase=0.005,
        hyper_increase=0.05,
    )
    params.update(overrides)
    return DcqcnState(**params)


def test_dcqcn_cut_and_staged_recovery():
    state = make_state()
    assert state.current_rate == CMAC_BANDWIDTH
    state.on_cnp(0.0)
    # alpha starts at 1: the first CNP halves the rate.
    assert state.current_rate == pytest.approx(CMAC_BANDWIDTH / 2)
    assert state.target_rate == pytest.approx(CMAC_BANDWIDTH)
    previous = state.current_rate
    for round_no in range(1, 20):
        state.advance(round_no * 55_000.0)
        assert state.current_rate >= previous
        assert state.current_rate <= CMAC_BANDWIDTH
        previous = state.current_rate
    # Fast recovery alone converges most of the way back to the target.
    assert state.current_rate > 0.95 * CMAC_BANDWIDTH


def test_dcqcn_never_cuts_below_min_rate():
    state = make_state(min_rate=0.5)
    for i in range(50):
        state.on_cnp(float(i))
    assert state.current_rate == 0.5


def test_dcqcn_pacing_gap_reserves_slots():
    state = make_state()
    assert state.pacing_gap(0.0, 1250) == 0.0
    # The second frame at the same instant must wait one serialisation.
    gap = state.pacing_gap(0.0, 1250)
    assert gap == pytest.approx(1250 / CMAC_BANDWIDTH)


def test_dcqcn_idle_does_not_recover_rate():
    """The restart problem: a stalled flow must not resume at a fully
    recovered rate — an idle gap earns at most one increase round."""
    state = make_state()
    state.on_cnp(0.0)
    cut = state.current_rate
    state.pacing_gap(10_000_000.0, 1250)  # 10 ms idle
    one_round = (cut + state.target_rate) / 2
    assert state.current_rate == pytest.approx(one_round)


def test_dcqcn_initial_rate_override():
    state = make_state(initial_rate=CMAC_BANDWIDTH / 8)
    assert state.current_rate == pytest.approx(CMAC_BANDWIDTH / 8)
    assert state.target_rate == pytest.approx(CMAC_BANDWIDTH / 8)


def rdma_pair(env, fabric, config, attach=None):
    attach = attach or (lambda mac, cmac: fabric.attach(mac, cmac))
    stacks, memories = [], []
    for i, (mac_val, ip) in enumerate(
        [(0x02_00_2D01, 0xA000001), (0x02_00_2D02, 0xA000002)]
    ):
        mac = MacAddress(mac_val)
        cmac = Cmac(env, name=f"cc{i}")
        attach(mac, cmac)
        stack = RdmaStack(env, cmac, mac, ip, config, name=f"cc{i}")
        memory = SparseMemory(1 << 22)

        def read_local(vaddr, length, memory=memory):
            yield env.timeout(length / 12.0)
            return memory.read(vaddr, length)

        def write_local(vaddr, data, length, memory=memory):
            yield env.timeout(length / 12.0)
            if data is not None:
                memory.write(vaddr, data)

        stack.bind_memory(read_local, write_local)
        stacks.append(stack)
        memories.append(memory)
    qa = stacks[0].create_qp(1, psn=0)
    qb = stacks[1].create_qp(2, psn=0)
    qa.connect(qb.local)
    qb.connect(qa.local)
    return stacks, memories


def test_dcqcn_cnp_loop_end_to_end():
    """CE marks at the switch become CNPs at the responder and a rate
    cut at the requester, and the payload still arrives intact."""
    env = Environment()
    switch = Switch(env, config=SwitchConfig(ecn_threshold_bytes=0))
    config = RdmaConfig(dcqcn=DcqcnConfig(enabled=True))
    (a, b), (mem_a, mem_b) = rdma_pair(env, switch, config)
    payload = bytes(range(256)) * 64
    mem_a.write(0x1000, payload)

    def proc():
        yield from a.rdma_write(1, 0x1000, 0x2000, len(payload))

    env.run(env.process(proc()))
    env.run()
    assert mem_b.read(0x2000, len(payload)) == payload
    assert switch.ecn_marks > 0
    assert b.stats["ecn_ce_received"] > 0
    assert b.stats["cnps_sent"] > 0
    assert a.stats["cnps_received"] > 0
    state = a.qp_rates[1]
    assert state.cnps == a.stats["cnps_received"]
    assert state.current_rate < CMAC_BANDWIDTH


def test_dcqcn_disabled_sends_not_ect():
    env = Environment()
    switch = Switch(env, config=SwitchConfig(ecn_threshold_bytes=0))
    config = RdmaConfig()  # dcqcn off
    (a, b), (mem_a, mem_b) = rdma_pair(env, switch, config)
    mem_a.write(0x1000, b"q" * 4096)

    def proc():
        yield from a.rdma_write(1, 0x1000, 0x2000, 4096)

    env.run(env.process(proc()))
    env.run()
    # Not-ECT traffic is never marked, so no CNPs and no rate state.
    assert switch.ecn_marks == 0
    assert b.stats["cnps_sent"] == 0
    assert a.qp_rates == {}


def test_ecn_suppress_fault_site_starves_the_control_loop():
    env = Environment()
    switch = Switch(env, config=SwitchConfig(ecn_threshold_bytes=0))
    FaultInjector(FaultPlan(rules=(
        FaultRule(site=NET_ECN_SUPPRESS, probability=1.0),
    ))).arm(switch=switch)
    config = RdmaConfig(dcqcn=DcqcnConfig(enabled=True))
    (a, b), (mem_a, _) = rdma_pair(env, switch, config)
    mem_a.write(0x1000, b"z" * 8192)

    def proc():
        yield from a.rdma_write(1, 0x1000, 0x2000, 8192)

    env.run(env.process(proc()))
    env.run()
    # Marks were suppressed on the wire: no CNPs, no cut.
    assert switch.ecn_suppressed > 0
    assert switch.ecn_marks == 0
    assert b.stats["ecn_ce_received"] == 0
    assert b.stats["cnps_sent"] == 0
    assert a.qp_rates[1].current_rate == CMAC_BANDWIDTH


# ------------------------------------------------------------- leaf/spine


def test_leaf_spine_rdma_write_crosses_fabric():
    env = Environment()
    topo = LeafSpineTopology(env, leaves=2, spines=2)
    config = RdmaConfig()
    (a, b), (mem_a, mem_b) = rdma_pair(
        env, topo, config, attach=lambda mac, cmac: topo.attach(mac, cmac)
    )
    payload = bytes((7 * i) % 256 for i in range(16384))
    mem_a.write(0x1000, payload)

    def proc():
        yield from a.rdma_write(1, 0x1000, 0x2000, len(payload))

    env.run(env.process(proc()))
    env.run()
    assert mem_b.read(0x2000, len(payload)) == payload
    # Hosts landed on different leaves, so the write crossed a spine.
    assert sum(spine.forwarded for spine in topo.spines) > 0


def test_leaf_spine_ecmp_spreads_and_is_deterministic():
    def deliveries(run_seed_ports):
        env = Environment()
        topo = LeafSpineTopology(env, leaves=2, spines=2)
        cmac_a, cmac_b = Cmac(env), Cmac(env)
        topo.attach(MAC_A, cmac_a, leaf=0)
        topo.attach(MAC_B, cmac_b, leaf=1)

        def blast():
            for i, port in enumerate(run_seed_ports):
                yield from cmac_a.tx(packet(psn=i, src_port=port))

        env.run(env.process(blast()))
        env.run()
        return [spine.forwarded for spine in topo.spines], cmac_b.rx_frames

    ports = [49152 + i for i in range(32)]
    spread, received = deliveries(ports)
    assert received == 32
    assert sum(spread) == 32
    # CRC32 over the flow tuple spreads distinct source ports across
    # both spines...
    assert all(count > 0 for count in spread)
    # ...and the hash is deterministic: same flows, same spread.
    assert deliveries(ports)[0] == spread


def test_leaf_spine_oversubscription_narrows_uplinks():
    env = Environment()
    topo = LeafSpineTopology(env, leaves=2, spines=2, oversubscription=4.0)
    for leaf in topo.leaves:
        for _, port in leaf.egress_ports():
            if port.line_rate != CMAC_BANDWIDTH:
                assert port.line_rate == pytest.approx(CMAC_BANDWIDTH / 4.0)


# ------------------------------------------------- conservation (property)


@settings(max_examples=20, deadline=None)
@given(
    loads=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=25),   # packets per sender
            st.integers(min_value=0, max_value=2000),  # inter-packet gap ns
            st.integers(min_value=64, max_value=2048),  # payload bytes
        ),
        min_size=1, max_size=4,
    )
)
def test_egress_queueing_conserves_packets(loads):
    """No faults armed: whatever the offered load, PFC backpressure means
    every frame is delivered exactly once and per-flow order holds."""
    env = Environment()
    switch = Switch(env, config=SwitchConfig(
        egress_capacity_bytes=64 << 10,
        pfc_enabled=True, xoff_bytes=16 << 10, xon_bytes=8 << 10,
        storm_threshold_ns=1e12,
    ))
    dst_cmac = Cmac(env)
    switch.attach(MAC_B, dst_cmac)
    received = []
    dst_cmac.rx_taps.append(
        lambda now, pkt: received.append((pkt.eth.src.value, pkt.bth.psn))
    )
    sent = []
    for i, (count, gap, payload_bytes) in enumerate(loads):
        src = MacAddress(0x02_31_00 + i)
        cmac = Cmac(env, name=f"prop{i}")
        switch.attach(src, cmac)

        def blast(cmac=cmac, src=src, count=count, gap=gap,
                  payload_bytes=payload_bytes):
            for psn in range(count):
                yield from cmac.tx(packet(
                    src=src, psn=psn, payload=b"p" * payload_bytes
                ))
                if gap:
                    yield env.timeout(float(gap))

        for psn in range(count):
            sent.append((src.value, psn))
        env.process(blast())
    env.run()
    assert switch.tail_drops == 0
    assert switch.dropped == 0
    assert switch.duplicated == 0
    assert sorted(received) == sorted(sent)  # exactly once
    for i in range(len(loads)):
        src_value = 0x02_31_00 + i
        flow = [psn for src, psn in received if src == src_value]
        assert flow == sorted(flow)  # per-flow order preserved


# -------------------------------------------------------------- telemetry


def test_congestion_telemetry_in_card_report_and_cluster_snapshot():
    env = Environment()
    cluster = FpgaCluster(
        env, 2,
        services=ServiceConfig(
            en_memory=True, en_rdma=True,
            rdma=RdmaConfig(dcqcn=DcqcnConfig(enabled=True)),
        ),
    )
    rdma_a = cluster[0].shell.dynamic.rdma
    rdma_b = cluster[1].shell.dynamic.rdma
    qp_a = rdma_a.create_qp(1, psn=0)
    qp_b = rdma_b.create_qp(2, psn=0)
    qp_a.connect(qp_b.local)
    qp_b.connect(qp_a.local)
    done = {}

    def sender():
        yield from rdma_a.send(1, b"hello congestion")
        done["sent"] = True

    def receiver():
        done["payload"] = yield from rdma_b.recv(2)

    env.process(sender())
    env.process(receiver())
    env.run()
    assert done.get("sent") and done["payload"] == b"hello congestion"

    # Per-QP DCQCN reaction-point state rides in the card report.
    telemetry = card_report(cluster[0].driver)["telemetry"]
    qp_metrics = telemetry["net"]["qp"]["1"]
    assert qp_metrics["rate_gbps"]["value"] == pytest.approx(
        CMAC_BANDWIDTH * 8.0
    )
    assert qp_metrics["cnps"] == 0
    assert telemetry["net"]["rdma_cnps_sent"] == 0

    # Fabric congestion counters + per-port queue gauges in the cluster
    # roll-up.
    snap = ClusterTelemetry(cluster).snapshot()
    for name in (
        "net.switch_tail_drops", "net.switch_ecn_marks",
        "net.switch_ecn_suppressed", "net.switch_pause_frames_sent",
        "net.switch_pause_frames_received",
        "net.switch_pause_frames_dropped", "net.switch_pfc_storms",
    ):
        assert snap.counter(name).value == 0
    depth = snap.gauge("net.port.0.queue_bytes")
    assert depth.value == 0.0
    assert depth.high_water >= 0.0


#: Stops an incast mid-flight, so senders stay parked in
#: ``RdmaStack._send_packet`` when the interpreter exits (the
#: ``perfbench/NOTES.md`` reproducer).
_PARKED_SENDERS_AT_EXIT = """
import sys
sys.path[:0] = ['src', 'perfbench']
from workloads import RdmaIncast
w = RdmaIncast(1); w.setup()
[w.env.process(w._sender(i, [])) for i in range(w.senders)]
w.env.run(until=200_000.0)
"""


def test_senders_parked_at_interpreter_exit_print_nothing():
    """Collecting a sender parked in ``_send_packet`` at shutdown
    evaluates its ``except PfcStormError`` clause; that must not import
    (the import machinery is gone by then and a traceback hits stderr)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _PARKED_SENDERS_AT_EXIT],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
