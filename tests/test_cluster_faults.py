"""Cluster fault tolerance: the three cluster fault sites, the heartbeat
failure detector, self-healing collectives and node-down admission.

The acceptance scenario from the issue is pinned here end-to-end: a
seeded ``node.crash`` in the middle of a 4-node allreduce aborts the
collective *symmetrically* (every rank raises, nobody stays parked, the
simulation drains), ``rebuild()`` reforms the mesh over the 3 survivors,
the retried allreduce produces the correct sum — and the whole failover
is byte-identical across two runs under ``REPRO_SANITIZE=1``.
"""

import hashlib

import pytest

from repro.cluster import FpgaCluster
from repro.core import ServiceConfig
from repro.driver import Slice
from repro.faults import (
    LINK_FLAP,
    NET_PARTITION,
    NODE_CRASH,
    FaultInjector,
    FaultPlan,
    FaultRule,
)
from repro.health import (
    ClusterHealthConfig,
    ClusterMonitor,
    NodeDownError,
    health_section,
)
from repro.net import (
    CollectiveAbortError,
    QpState,
    RdmaConfig,
    WrFlushError,
)
from repro.sim import AllOf, Environment
from repro.telemetry import ClusterTelemetry


def make_cluster(n=2, plan=None, retransmit_timeout_ns=50_000):
    env = Environment()
    cluster = FpgaCluster(
        env, n,
        services=ServiceConfig(
            en_memory=True, en_rdma=True,
            rdma=RdmaConfig(retransmit_timeout_ns=retransmit_timeout_ns),
        ),
    )
    if plan is not None:
        FaultInjector(plan).arm_cluster(cluster)
    return env, cluster


def stack(cluster, index):
    return cluster[index].shell.dynamic.rdma


def connect_stacks(cluster, a=0, b=1, qpn_a=1, qpn_b=2):
    qp_a = stack(cluster, a).create_qp(qpn_a, psn=10)
    qp_b = stack(cluster, b).create_qp(qpn_b, psn=20)
    qp_a.connect(qp_b.local)
    qp_b.connect(qp_a.local)
    return qp_a, qp_b


def ping(env, cluster, payload=b"ping", qpn_a=1, qpn_b=2):
    """One SEND node0 -> node1; returns (sender_proc, receiver_proc)."""
    outcome = {}

    def sender():
        try:
            yield from stack(cluster, 0).send(qpn_a, payload)
            outcome["sent"] = True
        except WrFlushError as exc:
            outcome["flush"] = exc

    def receiver():
        outcome["msg"] = yield from stack(cluster, 1).recv(qpn_b)

    send_proc = env.process(sender())
    recv_proc = env.process(receiver())
    recv_proc.defuse()  # flushed if the scenario kills node 1's QP
    return send_proc, recv_proc, outcome


# --------------------------------------------------- fire / must-not-fire


def test_node_crash_fires_and_takes_the_source_node_down():
    plan = FaultPlan(seed=3, rules=[FaultRule(site=NODE_CRASH, at_events=(0,))])
    env, cluster = make_cluster(plan=plan)
    connect_stacks(cluster)
    send_proc, recv_proc, outcome = ping(env, cluster)
    env.run(send_proc)
    env.run()
    # The first frame's source is node 0: the whole card went down.
    assert cluster.switch.crashes == 1
    assert cluster.crashes == 1
    assert not cluster[0].alive
    assert cluster[0].driver.node_down
    assert stack(cluster, 0).halted
    # The in-flight SEND surfaced as a typed flush, not a hang.
    assert isinstance(outcome.get("flush"), WrFlushError)
    assert "sent" not in outcome


def test_node_crash_must_not_fire_before_its_event():
    plan = FaultPlan(
        seed=3, rules=[FaultRule(site=NODE_CRASH, at_events=(10_000,))]
    )
    env, cluster = make_cluster(plan=plan)
    connect_stacks(cluster)
    send_proc, recv_proc, outcome = ping(env, cluster)
    env.run(AllOf(env, [send_proc, recv_proc]))
    env.run()
    assert outcome["msg"] == b"ping"
    assert cluster.switch.crashes == 0
    assert cluster.crashes == 0
    assert cluster[0].alive and cluster[1].alive


def test_link_flap_fires_and_auto_recovers_without_qp_error():
    plan = FaultPlan(seed=5, rules=[FaultRule(site=LINK_FLAP, at_events=(0,))])
    # Default retry budget (8 x 100 us) comfortably covers the 250 us
    # hold-off: a flap must cost retransmissions, never a QP error.
    env, cluster = make_cluster(plan=plan, retransmit_timeout_ns=100_000)
    qp_a, _ = connect_stacks(cluster)
    send_proc, recv_proc, outcome = ping(env, cluster, payload=b"flap")
    env.run(AllOf(env, [send_proc, recv_proc]))
    env.run()
    assert cluster.switch.link_flaps == 1
    assert outcome["msg"] == b"flap"  # delivered after the hold-off
    assert qp_a.state is QpState.RTS  # no escalation
    assert stack(cluster, 0).stats["retransmissions"] >= 1
    assert stack(cluster, 0).stats["qp_errors"] == 0


def test_net_partition_fires_and_persists_until_healed():
    plan = FaultPlan(
        seed=7, rules=[FaultRule(site=NET_PARTITION, at_events=(0,))]
    )
    env, cluster = make_cluster(plan=plan, retransmit_timeout_ns=100_000)
    connect_stacks(cluster)
    send_proc, recv_proc, outcome = ping(env, cluster, payload=b"part")
    env.run(until=300_000.0)
    # Severed bidirectionally, still retrying, nothing delivered.
    assert cluster.switch.partitions_created == 1
    assert cluster.switch.is_partitioned(cluster[0].mac, cluster[1].mac)
    assert "msg" not in outcome
    assert cluster.switch.heal_all_partitions() == 1
    env.run(AllOf(env, [send_proc, recv_proc]))
    env.run()
    assert outcome["msg"] == b"part"
    assert not cluster.switch.is_partitioned(cluster[0].mac, cluster[1].mac)


def test_unarmed_cluster_sites_never_perturb_a_run():
    plan = FaultPlan(seed=9)  # armed injector, empty plan
    env, cluster = make_cluster(plan=plan)
    connect_stacks(cluster)
    send_proc, recv_proc, outcome = ping(env, cluster)
    env.run(AllOf(env, [send_proc, recv_proc]))
    env.run()
    assert outcome["msg"] == b"ping"
    assert cluster.switch.crashes == 0
    assert cluster.switch.link_flaps == 0
    assert cluster.switch.partitions_created == 0


# -------------------------------------------------------- failure detector


def test_cluster_monitor_requires_rdma_service():
    env = Environment()
    cluster = FpgaCluster(env, 2, services=ServiceConfig(en_memory=True))
    with pytest.raises(ValueError, match="no RDMA service"):
        ClusterMonitor(cluster)


def test_cluster_monitor_detects_crash_and_restore():
    env, cluster = make_cluster(3)
    monitor = ClusterMonitor(
        cluster, ClusterHealthConfig(interval_ns=50_000.0)
    )
    env.run(until=200_000.0)  # heartbeats flowing, nobody suspected
    assert monitor.down_nodes == []
    assert monitor.heartbeats_received > 0
    cluster.crash_node(1)
    env.run(until=1_500_000.0)
    assert monitor.down_nodes == [1]
    kinds = [kind for _, kind, node, _reason in monitor.events if node == 1]
    assert kinds == ["node_crashed", "node_down"]
    cluster.restore_node(1)
    env.run(until=3_000_000.0)
    assert monitor.down_nodes == []
    kinds = [kind for _, kind, node, _reason in monitor.events if node == 1]
    assert kinds == ["node_crashed", "node_down", "node_restored", "node_up"]
    reasons = {
        kind: reason for _, kind, node, reason in monitor.events if node == 1
    }
    assert reasons["node_crashed"] == "crash"
    assert reasons["node_restored"] == "restore"
    assert monitor.rearms >= 2  # restore re-armed both heartbeat pairs
    monitor.stop()
    env.run()  # every loop parks or exits: the sim must drain


def test_health_section_gains_a_cluster_key():
    env, cluster = make_cluster(2)
    monitor = ClusterMonitor(cluster, ClusterHealthConfig(interval_ns=50_000.0))
    env.run(until=200_000.0)
    section = health_section(cluster[0].driver)
    assert section["cluster"]["nodes"] == 2
    assert section["cluster"]["down"] == []
    assert section["cluster"]["heartbeats_sent"] > 0
    # Nodes without a monitor attached report the card-only shape.
    bare_env, bare_cluster = make_cluster(2)
    assert "cluster" not in health_section(bare_cluster[0].driver)
    monitor.stop()
    env.run()


def test_cluster_telemetry_delta_skips_idle_nodes():
    env, cluster = make_cluster(3)
    telemetry = ClusterTelemetry(cluster)
    telemetry.snapshot()
    assert telemetry.node_rescans == 3  # cold: everything collected
    telemetry.snapshot()
    assert telemetry.node_skips == 3  # idle: every fingerprint unchanged
    connect_stacks(cluster)
    send_proc, recv_proc, outcome = ping(env, cluster)
    env.run(AllOf(env, [send_proc, recv_proc]))
    snap = telemetry.snapshot()
    # Traffic moved two nodes' fingerprints; the idle third is reused.
    assert telemetry.node_rescans == 5
    assert telemetry.node_skips == 4
    assert snap.counter("net.rdma_tx_packets").value > 0


def test_monitor_poll_refreshes_attached_telemetry():
    env, cluster = make_cluster(2)
    telemetry = ClusterTelemetry(cluster)
    monitor = ClusterMonitor(
        cluster, ClusterHealthConfig(interval_ns=50_000.0),
        telemetry=telemetry,
    )
    env.run(until=200_000.0)
    assert monitor.last_snapshot is not None
    assert telemetry.refreshes == monitor.polls
    assert monitor.last_snapshot.counter("cluster.heartbeats_sent").value > 0
    monitor.stop()
    env.run()


# ------------------------------------------------------ node-down admission


def test_node_down_rejects_new_work_until_restored():
    env, cluster = make_cluster(2)
    driver = cluster[0].driver
    from repro.api import CThread

    thread = CThread(driver, 0, pid=7)  # registers the pid context

    def alloc():
        buffer = yield from thread.get_mem(4096)
        return buffer

    proc = env.process(alloc())
    env.run(proc)
    read = Slice(vaddr=proc.value.vaddr, length=64)
    cluster.crash_node(0)
    with pytest.raises(NodeDownError) as exc_info:
        driver.post_descriptor(7, 0, read=read)
    assert exc_info.value.node_index == 0
    assert "node 0 is down" in str(exc_info.value)
    cluster.restore_node(0)
    driver.post_descriptor(7, 0, read=read)  # admitted again
    env.run()


def test_node_down_rejects_scheduler_submit_then_replays():
    from repro.api import AppScheduler
    from repro.apps import HllApp
    from repro.synth import (
        BuildFlow,
        LockedShellCheckpoint,
        modules_for_services,
    )

    env, cluster = make_cluster(2)
    driver = cluster[0].driver
    shell = cluster[0].shell
    flow = BuildFlow("u55c")
    checkpoint = LockedShellCheckpoint(
        "u55c", shell.config.services, shell.shell_id,
        sum(m.luts for m in modules_for_services(shell.config.services)),
    )
    scheduler = AppScheduler(driver)
    scheduler.register("hll", flow.app_flow(checkpoint, ["hll"]).bitstream,
                       HllApp)

    def body(app):
        yield env.timeout(1_000.0)
        return "served"

    cluster.crash_node(0)
    with pytest.raises(NodeDownError):
        scheduler.submit("hll", body).send(None)  # rejected at the door
    cluster.restore_node(0)

    def client():
        result = yield from scheduler.submit("hll", body)
        return result

    proc = env.process(client())
    env.run(proc)
    assert proc.value == "served"
    assert scheduler.requests_served == 1


# ------------------------------------------- self-healing collectives (e2e)


def _i32_payload(value, count=12):
    return int(value).to_bytes(4, "little") * count


def run_failover():
    """The acceptance scenario; returns everything observable."""
    env = Environment()
    cluster = FpgaCluster(
        env, 4,
        services=ServiceConfig(
            en_memory=True, en_rdma=True,
            rdma=RdmaConfig(retransmit_timeout_ns=50_000),
        ),
    )
    monitor = ClusterMonitor(cluster, ClusterHealthConfig(interval_ns=50_000.0))
    group = cluster.collective_group(timeout_ns=5_000_000.0)
    record = {}

    def round_of(grp, count, tag):
        results, errors = {}, {}

        def member(rank):
            try:
                results[rank] = yield from grp.allreduce(
                    _i32_payload(rank + 1), rank=rank
                )
            except CollectiveAbortError as exc:
                errors[rank] = exc

        procs = [env.process(member(r)) for r in range(count)]
        env.run(AllOf(env, procs))
        record[f"{tag}_results"] = sorted(
            (rank, data) for rank, data in results.items()
        )
        record[f"{tag}_errors"] = sorted(
            (rank, str(exc)) for rank, exc in errors.items()
        )
        return results, errors

    # Round 1: all four ranks, clean.
    results, errors = round_of(group, 4, "clean")
    assert not errors
    assert all(results[r] == _i32_payload(10) for r in range(4))

    # Round 2: node 3 dies mid-collective.
    def killer():
        yield env.timeout(2_000.0)
        cluster.crash_node(3)

    env.process(killer())
    results, errors = round_of(group, 4, "crashed")
    # NCCL-style symmetric abort: every rank raised, none returned.
    assert not results
    assert sorted(errors) == [0, 1, 2, 3]
    assert all(exc.op == "allreduce" for exc in errors.values())

    # A dead communicator stays dead until rebuilt.
    with pytest.raises(CollectiveAbortError):
        group.allreduce(_i32_payload(1), rank=0).send(None)

    # Rebuild over the survivors and retry: 1 + 2 + 3 = 6 per element.
    group = group.rebuild([0, 1, 2])
    results, errors = round_of(group, 3, "rebuilt")
    assert not errors
    assert all(results[r] == _i32_payload(6) for r in range(3))
    assert group.stats["aborts"] >= 1
    assert group.stats["rebuilds"] == 1

    env.run(until=env.now + 1_000_000.0)
    record["down"] = list(monitor.down_nodes)
    record["monitor_events"] = [
        (time, kind, node, reason) for time, kind, node, reason in monitor.events
    ]
    monitor.stop()
    env.run()  # symmetric abort proven the hard way: the sim drains
    record["switch"] = sorted(cluster.switch.counters().items())
    record["stats"] = sorted(group.stats.items())
    record["end_ns"] = env.now
    return record


def test_crash_mid_allreduce_aborts_symmetrically_then_rebuilds():
    record = run_failover()
    assert record["clean_errors"] == []
    assert len(record["crashed_errors"]) == 4
    assert record["rebuilt_errors"] == []
    assert record["down"] == [3]  # the detector saw the crash too


def test_failover_is_deterministic_under_sanitizer(monkeypatch):
    from repro.analysis import SimSanitizer
    from repro.analysis.sanitizer import activate, current, deactivate

    def digest(record):
        return hashlib.sha256(
            repr(sorted(record.items())).encode()
        ).hexdigest()

    previous = current()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitizer = activate(SimSanitizer())
    try:
        digests = []
        for _ in range(2):
            sanitizer.reset()
            digests.append(digest(run_failover()))
            assert sanitizer.violations == [], sanitizer.report()
        assert digests[0] == digests[1]
    finally:
        if previous is not None:
            activate(previous)
        else:
            deactivate()


def run_chaos_scenario(site, at_event):
    """Seeded cluster chaos through the fault injector: abort, heal,
    rebuild, retry until a round completes.  Returns the observables."""
    env = Environment()
    cluster = FpgaCluster(
        env, 4,
        services=ServiceConfig(
            en_memory=True, en_rdma=True,
            rdma=RdmaConfig(retransmit_timeout_ns=50_000),
        ),
    )
    plan = FaultPlan(seed=11, rules=[FaultRule(site=site, at_events=(at_event,))])
    FaultInjector(plan).arm_cluster(cluster)
    monitor = ClusterMonitor(cluster, ClusterHealthConfig(interval_ns=50_000.0))
    group = cluster.collective_group(timeout_ns=2_000_000.0)
    members = list(range(4))
    record = {"rounds": []}

    for _ in range(6):
        n = len(members)
        results, errors = {}, {}

        def member(rank):
            try:
                results[rank] = yield from group.allreduce(
                    _i32_payload(rank + 1), rank=rank
                )
            except CollectiveAbortError as exc:
                errors[rank] = exc

        procs = [env.process(member(r)) for r in range(n)]
        env.run(AllOf(env, procs))
        record["rounds"].append(
            (n, sorted(results), sorted((r, str(e)) for r, e in errors.items()))
        )
        if not errors:
            expected = _i32_payload(n * (n + 1) // 2)
            assert all(results[r] == expected for r in range(n))
            break
        assert len(errors) == n and not results, "asymmetric abort"
        cluster.switch.heal_all_partitions()
        survivors = [m for m in members if cluster.nodes[m].alive]
        assert len(survivors) >= 2
        group = group.rebuild([members.index(m) for m in survivors])
        members = survivors
    else:
        raise AssertionError("no allreduce round ever completed")

    monitor.stop()
    env.run()
    record["members"] = list(members)
    record["switch"] = sorted(cluster.switch.counters().items())
    record["down"] = list(monitor.down_nodes)
    record["end_ns"] = env.now
    return record


@pytest.mark.parametrize("site,at_event", [
    (NODE_CRASH, 40),
    (NET_PARTITION, 25),
    (LINK_FLAP, 10),
])
def test_cluster_chaos_deterministic_under_sanitizer(monkeypatch, site, at_event):
    """Satellite acceptance: crash / partition-then-heal / link flap, each
    double-run byte-identical with the sanitizer watching."""
    from repro.analysis import SimSanitizer
    from repro.analysis.sanitizer import activate, current, deactivate

    def digest(record):
        return hashlib.sha256(
            repr(sorted(record.items())).encode()
        ).hexdigest()

    previous = current()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitizer = activate(SimSanitizer())
    try:
        digests = []
        for _ in range(2):
            sanitizer.reset()
            digests.append(digest(run_chaos_scenario(site, at_event)))
            assert sanitizer.violations == [], sanitizer.report()
        assert digests[0] == digests[1]
    finally:
        if previous is not None:
            activate(previous)
        else:
            deactivate()
