"""Checkpoint/restore, live migration and rolling-upgrade tests.

Covers the full `repro.migrate` stack: checkpoint encode/decode
integrity (checksum + version gates), state fidelity across a restore
(memory bytes, MR keys, TLB pins, ring CSRs, CSR replay), the
transfer-drop fault site (retry, then fallback-to-source on
exhaustion), scheduler queue transplantation, node drains and the
rolling-upgrade orchestrator under live traffic, plus the
close-with-work-in-flight driver regression.
"""

import hashlib

import pytest

from repro import CThread, Environment, ServiceConfig
from repro.api import AppScheduler
from repro.apps import AesEcbApp, PassThroughApp
from repro.cluster import FpgaCluster
from repro.driver.errors import ProcessClosedError
from repro.driver.report import card_report
from repro.driver.ringbuf import RingOp, RingOpcode, Slice
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.faults.plan import MIGRATE_TRANSFER_DROP
from repro.health import (
    AdmissionError,
    ClusterHealthConfig,
    ClusterMonitor,
    NodeDownError,
    QuarantinedError,
    RecoveredError,
)
from repro.mem import PAGE_4K, AllocType, MmuConfig, TlbConfig
from repro.migrate import (
    CHECKPOINT_VERSION,
    CheckpointCorruptError,
    CheckpointVersionError,
    LiveMigrator,
    MigratedError,
    TransferAbortedError,
    VfpgaCheckpoint,
    snapshot_tenant,
)
from repro.net import RdmaConfig
from repro.synth import BuildFlow, LockedShellCheckpoint, modules_for_services

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


def make_cluster(env, nodes=2):
    """A cluster with 4K pages (compact checkpoints) and fast RC retry."""
    return FpgaCluster(
        env, nodes,
        services=ServiceConfig(
            en_memory=True, en_rdma=True,
            mmu=MmuConfig(tlb=TlbConfig(page_size=PAGE_4K)),
            rdma=RdmaConfig(retransmit_timeout_ns=50_000),
        ),
    )


def seed_tenant(env, cluster, pid=7, node=0):
    """A cThread with memory, an MR, undrained ring slots and CSR state."""

    def setup():
        thread = CThread(cluster[node].driver, 0, pid=pid)
        buf = yield from thread.get_mem(2 * PAGE_4K, alloc_type=AllocType.REG)
        thread.write_buffer(buf.vaddr, bytes((pid + i) % 256 for i in range(2 * PAGE_4K)))
        thread.setup_rings(8)
        mr = yield from thread.register_mr(buf.vaddr, 2 * PAGE_4K)
        cluster[node].driver.ring_post(
            pid, RingOp(opcode=RingOpcode.READ, mr_key=mr.key, length=PAGE_4K)
        )
        yield from thread.set_csr(0xDEAD, 40)
        yield from thread.set_csr(0xBEEF, 41)
        return thread, buf, mr

    proc = env.process(setup())
    env.run(proc)
    return proc.value


# ----------------------------------------------------------- encoding


def test_checkpoint_roundtrip_preserves_payload():
    env = Environment()
    cluster = make_cluster(env)
    seed_tenant(env, cluster)
    ckpt = snapshot_tenant(cluster[0].driver, 7, src_node=0)
    clone = VfpgaCheckpoint.from_bytes(ckpt.to_bytes())
    assert clone.payload() == ckpt.payload()
    assert clone.sha256() == ckpt.sha256()
    assert clone.ring_slots == 8 and clone.ring_tail - clone.ring_head == 1
    assert clone.csrs[40] == 0xDEAD and clone.csrs[41] == 0xBEEF
    assert len(clone.mrs) == 1 and clone.mrs[0]["num_pages"] == 2
    assert len(clone.memory) == 2  # two 4K pages imaged


def test_checkpoint_rejects_corrupt_checksum_and_magic():
    env = Environment()
    cluster = make_cluster(env)
    seed_tenant(env, cluster)
    blob = bytearray(snapshot_tenant(cluster[0].driver, 7).to_bytes())
    blob[-1] ^= 0xFF  # flip one body byte: checksum must catch it
    with pytest.raises(CheckpointCorruptError):
        VfpgaCheckpoint.from_bytes(bytes(blob))
    with pytest.raises(CheckpointCorruptError):
        VfpgaCheckpoint.from_bytes(b"JUNK" + bytes(blob[4:]))


def test_checkpoint_rejects_version_mismatch():
    env = Environment()
    cluster = make_cluster(env)
    seed_tenant(env, cluster)
    ckpt = snapshot_tenant(cluster[0].driver, 7)
    blob = bytearray(ckpt.to_bytes())
    blob[4:6] = (CHECKPOINT_VERSION + 1).to_bytes(2, "big")
    with pytest.raises(CheckpointVersionError) as err:
        VfpgaCheckpoint.from_bytes(bytes(blob))
    assert err.value.found == CHECKPOINT_VERSION + 1
    payload = ckpt.payload()
    payload["version"] = CHECKPOINT_VERSION + 1
    with pytest.raises(CheckpointVersionError):
        VfpgaCheckpoint.from_payload(payload)


def test_migrated_error_is_a_recovered_error():
    # The scheduler parks interrupted requests only for RecoveredError
    # causes; migration relies on that contract.
    assert issubclass(MigratedError, RecoveredError)


# ------------------------------------------------------------ fidelity


def test_migration_restores_memory_ring_mrs_and_csrs():
    env = Environment()
    cluster = make_cluster(env)
    migrator = LiveMigrator(cluster)
    thread, buf, mr = seed_tenant(env, cluster)
    src_ring = cluster[0].driver.processes[7].rings.cmd
    head, tail = src_ring.head, src_ring.tail
    payload = thread.read_buffer(buf.vaddr, 2 * PAGE_4K)

    def migrate():
        return (yield from migrator.migrate(7, 0, 1))

    proc = env.process(migrate())
    env.run(proc)
    record = proc.value
    assert record.result == "completed"
    assert record.pause_ns > 0
    assert cluster.placements[7] == 1
    assert 7 not in cluster[0].driver.processes

    dst = cluster[1].driver
    attached = CThread.attach(dst, 7)
    assert attached.read_buffer(buf.vaddr, 2 * PAGE_4K) == payload
    ctx = dst.processes[7]
    # Ring CSRs reproduce the source exactly; the undrained op is back.
    assert ctx.rings.cmd.head == head and ctx.rings.cmd.tail == tail
    assert ctx.rings.cmd.occupancy == 1
    # MR key survives and its pages are pinned in the destination TLB.
    restored = ctx.mrs.lookup(mr.key)
    assert (restored.vaddr, restored.length) == (mr.vaddr, mr.length)
    mmu = dst.shell.dynamic.mmus[0]
    entry = mmu.tlb.lookup(buf.vaddr)
    assert entry is not None and entry.pinned
    # CSRs replayed through write hooks.
    vfpga = dst.shell.vfpgas[0]
    assert vfpga.csr_read(40) == 0xDEAD and vfpga.csr_read(41) == 0xBEEF
    # A restored tenant is live: the ring drains on the destination.
    dst.shell.load_app(0, PassThroughApp())

    def drain():
        event = dst.ring_doorbell(7)
        entries = yield event
        return entries

    drained = env.process(drain())
    env.run(drained)
    assert len(drained.value) == 1


def test_fresh_registration_after_restore_avoids_restored_keys():
    env = Environment()
    cluster = make_cluster(env)
    migrator = LiveMigrator(cluster)
    thread, buf, mr = seed_tenant(env, cluster)

    def scenario():
        yield from migrator.migrate(7, 0, 1)
        attached = CThread.attach(cluster[1].driver, 7)
        extra = yield from attached.get_mem(PAGE_4K, alloc_type=AllocType.REG)
        fresh = yield from attached.register_mr(extra.vaddr, PAGE_4K)
        return fresh

    proc = env.process(scenario())
    env.run(proc)
    assert proc.value.key > mr.key  # cursor jumped past restored keys


# -------------------------------------------------------- close regression


def test_close_fails_inflight_ring_batch_with_typed_error():
    """Satellite regression: close() mid-batch must flush, not strand."""
    env = Environment()
    cluster = make_cluster(env)
    driver = cluster[0].driver
    driver.shell.load_app(0, PassThroughApp())
    outcome = {}

    def scenario():
        thread = CThread(driver, 0, pid=3)
        buf = yield from thread.get_mem(PAGE_4K, alloc_type=AllocType.REG)
        thread.setup_rings(4)
        mr = yield from thread.register_mr(buf.vaddr, PAGE_4K)
        driver.ring_post(3, RingOp(opcode=RingOpcode.READ, mr_key=mr.key, length=PAGE_4K))
        event = driver.ring_doorbell(3)
        driver.close(3, reason="test teardown")
        try:
            yield event
        except ProcessClosedError as exc:
            outcome["error"] = exc

    env.run(env.process(scenario()))
    assert isinstance(outcome.get("error"), ProcessClosedError)
    assert outcome["error"].pid == 3
    assert "test teardown" in str(outcome["error"])
    assert 3 not in driver.processes


def test_close_fails_pending_waiters_and_unpins_mr_pages():
    env = Environment()
    cluster = make_cluster(env)
    driver = cluster[0].driver
    failures = []

    def scenario():
        thread = CThread(driver, 0, pid=4)
        buf = yield from thread.get_mem(PAGE_4K, alloc_type=AllocType.REG)
        yield from thread.register_mr(buf.vaddr, PAGE_4K)
        # A write half with no kernel output behind it stays in flight.
        batch = driver.post_descriptor(4, 0, write=Slice(buf.vaddr, PAGE_4K))
        assert driver.processes[4].rings.outstanding == 1
        driver.close(4)
        try:
            yield batch.event
        except ProcessClosedError as exc:
            failures.append(exc)

    env.run(env.process(scenario()))
    assert len(failures) == 1
    assert driver.mrs_deregistered == 1  # close retired the MTT entry


# ----------------------------------------------------------- transfer faults


def test_transfer_drop_is_retried_until_success():
    env = Environment()
    cluster = make_cluster(env)
    FaultInjector(
        FaultPlan(seed=5, rules=[
            FaultRule(site=MIGRATE_TRANSFER_DROP, probability=0.25),
        ])
    ).arm_cluster(cluster)
    migrator = LiveMigrator(cluster)
    seed_tenant(env, cluster)

    proc = env.process(migrator.migrate(7, 0, 1))
    env.run(proc)
    assert proc.value.result == "completed"
    assert migrator.stats["transfer_drops"] >= 1
    assert migrator.stats["chunk_retries"] >= migrator.stats["transfer_drops"]
    assert cluster.placements[7] == 1


def test_transfer_exhaustion_falls_back_to_source():
    """migrate.transfer_drop at p=1.0: retries exhaust, the tenant must
    come back to life on the source — never wedged, never half-moved."""
    env = Environment()
    cluster = make_cluster(env)
    FaultInjector(
        FaultPlan(seed=1, rules=[
            FaultRule(site=MIGRATE_TRANSFER_DROP, probability=1.0),
        ])
    ).arm_cluster(cluster)
    migrator = LiveMigrator(cluster)
    thread, buf, _ = seed_tenant(env, cluster)
    payload = thread.read_buffer(buf.vaddr, PAGE_4K)
    outcome = {}

    def scenario():
        try:
            yield from migrator.migrate(7, 0, 1)
        except TransferAbortedError as exc:
            outcome["abort"] = exc

    env.run(env.process(scenario()))
    assert "abort" in outcome
    assert 7 in cluster[0].driver.processes  # still home
    assert 7 not in cluster[1].driver.processes  # no ghost on the target
    assert thread.read_buffer(buf.vaddr, PAGE_4K) == payload
    assert migrator.aborted == 1 and migrator.completed == 0
    record = migrator.records[-1]
    assert record.result == "aborted" and record.state == "FAILED"


def test_midstream_abort_resumes_quiesced_source():
    """Force the drop onto the *delta* phase (post-quiesce) via a tag
    match: the source region must restart and serve again."""
    env = Environment()
    cluster = make_cluster(env)
    # Precopy sails through; every stop-and-copy chunk is eaten, so the
    # delta transfer hits retry exhaustion while the source is quiesced.
    FaultInjector(
        FaultPlan(seed=2, rules=[
            FaultRule(site=MIGRATE_TRANSFER_DROP, probability=1.0,
                      match=lambda c: str(c.get("tag", "")).startswith("delta")),
        ])
    ).arm_cluster(cluster)
    migrator = LiveMigrator(cluster)
    thread, buf, _ = seed_tenant(env, cluster)
    outcome = {}

    def scenario():
        try:
            yield from migrator.migrate(7, 0, 1)
        except TransferAbortedError:
            outcome["aborted_after"] = migrator.records[-1].state
        # Fallback-to-source must leave the region serviceable: the
        # tenant's host-visible memory is intact and the driver accepts
        # new work for the pid.
        data = thread.read_buffer(buf.vaddr, PAGE_4K)
        outcome["intact"] = data == bytes((7 + i) % 256 for i in range(PAGE_4K))
        extra = yield from thread.get_mem(PAGE_4K, alloc_type=AllocType.REG)
        outcome["alloc"] = extra.vaddr

    env.run(env.process(scenario()))
    assert outcome["aborted_after"] == "FAILED"
    assert outcome["intact"] and "alloc" in outcome
    record = migrator.records[-1]
    assert record.pause_ns > 0  # the abort happened inside the pause window
    assert migrator.stats["transfer_drops"] > 0


# -------------------------------------------------------------- drains


def make_sched_cluster(env, nodes=4):
    cluster = make_cluster(env, nodes)
    flow = BuildFlow("u55c")
    schedulers = []
    for node in cluster.nodes:
        checkpoint = LockedShellCheckpoint(
            "u55c", node.shell.config.services, node.shell.shell_id,
            sum(m.luts for m in modules_for_services(node.shell.config.services)),
        )
        scheduler = AppScheduler(node.driver)
        scheduler.register(
            "aes", flow.app_flow(checkpoint, ["aes_ecb"]).bitstream,
            AesEcbApp, idempotent=True,
        )
        schedulers.append(scheduler)
    return cluster, schedulers


def test_drain_node_moves_every_tenant():
    env = Environment()
    cluster = make_cluster(env, 3)
    LiveMigrator(cluster)
    seed_tenant(env, cluster, pid=11, node=0)
    seed_tenant(env, cluster, pid=12, node=0)

    proc = env.process(cluster.drain_node(0, reason="planned maintenance"))
    env.run(proc)
    records = proc.value
    assert len(records) == 2
    assert not cluster[0].driver.processes
    # Least-loaded placement spreads the two tenants over the two peers.
    assert {cluster.placements[11], cluster.placements[12]} == {1, 2}
    kinds = [(kind, node, reason) for _, kind, node, reason in cluster.admin_log]
    assert ("node_drain", 0, "planned maintenance") in kinds
    assert cluster.drains == 1 and cluster.migrations == 2


def test_drain_retries_toward_another_destination():
    env = Environment()
    cluster = make_cluster(env, 3)
    migrator = LiveMigrator(cluster)
    seed_tenant(env, cluster, pid=11, node=0)
    # Drop every chunk 0 -> 1 only: the drain must re-route to node 2.
    FaultInjector(
        FaultPlan(seed=0, rules=[
            FaultRule(site=MIGRATE_TRANSFER_DROP, probability=1.0,
                      match=lambda c: c.get("dst") == 1),
        ])
    ).arm_cluster(cluster)

    proc = env.process(cluster.drain_node(0))
    env.run(proc)
    assert cluster.placements[11] == 2
    assert migrator.aborted >= 1 and migrator.completed == 1


def test_queue_transplant_replays_on_destination():
    env = Environment()
    cluster, schedulers = make_sched_cluster(env, 2)
    migrator = LiveMigrator(cluster)
    results = []

    def body(tag):
        def run(app):
            yield env.timeout(1_000.0)
            return tag
        return run

    def client(tag):
        results.append((yield from schedulers[0].submit("aes", body(tag))))

    def admin():
        # Wait out the initial PR so the source is mid-service, then
        # drain the queue (in-flight request included) to node 1.
        yield env.timeout(40_000_000.0)
        for tag in ("q1", "q2", "q3"):
            env.process(client(tag))
        yield env.timeout(500.0)  # requests enqueued, head in flight
        yield from migrator.migrate_queue(0, 1, 0)

    env.run(env.process(admin()))
    env.run()
    assert sorted(results) == ["q1", "q2", "q3"]
    assert schedulers[1].transplanted_in >= 1
    assert schedulers[0].transplanted_out == schedulers[1].transplanted_in
    assert migrator.queue_transplants >= 1


# ------------------------------------------------------ rolling upgrade


def test_rolling_upgrade_under_live_traffic_loses_nothing():
    env = Environment()
    cluster, schedulers = make_sched_cluster(env, 4)
    monitor = ClusterMonitor(cluster, ClusterHealthConfig(interval_ns=50_000.0))
    completed = []

    def body(tag):
        def run(app):
            yield env.timeout(2_000.0)
            return tag
        return run

    def client(cid, count):
        for i in range(count):
            tag = f"c{cid}-r{i}"
            while True:
                live = [s for s in schedulers if not s.driver.node_down]
                target = min(
                    live, key=lambda s: (len(s._queue), s.driver.node_index)
                )
                try:
                    assert (yield from target.submit("aes", body(tag))) == tag
                    completed.append(tag)
                    break
                except (NodeDownError, AdmissionError, QuarantinedError):
                    yield env.timeout(10_000.0)
            yield env.timeout(5_000.0)

    summary = {}

    def admin():
        # Let the first PRs land so every region is warm, then upgrade.
        yield env.timeout(40_000_000.0)
        summary["nodes"] = yield from cluster.rolling_upgrade(reason="fw-2.1")

    for cid in range(6):
        env.process(client(cid, 15))
    env.process(admin())
    env.run(until=300_000_000.0)
    monitor.stop()
    env.run()

    # Exactly-once: nothing lost, nothing duplicated.
    assert len(completed) == 90
    assert len(set(completed)) == 90
    assert [row["node"] for row in summary["nodes"]] == [0, 1, 2, 3]
    assert all(node.shell_version == 1 for node in cluster.nodes)
    assert cluster.upgrades == 4 and cluster.drains == 4

    # Reason-tagged admin events surface in the cluster health section.
    section = card_report(cluster[0].driver)["health"]["cluster"]
    upgraded = [
        event for event in section["events"] if event["kind"] == "node_upgraded"
    ]
    assert len(upgraded) == 4
    assert all(event["reason"].startswith("fw-2.1") for event in upgraded)
    assert all(event["time_ns"] > 0 for event in upgraded)


def test_rolling_upgrade_needs_two_nodes():
    env = Environment()
    cluster = make_cluster(env, 1)
    with pytest.raises(ValueError):
        next(iter(cluster.rolling_upgrade()))


# --------------------------------------------------------- determinism


def _chaos_migration_run(seed=9):
    """One migrate-under-chaos run; returns digestable observables."""
    env = Environment()
    cluster = make_cluster(env)
    FaultInjector(
        FaultPlan(seed=seed, rules=[
            FaultRule(site=MIGRATE_TRANSFER_DROP, probability=0.2),
        ])
    ).arm_cluster(cluster)
    migrator = LiveMigrator(cluster)
    seed_tenant(env, cluster)
    shas = []

    def scenario():
        record = yield from migrator.migrate(7, 0, 1)
        shas.append(record.checkpoint_sha256)
        record = yield from migrator.migrate(7, 1, 0)
        shas.append(record.checkpoint_sha256)

    env.run(env.process(scenario()))
    env.run()
    report = card_report(cluster[0].driver)
    digest = hashlib.sha256(repr((
        shas,
        env.now,
        migrator.stats,
        sorted(report["counters"].items()) if "counters" in report else (),
    )).encode()).hexdigest()
    return shas, digest


def test_chaos_migration_is_deterministic_under_sanitizer(monkeypatch):
    """Same seed, two runs, REPRO_SANITIZE=1: checkpoint hashes and the
    end-state digest must be byte-identical."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    shas_a, digest_a = _chaos_migration_run()
    shas_b, digest_b = _chaos_migration_run()
    assert shas_a == shas_b
    assert digest_a == digest_b
    assert len(shas_a) == 2 and shas_a[0] != shas_a[1]  # round-trip re-keyed


def test_telemetry_exports_migration_metrics():
    env = Environment()
    cluster = make_cluster(env)
    migrator = LiveMigrator(cluster)
    seed_tenant(env, cluster)
    proc = env.process(migrator.migrate(7, 0, 1))
    env.run(proc)

    from repro.telemetry import collect_cluster_metrics

    registry = collect_cluster_metrics(cluster)
    assert registry.counter("migrate.started").value == 1
    assert registry.counter("migrate.completed").value == 1
    assert registry.counter("cluster.tenant_migrations").value == 1
    assert registry.counter("migrate.bytes_sent").value > 0
    hist = registry.histogram("migrate.pause_ns")
    assert hist.count == 1
