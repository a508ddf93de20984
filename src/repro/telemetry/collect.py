"""Harvest one card's live hardware counters into a MetricsRegistry.

Every hardware model keeps plain integer counters on itself (the same
pattern the fault subsystem uses) so the hot paths never pay for metric
plumbing; this module is the read side that folds them into the canonical
``domain.metric`` namespace.  ``card_report()`` calls it to populate the
report's ``telemetry`` section, and a cluster can ``merge()`` the
per-node registries for a fabric-wide view.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .metrics import MetricsRegistry

__all__ = ["collect_card_metrics", "collect_cluster_metrics", "ClusterTelemetry"]


def _set_counter(registry: MetricsRegistry, name: str, value: int) -> None:
    counter = registry.counter(name)
    counter.value = int(value)


def collect_card_metrics(driver, registry: MetricsRegistry = None) -> MetricsRegistry:
    """Snapshot one driver/shell pair into (a fresh or given) registry."""
    reg = registry if registry is not None else MetricsRegistry()
    shell = driver.shell
    env = driver.env
    xdma = shell.static.xdma
    link = xdma.link

    # -- sim: the engine itself ------------------------------------------
    _set_counter(reg, "sim.events_processed", env.events_processed)
    queue = reg.gauge("sim.event_queue")
    queue.set(len(env._queue))
    queue.high_water = max(queue.high_water, env.queue_high_water)
    requests_served = sum(s.requests_served for s in driver.schedulers)
    if requests_served:
        reg.gauge("sim.events_per_request").set(
            env.events_processed / requests_served
        )
    if env.profiler is not None:
        # Wall-clock throughput is only knowable while a SimProfiler is
        # attached; report-only (DET001-waived inside the profiler).
        reg.gauge("sim.events_per_sec").set(env.profiler.events_per_sec)
    if env.sanitizer is not None:
        # Orphaned waiters visible right now (stuck-at-drain ledger) —
        # only knowable while the SimSanitizer tracks processes, so the
        # gauge appears exactly when REPRO_SANITIZE runs do.
        reg.gauge("sim.stuck_at_drain").set(len(env.sanitizer.stuck_ledger(env)))

    # -- pcie: link + XDMA channel groups --------------------------------
    _set_counter(reg, "pcie.h2c_bytes", link.h2c_bytes)
    _set_counter(reg, "pcie.c2h_bytes", link.c2h_bytes)
    _set_counter(reg, "pcie.h2c_transfers", link.h2c_transfers)
    _set_counter(reg, "pcie.c2h_transfers", link.c2h_transfers)
    _set_counter(reg, "pcie.replays", link.replays)
    for direction in ("h2c", "c2h"):
        gauge = reg.gauge(f"pcie.{direction}_in_flight")
        gauge.set(link.in_flight(direction))
        gauge.high_water = max(gauge.high_water, link.in_flight_high_water[direction])
    _set_counter(reg, "pcie.migrated_bytes", xdma.migration_bytes)
    _set_counter(reg, "pcie.interrupts_raised", xdma.interrupts_raised)
    _set_counter(reg, "pcie.interrupts_lost", xdma.interrupts_lost)

    # -- mem: HBM + TLB + driver paging ----------------------------------
    hbm = shell.dynamic.hbm
    if hbm is not None:
        _set_counter(reg, "mem.hbm_bytes_read", hbm.bytes_read)
        _set_counter(reg, "mem.hbm_bytes_written", hbm.bytes_written)
        _set_counter(reg, "mem.hbm_channel_accesses", sum(hbm.channel_accesses))
        busiest = reg.gauge("mem.hbm_busiest_channel_accesses")
        busiest.set(max(hbm.channel_accesses, default=0))
        _set_counter(reg, "mem.hbm_ecc_corrected", hbm.ecc_corrected)
        _set_counter(reg, "mem.hbm_ecc_uncorrected", hbm.ecc_uncorrected)
    tlb_hits = tlb_misses = tlb_evictions = 0
    for mmu in shell.dynamic.mmus.values():
        tlb_hits += mmu.tlb.hits
        tlb_misses += mmu.tlb.misses
        tlb_evictions += mmu.tlb.evictions
    _set_counter(reg, "mem.tlb_hits", tlb_hits)
    _set_counter(reg, "mem.tlb_misses", tlb_misses)
    _set_counter(reg, "mem.tlb_evictions", tlb_evictions)
    _set_counter(reg, "mem.page_faults", driver.page_faults)
    _set_counter(reg, "mem.tlb_walks", driver.tlb_walks)
    _set_counter(reg, "mem.migrated_bytes", driver.migrated_bytes)
    _set_counter(
        reg,
        "mem.tlb_pinned_evictions",
        sum(m.tlb.pinned_evictions for m in shell.dynamic.mmus.values()),
    )
    reg.gauge("mem.tlb_pinned").set(
        sum(m.tlb.pinned_occupancy for m in shell.dynamic.mmus.values())
    )

    # -- ring: the descriptor-ring command path --------------------------
    _set_counter(reg, "ring.doorbells", driver.ring_doorbells)
    _set_counter(reg, "ring.doorbells_lost", driver.ring_doorbells_lost)
    _set_counter(reg, "ring.descriptors", driver.ring_descriptors)
    _set_counter(reg, "ring.batches", driver.ring_batches)
    _set_counter(reg, "ring.full_stalls", driver.ring_full_stalls)
    _set_counter(reg, "ring.mr_registered", driver.mrs_registered)
    _set_counter(reg, "ring.mr_deregistered", driver.mrs_deregistered)
    if driver.ring_doorbells:
        reg.gauge("ring.descriptors_per_doorbell").set(
            driver.ring_descriptors / driver.ring_doorbells
        )

    # -- net: RDMA / TCP stacks (joins the PR 1 fault counters) ----------
    rdma = shell.dynamic.rdma
    if rdma is not None:
        for key, value in rdma.stats.items():
            _set_counter(reg, f"net.rdma_{key}", value)
        for qpn in sorted(rdma.qp_stats):
            per_qp = rdma.qp_stats[qpn]
            _set_counter(reg, f"net.qp.{qpn}.ops", per_qp["ops"])
            _set_counter(reg, f"net.qp.{qpn}.bytes", per_qp["bytes"])
        # DCQCN reaction-point state: the per-QP paced rate (Gbit/s) and
        # the CNPs that shaped it.
        for qpn in sorted(rdma.qp_rates):
            state = rdma.qp_rates[qpn]
            reg.gauge(f"net.qp.{qpn}.rate_gbps").set(state.current_rate * 8.0)
            _set_counter(reg, f"net.qp.{qpn}.cnps", state.cnps)
    tcp = shell.dynamic.tcp
    if tcp is not None:
        for key, value in tcp.stats.items():
            _set_counter(reg, f"net.tcp_{key}", value)

    # -- scheduler: every AppScheduler attached to this driver -----------
    for scheduler in driver.schedulers:
        scheduler.export_metrics(reg)

    # -- health: watchdog verdicts + recovery pipeline -------------------
    monitor = driver.health
    if monitor is not None:
        _set_counter(reg, "health.polls", monitor.polls)
        _set_counter(reg, "health.hung_verdicts", monitor.hung_verdicts)
        _set_counter(
            reg,
            "health.watchdog_trips",
            sum(w.trips for w in monitor._watchdogs.values()),
        )
    recovery = driver.recovery
    if recovery is not None:
        _set_counter(reg, "health.recoveries", recovery.total_recoveries())
        _set_counter(reg, "health.quarantines", recovery.quarantines)
        _set_counter(reg, "health.completions_failed", recovery.completions_failed)
        _set_counter(reg, "health.descriptors_dropped", recovery.descriptors_dropped)
        _set_counter(reg, "health.tlb_entries_flushed", recovery.tlb_entries_flushed)

    return reg


def _collect_fabric(reg: MetricsRegistry, cluster) -> None:
    """Fabric-scope metrics shared by the full and incremental roll-ups:
    switch counters plus the cluster fault-tolerance layer."""
    switch = cluster.switch
    _set_counter(reg, "net.switch_forwarded", switch.forwarded)
    _set_counter(reg, "net.switch_dropped", switch.dropped)
    _set_counter(reg, "net.switch_corrupted", switch.corrupted)
    _set_counter(reg, "net.switch_duplicated", switch.duplicated)
    _set_counter(reg, "net.switch_reordered", switch.reordered)
    _set_counter(reg, "net.switch_unroutable", switch.unroutable)
    _set_counter(reg, "net.switch_crashes", getattr(switch, "crashes", 0))
    _set_counter(reg, "net.switch_link_flaps", getattr(switch, "link_flaps", 0))
    _set_counter(
        reg, "net.switch_partitions", getattr(switch, "partitions_created", 0)
    )
    # Congestion datapath: queueing, ECN marking, PFC, storm watchdog.
    _set_counter(reg, "net.switch_tail_drops", getattr(switch, "tail_drops", 0))
    _set_counter(reg, "net.switch_ecn_marks", getattr(switch, "ecn_marks", 0))
    _set_counter(
        reg, "net.switch_ecn_suppressed", getattr(switch, "ecn_suppressed", 0)
    )
    _set_counter(
        reg, "net.switch_pause_frames_sent", getattr(switch, "pause_frames_sent", 0)
    )
    _set_counter(
        reg,
        "net.switch_pause_frames_received",
        getattr(switch, "pause_frames_received", 0),
    )
    _set_counter(
        reg,
        "net.switch_pause_frames_dropped",
        getattr(switch, "pause_frames_dropped", 0),
    )
    _set_counter(reg, "net.switch_pfc_storms", getattr(switch, "pfc_storms", 0))
    egress_ports = getattr(switch, "egress_ports", None)
    if egress_ports is not None:
        for index, (label, port) in enumerate(egress_ports()):
            depth = reg.gauge(f"net.port.{index}.queue_bytes")
            depth.set(port.queued_bytes)
            depth.high_water = max(depth.high_water, port.queue_high_water)
    _set_counter(reg, "cluster.node_crashes", getattr(cluster, "crashes", 0))
    _set_counter(reg, "cluster.node_restores", getattr(cluster, "restores", 0))
    _set_counter(reg, "cluster.node_drains", getattr(cluster, "drains", 0))
    _set_counter(reg, "cluster.node_upgrades", getattr(cluster, "upgrades", 0))
    _set_counter(
        reg, "cluster.tenant_migrations", getattr(cluster, "migrations", 0)
    )
    migrator = getattr(cluster, "migrator", None)
    if migrator is not None:
        migrator.export_metrics(reg)
    nodes_alive = reg.gauge("cluster.nodes_alive")
    nodes_alive.set(sum(1 for node in cluster.nodes if getattr(node, "alive", True)))
    monitor = getattr(cluster, "monitor", None)
    if monitor is not None:
        monitor.export_metrics(reg)
    seen_stats = []
    for group in getattr(cluster, "collective_groups", []):
        # Rebuilt groups share their predecessor's lifetime stats dict;
        # count each communicator lineage once.
        if any(group.stats is stats for stats in seen_stats):
            continue
        seen_stats.append(group.stats)
        group.export_metrics(reg)


def collect_cluster_metrics(cluster) -> MetricsRegistry:
    """Fabric-wide roll-up: merge every node's registry, add the switch."""
    reg = MetricsRegistry()
    for node in cluster.nodes:
        reg.merge(collect_card_metrics(node.driver))
    _collect_fabric(reg, cluster)
    return reg


class ClusterTelemetry:
    """Incremental cluster snapshots for monitoring loops.

    A monitoring tick over a big cluster must not rescan every node's QP
    dicts when nothing moved.  Each node gets a cheap *fingerprint* — a
    tuple of its busiest plain-int counters — and its full registry is
    re-collected only when the fingerprint changed since the last
    snapshot; unchanged nodes reuse the cached registry (their
    env-global ``sim.*`` values go stale until the next change, by
    design).  Fabric-scope metrics (switch, cluster health, collectives)
    are cheap and always fresh.  :class:`repro.health.ClusterMonitor` is
    the first consumer.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self._node_regs: Dict[int, MetricsRegistry] = {}
        self._fingerprints: Dict[int, Tuple] = {}
        self.refreshes = 0
        self.node_rescans = 0
        self.node_skips = 0

    @staticmethod
    def _fingerprint(node) -> Tuple:
        driver = node.driver
        shell = driver.shell
        link = shell.static.xdma.link
        rdma = shell.dynamic.rdma
        tx = rx = flushes = 0
        if rdma is not None:
            tx = rdma.stats["tx_packets"]
            rx = rdma.stats["rx_packets"]
            flushes = rdma.stats["wr_flushes"]
        sched = 0
        for scheduler in driver.schedulers:
            sched += (
                scheduler.requests_served
                + scheduler.reconfigurations
                + scheduler.rejected_submits
            )
        return (
            tx,
            rx,
            flushes,
            link.h2c_bytes,
            link.c2h_bytes,
            driver.page_faults,
            driver.node_down,
            sched,
        )

    def snapshot(self) -> MetricsRegistry:
        """Delta-aware :func:`collect_cluster_metrics` equivalent."""
        self.refreshes += 1
        reg = MetricsRegistry()
        for node in self.cluster.nodes:
            fingerprint = self._fingerprint(node)
            cached = self._node_regs.get(node.index)
            if cached is None or fingerprint != self._fingerprints.get(node.index):
                cached = collect_card_metrics(node.driver)
                self._node_regs[node.index] = cached
                self._fingerprints[node.index] = fingerprint
                self.node_rescans += 1
            else:
                self.node_skips += 1
            reg.merge(cached)
        _collect_fabric(reg, self.cluster)
        return reg
