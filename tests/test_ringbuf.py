"""Tests for the ring-buffer command path and MR registration (paper §6).

Covers the cmdReqQ/cmdRespQ mechanics (head/tail CSRs, doorbell batch
drain, one completion event per drained batch), the MTT shadow
(register / resolve / deregister with typed errors, TLB pinning with
rollback), the ``ring.doorbell_drop`` fault site, recovery via
``fail_pending``, the zero-length submit regression, and a sanitized
double-run determinism digest of the whole ring path.
"""

import hashlib

import pytest

from repro import CThread, Driver, Environment, Shell, ShellConfig
from repro.apps import PassThroughApp
from repro.driver import (
    CommandRing,
    DriverError,
    MrAccessError,
    MrBoundsError,
    MrError,
    MrKeyError,
    MrOverlapError,
    MrTable,
    RingError,
    RingFullError,
    RingOp,
    RingOpcode,
    Slice,
    ZeroLengthDescriptorError,
)
from repro.faults import RING_DOORBELL_DROP, FaultInjector, FaultPlan, FaultRule
from repro.mem import SegmentationFault
from repro.telemetry import collect_card_metrics


def make_thread(**shell_kw):
    env = Environment()
    shell = Shell(env, ShellConfig(num_vfpgas=1, **shell_kw))
    driver = Driver(env, shell)
    shell.load_app(0, PassThroughApp())
    thread = CThread(driver, 0, pid=1)
    return env, shell, driver, thread


# ------------------------------------------------------------- CommandRing


def test_command_ring_post_drain_head_tail():
    ring = CommandRing(slots=4)
    assert [ring.post(f"op{i}") for i in range(3)] == [0, 1, 2]
    assert ring.occupancy == 3 and ring.free == 1
    assert ring.drain() == ["op0", "op1", "op2"]
    # Head caught up to tail in one step; indices stay monotonic.
    assert ring.head == ring.tail == 3
    assert ring.occupancy == 0
    assert ring.post("op3") == 3
    assert ring.high_water == 3  # deepest occupancy ever reached


def test_command_ring_full_until_drained():
    ring = CommandRing(slots=2)
    ring.post("a")
    ring.post("b")
    with pytest.raises(RingFullError):
        ring.post("c")
    ring.drain()
    assert ring.post("c") == 2  # slots recycle at the doorbell drain


def test_command_ring_rejects_bad_geometry():
    with pytest.raises(RingError):
        CommandRing(slots=0)


# ----------------------------------------------------------------- MrTable


def test_mr_table_register_lookup_deregister():
    mrs = MrTable(pid=7)
    mr = mrs.register(0x1000, 0x2000, writable=False)
    assert mr.key == 1 and mr.pid == 7 and mr.end == 0x3000
    assert mrs.lookup(mr.key) is mr
    assert len(mrs) == 1
    assert mrs.deregister(mr.key) is mr
    with pytest.raises(MrKeyError):
        mrs.lookup(mr.key)
    with pytest.raises(MrKeyError):
        mrs.deregister(mr.key)


def test_mr_table_rejects_overlap_and_bad_args():
    mrs = MrTable(pid=1)
    mrs.register(0x1000, 0x1000)
    with pytest.raises(MrOverlapError):
        mrs.register(0x1800, 0x1000)  # straddles the existing region
    with pytest.raises(MrOverlapError):
        mrs.register(0x0, 0x1001)  # overlaps by one byte
    mrs.register(0x2000, 0x1000)  # adjacent is fine
    with pytest.raises(MrError):
        mrs.register(0x8000, 0)
    with pytest.raises(MrError):
        mrs.register(-1, 0x1000)


def test_mr_resolve_bounds_and_access():
    mrs = MrTable(pid=1)
    ro = mrs.register(0x1000, 0x1000, writable=False)
    assert mrs.resolve(ro.key, 0x100, 0x200, write=False) == 0x1100
    assert mrs.resolve(ro.key, 0, 0x1000, write=False) == 0x1000  # full slice
    with pytest.raises(MrBoundsError):
        mrs.resolve(ro.key, 0x1000, 1, write=False)  # one byte past the end
    with pytest.raises(MrBoundsError):
        mrs.resolve(ro.key, -1, 0x10, write=False)
    with pytest.raises(MrAccessError):
        mrs.resolve(ro.key, 0, 0x10, write=True)  # write via read-only MR
    with pytest.raises(MrKeyError):
        mrs.resolve(99, 0, 1, write=False)


# -------------------------------------------------- driver MR registration


def test_register_mr_pins_tlb_and_deregister_unpins():
    env, shell, driver, thread = make_thread()
    mmu = shell.dynamic.mmus[0]
    page = driver.processes[1].page_table.page_size

    def main():
        alloc = yield from thread.get_mem(2 * page)
        mr = yield from thread.register_mr(alloc.vaddr, 2 * page)
        return alloc, mr

    alloc, mr = env.run(env.process(main()))
    assert mr.num_pages == 2
    assert mmu.tlb.pinned_occupancy == 2
    assert mmu.tlb.lookup(alloc.vaddr).pinned
    assert driver.mrs_registered == 1
    thread.deregister_mr(mr)
    assert mmu.tlb.pinned_occupancy == 0
    assert not mmu.tlb.lookup(alloc.vaddr).pinned  # still resident, unpinned
    assert driver.mrs_deregistered == 1


def test_register_mr_unmapped_page_rolls_back():
    env, shell, driver, thread = make_thread()
    mmu = shell.dynamic.mmus[0]
    page = driver.processes[1].page_table.page_size
    outcome = {}

    def main():
        alloc = yield from thread.get_mem(page)
        try:
            # Second page of the range was never mapped: the walk faults
            # and registration must undo the pins it already took.
            yield from thread.register_mr(alloc.vaddr, 2 * page)
        except SegmentationFault as exc:
            outcome["error"] = exc

    env.run(env.process(main()))
    assert isinstance(outcome["error"], SegmentationFault)
    assert len(driver.processes[1].mrs) == 0
    assert mmu.tlb.pinned_occupancy == 0
    assert driver.mrs_registered == 0


def test_register_mr_charges_per_page_latency():
    env, shell, driver, thread = make_thread()
    page = driver.processes[1].page_table.page_size

    def main():
        alloc = yield from thread.get_mem(3 * page)
        before = env.now
        yield from thread.register_mr(alloc.vaddr, 3 * page)
        return env.now - before

    from repro.driver.driver import MR_REGISTER_LATENCY_PER_PAGE_NS

    elapsed = env.run(env.process(main()))
    assert elapsed == pytest.approx(3 * MR_REGISTER_LATENCY_PER_PAGE_NS)


# ------------------------------------------------------- ring submit path


def test_ring_ops_require_armed_rings():
    env, shell, driver, thread = make_thread()
    op = RingOp(opcode=RingOpcode.READ, mr_key=1, length=64)
    with pytest.raises(RingError, match="rings not armed"):
        driver.ring_post(1, op)
    with pytest.raises(RingError, match="rings not armed"):
        driver.ring_doorbell(1)


def run_ring_transfers(requests=4, slots=8, transfer_bytes=512, plan=None):
    """End-to-end TRANSFER batch through PassThroughApp; returns the
    observable state a determinism digest (or assertions) needs."""
    env, shell, driver, thread = make_thread()
    if plan is not None:
        FaultInjector(plan).arm(shell=shell)
    payload = bytes(range(256)) * (transfer_bytes // 256)
    out = {}

    def main():
        src = yield from thread.get_mem(transfer_bytes * requests)
        dst = yield from thread.get_mem(transfer_bytes * requests)
        for i in range(requests):
            thread.write_buffer(src.vaddr + i * transfer_bytes, payload)
        thread.setup_rings(slots=slots)
        src_mr = yield from thread.register_mr(
            src.vaddr, transfer_bytes * requests, writable=False
        )
        dst_mr = yield from thread.register_mr(dst.vaddr, transfer_bytes * requests)
        ops = [
            RingOp(
                opcode=RingOpcode.TRANSFER,
                mr_key=src_mr.key,
                offset=i * transfer_bytes,
                length=transfer_bytes,
                dst_mr_key=dst_mr.key,
                dst_offset=i * transfer_bytes,
            )
            for i in range(requests)
        ]
        entries = yield from thread.post_many(ops)
        out["entries"] = entries
        out["data_ok"] = all(
            thread.read_buffer(dst.vaddr + i * transfer_bytes, transfer_bytes)
            == payload
            for i in range(requests)
        )
        out["finished_ns"] = env.now

    env.run(env.process(main()))
    return env, shell, driver, thread, out


def test_post_many_end_to_end_single_doorbell():
    requests = 4
    env, shell, driver, thread, out = run_ring_transfers(requests=4, slots=8)
    entries = out["entries"]
    assert len(entries) == requests
    assert out["data_ok"]
    # Completions come back in post order, one batch event for all four.
    assert [e.wr_id for e in entries] == sorted(e.wr_id for e in entries)
    assert all(e.status == "success" and e.pid == 1 for e in entries)
    assert driver.ring_doorbells == 1
    assert driver.ring_batches == 1
    assert driver.ring_descriptors == requests
    assert driver.ring_full_stalls == 0
    rings = driver.processes[1].rings
    assert rings.batches_completed == rings.batches_opened == 1
    assert rings.outstanding == 0
    # TRANSFER read halves were absorbed by the batch: the router keeps
    # no gate and no absorb key once the batch completed.
    assert not rings._gates and not rings._absorbed


def test_post_many_full_ring_stalls_and_re_rings():
    requests, slots = 5, 2
    env, shell, driver, thread, out = run_ring_transfers(requests=requests, slots=slots)
    assert len(out["entries"]) == requests and out["data_ok"]
    # 5 requests through a 2-slot ring: 2 forced early doorbells + final.
    assert driver.ring_full_stalls == 2
    assert driver.ring_doorbells == 3
    assert driver.ring_batches == 3
    assert driver.ring_descriptors == requests


def test_ring_post_zero_length_rejected():
    env, shell, driver, thread = make_thread()

    def main():
        alloc = yield from thread.get_mem(4096)
        thread.setup_rings(slots=4)
        mr = yield from thread.register_mr(alloc.vaddr, 4096)
        return mr

    mr = env.run(env.process(main()))
    with pytest.raises(ZeroLengthDescriptorError):
        driver.ring_post(1, RingOp(opcode=RingOpcode.READ, mr_key=mr.key, length=0))
    with pytest.raises(ZeroLengthDescriptorError):
        driver.ring_post(
            1,
            RingOp(
                opcode=RingOpcode.TRANSFER, mr_key=mr.key, length=64, dst_length=0
            ),
        )
    # Nothing reached the ring; a later doorbell has nothing to drain.
    assert driver.processes[1].rings.cmd.occupancy == 0


def test_post_descriptor_zero_length_rejected():
    """Regression: a zero-length descriptor produces no packets (so no
    completion, so a hang).  The submit path must reject it up front."""
    env, shell, driver, thread = make_thread()
    with pytest.raises(ZeroLengthDescriptorError) as excinfo:
        driver.post_descriptor(1, 0, read=Slice(vaddr=0x1000, length=0))
    assert isinstance(excinfo.value, DriverError)  # typed, catchable as both
    assert driver.ring_descriptors == 0  # rejected before the ring
    assert driver.processes[1].rings.batches_opened == 0


def test_setup_rings_refuses_rearm_with_work_in_flight():
    env, shell, driver, thread = make_thread()

    def main():
        alloc = yield from thread.get_mem(4096)
        thread.setup_rings(slots=4)
        mr = yield from thread.register_mr(alloc.vaddr, 4096)
        driver.ring_post(
            1, RingOp(opcode=RingOpcode.READ, mr_key=mr.key, length=64)
        )
        with pytest.raises(RingError, match="work in flight"):
            thread.setup_rings(slots=8)
        batch = driver.ring_doorbell(1)
        yield batch
        # Quiesced: re-arming (even resizing) is allowed again.
        assert thread.setup_rings(slots=8).cmd.slots == 8

    env.run(env.process(main()))


def test_doorbell_drop_fault_recovers_by_re_ringing():
    plan = FaultPlan(
        seed=3, rules=[FaultRule(site=RING_DOORBELL_DROP, at_events=(0,))]
    )
    env, shell, driver, thread, out = run_ring_transfers(
        requests=3, slots=8, plan=plan
    )
    assert len(out["entries"]) == 3 and out["data_ok"]
    # First MMIO write was eaten; the cThread backed off and re-rang.
    assert driver.ring_doorbells_lost == 1
    assert driver.ring_doorbells == 2
    assert driver.ring_batches == 1  # the dropped doorbell opened no batch
    injector = shell.static.xdma.faults
    assert injector.fire_counts[RING_DOORBELL_DROP] == 1


def test_fail_pending_fails_inflight_ring_batches():
    env, shell, driver, thread = make_thread()
    outcome = {}

    def main():
        alloc = yield from thread.get_mem(4096)
        thread.setup_rings(slots=4)
        mr = yield from thread.register_mr(alloc.vaddr, 4096, writable=False)
        for i in range(2):
            driver.ring_post(
                1,
                RingOp(
                    opcode=RingOpcode.READ, mr_key=mr.key, offset=i * 64, length=64
                ),
            )
        batch = driver.ring_doorbell(1)
        # The region dies before the completions come back.
        outcome["failed"] = driver.fail_pending(0, DriverError("hot reset"))
        try:
            yield batch
        except DriverError as exc:
            outcome["error"] = exc

    env.run(env.process(main()))
    assert outcome["failed"] == 2  # both gated work requests counted
    assert isinstance(outcome["error"], DriverError)
    assert driver.processes[1].rings.outstanding == 0


def test_ring_telemetry_metrics():
    env, shell, driver, thread, out = run_ring_transfers(requests=4, slots=8)
    snap = collect_card_metrics(driver).snapshot()
    ring = snap["ring"]
    assert ring["doorbells"] == 1
    assert ring["descriptors"] == 4
    assert ring["batches"] == 1
    assert ring["full_stalls"] == 0
    assert ring["mr_registered"] == 2
    assert ring["descriptors_per_doorbell"]["value"] == pytest.approx(4.0)
    assert snap["mem"]["tlb_pinned"]["value"] >= 1


def test_ring_path_is_deterministic_under_sanitizer(monkeypatch):
    """Same config, fresh envs: the full ring path (registration, batched
    doorbells, a full-ring stall, completions) digests identically."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")

    def digest():
        env, shell, driver, thread, out = run_ring_transfers(requests=5, slots=2)
        state = {
            "entries": [
                (e.wr_id, e.length, e.status, e.timestamp_ns)
                for e in out["entries"]
            ],
            "data_ok": out["data_ok"],
            "finished_ns": out["finished_ns"],
            "events": env.events_processed,
            "doorbells": driver.ring_doorbells,
            "descriptors": driver.ring_descriptors,
            "stalls": driver.ring_full_stalls,
        }
        return hashlib.sha256(repr(sorted(state.items())).encode()).hexdigest()

    first, second = digest(), digest()
    assert first == second
