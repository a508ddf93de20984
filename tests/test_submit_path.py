"""Regression tests for the single submit/completion path.

A local ``CThread.invoke`` is a one-op batch on the same completion
router ``post_many`` uses (``ProcessContext.rings``).  These pin the
defects the old per-wr_id waiters and fallback completion stores had:
a leaked read-half completion per transfer, ring batches the health
watchdogs could not see, a half-posted transfer on an empty destination
that later tripped the watchdog, and wr_ids that depended on what else
had run in the same Python process.
"""

import pytest

from repro import (
    CThread,
    Driver,
    Environment,
    LocalSg,
    Oper,
    ServiceConfig,
    SgEntry,
    Shell,
    ShellConfig,
)
from repro.apps import PassThroughApp
from repro.core import MoverConfig
from repro.driver import RingOp, RingOpcode, ZeroLengthDescriptorError
from repro.driver.report import card_report
from repro.faults import (
    APP_HANG,
    RING_DOORBELL_DROP,
    FaultInjector,
    FaultPlan,
    FaultRule,
)
from repro.health import HealthConfig, HealthMonitor, RecoveredError
from repro.sim import Store

#: Fast-reacting config so the tests stay in the microsecond range.
FAST = HealthConfig(
    poll_interval_ns=5_000.0,
    deadline_ns=50_000.0,
    drain_ns=10_000.0,
)


def make_card(monitor=False, plan=None, writeback=True):
    env = Environment()
    services = ServiceConfig(mover=MoverConfig(writeback=writeback))
    shell = Shell(env, ShellConfig(num_vfpgas=1, services=services))
    driver = Driver(env, shell)
    if monitor:
        HealthMonitor(driver, FAST)
    if plan is not None:
        FaultInjector(plan).arm(shell=shell)
    shell.load_app(0, PassThroughApp())
    return env, shell, driver, CThread(driver, 0, pid=1)


def transfer_sg(src, dst, length, dst_len=None):
    return SgEntry(local=LocalSg(
        src_addr=src, src_len=length,
        dst_addr=dst, dst_len=length if dst_len is None else dst_len,
    ))


def test_invoke_transfers_leave_no_completion_behind():
    env, shell, driver, thread = make_card()
    requests, size = 8, 1024

    def main():
        src = yield from thread.get_mem(requests * size)
        dst = yield from thread.get_mem(requests * size)
        for i in range(requests):
            entry = yield from thread.invoke(
                Oper.LOCAL_TRANSFER,
                transfer_sg(src.vaddr + i * size, dst.vaddr + i * size, size),
            )
            assert entry.status == "success"

    env.run(env.process(main()))
    env.run()  # drain trailing events
    ctx = driver.processes[1]
    # Neither the read half nor the write half of any transfer is kept:
    # no store on the context buffers a completion, and the router holds
    # no gate or absorb key.
    assert not any(
        len(value) for value in vars(ctx).values() if isinstance(value, Store)
    )
    assert not ctx.rings._gates and not ctx.rings._absorbed
    assert ctx.rings.batches_completed == ctx.rings.batches_opened == requests


def test_hung_ring_batch_is_recovered_by_the_monitor():
    plan = FaultPlan(seed=11, rules=[FaultRule(
        site=APP_HANG, match=lambda v: v.vfpga_id == 0, at_events=(0,)
    )])
    env, shell, driver, thread = make_card(monitor=True, plan=plan)
    outcome = {}

    def main():
        src = yield from thread.get_mem(4096)
        dst = yield from thread.get_mem(4096)
        thread.setup_rings(slots=4)
        src_mr = yield from thread.register_mr(src.vaddr, 4096, writable=False)
        dst_mr = yield from thread.register_mr(dst.vaddr, 4096)
        try:
            yield from thread.post_many([RingOp(
                opcode=RingOpcode.TRANSFER, mr_key=src_mr.key, length=4096,
                dst_mr_key=dst_mr.key,
            )])
            outcome["result"] = "ok"
        except RecoveredError:
            outcome["result"] = "recovered"

    env.run(env.process(main()))
    env.run()
    assert outcome["result"] == "recovered"
    assert driver.recovery.total_recoveries() == 1
    assert driver.processes[1].rings.outstanding == 0


def test_zero_length_transfer_half_is_rejected_before_the_shell():
    env, shell, driver, thread = make_card(monitor=True)
    outcome = {}

    def main():
        src = yield from thread.get_mem(4096)
        dst = yield from thread.get_mem(4096)
        try:
            yield from thread.invoke(
                Oper.LOCAL_TRANSFER,
                transfer_sg(src.vaddr, dst.vaddr, 4096, dst_len=0),
            )
        except ZeroLengthDescriptorError as exc:
            outcome["error"] = exc
        # The card stays usable and idle: give the watchdog time to look.
        yield env.timeout(20 * FAST.deadline_ns)

    env.run(env.process(main()))
    env.run()
    assert isinstance(outcome["error"], ZeroLengthDescriptorError)
    # Not even the valid read half reached the shell.
    mover = shell.dynamic.host_mover
    assert driver.ring_descriptors == 0
    assert mover.bytes_read == mover.bytes_written == 0
    assert driver.processes[1].rings.outstanding == 0
    health = card_report(driver)["health"]
    assert health["card"] == "healthy"
    assert health["regions"][0]["watchdog_trips"] == 0
    assert driver.recovery.total_recoveries() == 0


def _wr_ids_of_one_run():
    env, shell, driver, thread = make_card()

    def main():
        src = yield from thread.get_mem(3 * 512)
        dst = yield from thread.get_mem(3 * 512)
        ids = []
        for i in range(3):
            entry = yield from thread.invoke(
                Oper.LOCAL_TRANSFER,
                transfer_sg(src.vaddr + i * 512, dst.vaddr + i * 512, 512),
            )
            ids.append(entry.wr_id)
        return ids

    return env.run(env.process(main()))


def test_wr_ids_do_not_depend_on_earlier_simulations():
    assert _wr_ids_of_one_run() == _wr_ids_of_one_run() == [1, 2, 3]


@pytest.mark.parametrize("writeback", [True, False])
def test_timed_out_invoke_cancels_its_gates(writeback):
    """A hung invoke with a deadline returns a timeout entry and leaves
    nothing in flight, in writeback and in polling mode."""
    plan = FaultPlan(seed=3, rules=[FaultRule(
        site=APP_HANG, match=lambda v: v.vfpga_id == 0, at_events=(0,)
    )])
    env, shell, driver, thread = make_card(plan=plan, writeback=writeback)

    def main():
        src = yield from thread.get_mem(4096)
        dst = yield from thread.get_mem(4096)
        return (yield from thread.invoke(
            Oper.LOCAL_TRANSFER, transfer_sg(src.vaddr, dst.vaddr, 4096),
            timeout_ns=50_000.0,
        ))

    entry = env.run(env.process(main()))
    assert entry.status == "timeout" and entry.wr_id == 1
    assert driver.invoke_timeouts == 1
    assert driver.processes[1].rings.outstanding == 0


def _one_transfer(plan=None):
    env, shell, driver, thread = make_card(plan=plan)

    def main():
        src = yield from thread.get_mem(4096)
        dst = yield from thread.get_mem(4096)
        start = env.now
        entry = yield from thread.invoke(
            Oper.LOCAL_TRANSFER, transfer_sg(src.vaddr, dst.vaddr, 4096)
        )
        return entry.timestamp_ns - start, env.now - start

    return driver, env.run(env.process(main()))


def test_invoke_rings_no_doorbell_csr():
    """The invoke ioctl is not a doorbell MMIO write: a doorbell-drop
    fault armed on every event never fires on it, and its latency is the
    same with and without the fault armed."""
    plan = FaultPlan(seed=5, rules=[
        FaultRule(site=RING_DOORBELL_DROP, probability=1.0)
    ])
    clean_driver, clean = _one_transfer()
    armed_driver, armed = _one_transfer(plan)
    assert armed == clean
    assert armed_driver.ring_doorbells_lost == 0
    assert armed_driver.shell.static.xdma.faults.fire_counts.get(
        RING_DOORBELL_DROP, 0
    ) == 0
