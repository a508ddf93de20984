"""Tests for the cluster helper, isolation enforcement and determinism."""

import pytest

from repro import (
    CThread,
    Driver,
    Environment,
    LocalSg,
    Oper,
    RdmaSg,
    ServiceConfig,
    SgEntry,
    Shell,
    ShellConfig,
)
from repro.apps import PassThroughApp
from repro.cluster import FpgaCluster
from repro.driver import DriverError, Slice
from repro.sim import AllOf


# ------------------------------------------------------------------ cluster

def test_cluster_builds_n_nodes():
    env = Environment()
    cluster = FpgaCluster(env, 3)
    assert len(cluster) == 3
    macs = {node.mac for node in cluster.nodes}
    ips = {node.ip for node in cluster.nodes}
    assert len(macs) == 3 and len(ips) == 3


def test_cluster_validation():
    with pytest.raises(ValueError):
        FpgaCluster(Environment(), 0)


def test_cluster_rdma_end_to_end():
    env = Environment()
    cluster = FpgaCluster(env, 2)
    thread_a, thread_b = cluster.connect_qps(0, 1, pid_a=1, pid_b=2, qpn_a=1, qpn_b=2)
    payload = bytes(range(256)) * 64

    def main():
        src = yield from thread_a.get_mem(len(payload))
        dst = yield from thread_b.get_mem(len(payload))
        thread_a.write_buffer(src.vaddr, payload)
        yield from thread_a.invoke(
            Oper.REMOTE_RDMA_WRITE,
            SgEntry(rdma=RdmaSg(local_addr=src.vaddr, remote_addr=dst.vaddr,
                                len=len(payload), qpn=1)),
        )
        return thread_b.read_buffer(dst.vaddr, len(payload))

    assert env.run(env.process(main())) == payload


# ---------------------------------------------------------------- isolation

def test_descriptor_for_foreign_vfpga_rejected():
    env = Environment()
    shell = Shell(env, ShellConfig(num_vfpgas=2))
    driver = Driver(env, shell)
    shell.load_app(0, PassThroughApp())
    shell.load_app(1, PassThroughApp())
    driver.open(1, 0)  # pid 1 owns vFPGA 0
    with pytest.raises(DriverError, match="bound to vFPGA 0"):
        driver.post_descriptor(1, 1, read=Slice(vaddr=0x1000, length=4096))
    assert driver.ring_descriptors == 0


def test_unregistered_pid_rejected():
    env = Environment()
    shell = Shell(env, ShellConfig(num_vfpgas=1))
    driver = Driver(env, shell)
    with pytest.raises(DriverError, match="not registered"):
        driver.post_descriptor(99, 0, read=Slice(vaddr=0x1000, length=4096))


# -------------------------------------------------------------- determinism

def _timed_run(seed_payload: bytes) -> float:
    env = Environment()
    shell = Shell(env, ShellConfig(num_vfpgas=2))
    driver = Driver(env, shell)
    for v in range(2):
        shell.load_app(v, PassThroughApp())

    def client(v):
        ct = CThread(driver, v, pid=10 + v)
        src = yield from ct.get_mem(len(seed_payload))
        dst = yield from ct.get_mem(len(seed_payload))
        ct.write_buffer(src.vaddr, seed_payload)
        sg = SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=len(seed_payload),
                                   dst_addr=dst.vaddr, dst_len=len(seed_payload)))
        yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)

    procs = [env.process(client(v)) for v in range(2)]
    env.run(AllOf(env, procs))
    return env.now


def test_simulation_is_deterministic():
    """Identical workloads produce bit-identical simulated timings."""
    payload = bytes(range(256)) * 128
    assert _timed_run(payload) == _timed_run(payload)
