"""Unit tests for the PCIe link and XDMA bridge."""

import pytest

from repro.pcie import MsiVector, PcieLink, PcieLinkConfig, Xdma, XdmaConfig
from repro.sim import Environment


def test_link_transfer_time_matches_bandwidth():
    env = Environment()
    link = PcieLink(env, PcieLinkConfig(h2c_bandwidth=12.0, descriptor_overhead_ns=0))

    def proc():
        yield from link.h2c(12_000)  # 12 KB at 12 B/ns = 1000 ns
        return env.now

    assert env.run(env.process(proc())) == pytest.approx(1000)


def test_link_directions_are_independent():
    env = Environment()
    link = PcieLink(env, PcieLinkConfig(descriptor_overhead_ns=0))
    done = {}

    def h2c():
        yield from link.h2c(120_000)
        done["h2c"] = env.now

    def c2h():
        yield from link.c2h(120_000)
        done["c2h"] = env.now

    env.process(h2c())
    env.process(c2h())
    env.run()
    # Full duplex: both finish at the single-transfer time.
    assert done["h2c"] == pytest.approx(done["c2h"])
    assert done["h2c"] == pytest.approx(10_000)


def test_link_same_direction_serialises():
    env = Environment()
    link = PcieLink(env, PcieLinkConfig(descriptor_overhead_ns=0))
    done = []

    def xfer():
        yield from link.h2c(120_000)
        done.append(env.now)

    env.process(xfer())
    env.process(xfer())
    env.run()
    assert done == [pytest.approx(10_000), pytest.approx(20_000)]


def test_descriptor_overhead_added():
    env = Environment()
    link = PcieLink(env, PcieLinkConfig(h2c_bandwidth=12.0, descriptor_overhead_ns=350))

    def proc():
        yield from link.h2c(1200)
        return env.now

    assert env.run(env.process(proc())) == pytest.approx(100 + 350)


def test_xdma_host_memory_roundtrip():
    env = Environment()
    xdma = Xdma(env, XdmaConfig(host_memory_bytes=1 << 20))

    def proc():
        xdma.host_mem.write(0x1000, b"payload")
        data = yield from xdma.read_host(0x1000, 7)
        yield from xdma.write_host(0x2000, data + b"!")
        return xdma.host_mem.read(0x2000, 8)

    assert env.run(env.process(proc())) == b"payload!"


def test_xdma_interrupt_delivery():
    env = Environment()
    xdma = Xdma(env, XdmaConfig(host_memory_bytes=1 << 20))
    seen = []
    xdma.on_interrupt(MsiVector.USER, lambda value: seen.append((env.now, value)))

    def proc():
        yield from xdma.raise_msix(MsiVector.USER, value=42)

    env.run(env.process(proc()))
    assert len(seen) == 1
    assert seen[0][1] == 42
    assert seen[0][0] > 0  # latency charged


def test_xdma_interrupt_vector_isolation():
    env = Environment()
    xdma = Xdma(env, XdmaConfig(host_memory_bytes=1 << 20))
    seen = []
    xdma.on_interrupt(MsiVector.PAGE_FAULT, lambda v: seen.append(("pf", v)))
    xdma.on_interrupt(MsiVector.USER, lambda v: seen.append(("user", v)))

    def proc():
        yield from xdma.raise_msix(MsiVector.PAGE_FAULT, value=1)

    env.run(env.process(proc()))
    assert seen == [("pf", 1)]


def test_xdma_writeback_counters():
    env = Environment()
    xdma = Xdma(env, XdmaConfig(host_memory_bytes=1 << 20))

    def proc():
        yield from xdma.writeback("vfpga0-host-rd")
        yield from xdma.writeback("vfpga0-host-rd")

    env.run(env.process(proc()))
    assert xdma.writebacks["vfpga0-host-rd"].count == 2


def test_xdma_byte_counters():
    env = Environment()
    xdma = Xdma(env, XdmaConfig(host_memory_bytes=1 << 20))

    def proc():
        yield from xdma.read_host(0, 100)
        yield from xdma.write_host(0, b"x" * 50)
        yield from xdma.migrate(1000, to_card=True)

    env.run(env.process(proc()))
    assert xdma.link.h2c_bytes == 1100
    assert xdma.link.c2h_bytes == 50


def test_in_flight_counts_queued_transfers_and_falls_as_they_end():
    env = Environment()
    link = PcieLink(env, PcieLinkConfig(descriptor_overhead_ns=0))
    samples = []

    def xfer():
        yield from link.h2c(12_000)  # 1000 ns each at 12 B/ns

    def probe():
        for t in (0.5, 999.0, 1500.0, 2500.0, 3000.0):
            yield env.timeout(t - env.now)
            samples.append(link.in_flight("h2c"))

    for _ in range(3):
        env.process(xfer())
    env.process(probe())
    env.run()
    assert samples == [3, 3, 2, 1, 0]
    assert link.in_flight_high_water == {"h2c": 3, "c2h": 0}
    assert link.in_flight("c2h") == 0
