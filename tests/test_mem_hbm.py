"""Unit tests for the HBM controller model."""

import pytest

from repro.mem import HbmConfig, HbmController
from repro.sim import Environment


def small_config(**kw):
    defaults = dict(num_channels=4, channel_bytes=1 << 20, stripe_bytes=4096)
    defaults.update(kw)
    return HbmConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        HbmConfig(num_channels=0)
    with pytest.raises(ValueError):
        HbmConfig(stripe_bytes=3000)


def test_channel_bandwidth_is_nominal_hbm():
    cfg = HbmConfig()
    # 32 bytes/cycle at 450 MHz = 14.4 GB/s
    assert cfg.channel_bandwidth == pytest.approx(14.4)


def test_striping_maps_consecutive_stripes_to_consecutive_channels():
    env = Environment()
    hbm = HbmController(env, small_config())
    assert hbm.channel_of(0) == 0
    assert hbm.channel_of(4096) == 1
    assert hbm.channel_of(4 * 4096) == 0  # wraps


def test_functional_write_read_roundtrip():
    env = Environment()
    hbm = HbmController(env, small_config())
    payload = bytes(range(256)) * 64  # 16 KB across all 4 channels

    def proc():
        yield from hbm.write(100, payload)
        data = yield from hbm.read(100, len(payload))
        return data

    assert env.run(env.process(proc())) == payload


def test_striped_access_faster_than_single_channel():
    """Reading N bytes striped over 4 channels beats one channel."""
    cfg_striped = small_config()
    cfg_single = small_config(num_channels=1)
    times = {}
    for tag, cfg in [("striped", cfg_striped), ("single", cfg_single)]:
        env = Environment()
        hbm = HbmController(env, cfg)

        def proc(h=hbm, e=env):
            yield from h.read(0, 64 * 1024)
            return e.now

        times[tag] = env.run(env.process(proc()))
    assert times["striped"] < times["single"] / 2


def test_counters():
    env = Environment()
    hbm = HbmController(env, small_config())

    def proc():
        yield from hbm.write(0, b"a" * 1000)
        yield from hbm.read(0, 500)

    env.run(env.process(proc()))
    assert hbm.bytes_written == 1000
    assert hbm.bytes_read == 500


def test_untimed_access():
    env = Environment()
    hbm = HbmController(env, small_config())
    hbm.write_now(42, b"hello")
    assert hbm.read_now(42, 5) == b"hello"


def test_unaligned_request_splits_at_stripe_boundary():
    env = Environment()
    hbm = HbmController(env, small_config())
    stripes = list(hbm._stripes(4000, 200))
    # Crosses the 4096 boundary: 96 bytes on channel 0, 104 on channel 1.
    assert stripes == [(0, 4000, 96), (1, 4096, 104)]


def _stripe_ns(cfg, nbytes):
    cycles = -(-nbytes // cfg.port_width_bytes)
    return cfg.access_latency_ns + cfg.clock.cycles_to_ns(cycles)


def _finish_times(cfg, addrs, nbytes):
    """Finish time of concurrent ``nbytes`` reads issued at t=0."""
    env = Environment()
    hbm = HbmController(env, cfg)
    done = {}

    def reader(addr):
        yield from hbm.read(addr, nbytes)
        done[addr] = env.now

    for addr in addrs:
        env.process(reader(addr))
    env.run()
    return [done[a] for a in addrs]


def test_same_channel_stripes_serialize():
    cfg = small_config()
    one = _stripe_ns(cfg, 4096)
    # Stripes 0, 4 and 8 all map to channel 0: booked back to back.
    ends = _finish_times(cfg, [0, 4 * 4096, 8 * 4096], 4096)
    assert ends == [one, 2 * one, 3 * one]


def test_different_channel_stripes_overlap():
    cfg = small_config()
    one = _stripe_ns(cfg, 4096)
    ends = _finish_times(cfg, [0, 4096, 2 * 4096, 3 * 4096], 4096)
    assert ends == [one] * 4
    # One access spanning all four channels also takes a single stripe time.
    env = Environment()
    hbm = HbmController(env, cfg)
    env.run(env.process(hbm.read(0, 4 * 4096)))
    assert env.now == one
    assert hbm.channel_accesses == [1, 1, 1, 1]


def test_interrupted_access_keeps_its_channel_booked():
    """An issued burst completes on the channel even if its caller is
    interrupted: the next access to that channel queues behind it."""
    from repro.sim import Interrupt

    cfg = small_config()
    one = _stripe_ns(cfg, 4096)
    env = Environment()
    hbm = HbmController(env, cfg)
    log = []

    def victim():
        try:
            yield from hbm.read(0, 4096)
        except Interrupt:
            log.append(("interrupted", env.now))

    def killer(target):
        yield env.timeout(1.0)
        target.interrupt()

    def next_reader():
        yield env.timeout(2.0)
        yield from hbm.read(4 * 4096, 4096)  # channel 0 again
        log.append(("next", env.now))

    env.process(killer(env.process(victim())))
    env.process(next_reader())
    env.run()
    assert log == [("interrupted", 1.0), ("next", 2 * one)]
