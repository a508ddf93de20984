"""Tests for the booked-port primitive and the rate server built on it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt, Resource
from repro.sim.rate import FifoServer, RateServer


def test_single_reservation_duration():
    env = Environment()
    server = RateServer(env, units_per_ns=2.0)

    def proc():
        yield from server.reserve(100)
        return env.now

    assert env.run(env.process(proc())) == pytest.approx(50.0)


def test_back_to_back_reservations_serialize():
    env = Environment()
    server = RateServer(env, units_per_ns=1.0)
    done = []

    def proc(tag, units):
        yield from server.reserve(units)
        done.append((tag, env.now))

    env.process(proc("a", 10))
    env.process(proc("b", 10))
    env.run()
    assert dict(done) == {"a": pytest.approx(10), "b": pytest.approx(20)}


def test_idle_time_is_not_charged():
    env = Environment()
    server = RateServer(env, units_per_ns=1.0)
    done = []

    def early():
        yield from server.reserve(10)
        done.append(env.now)

    def late():
        yield env.timeout(100)  # server idle 90 ns
        yield from server.reserve(10)
        done.append(env.now)

    env.process(early())
    env.process(late())
    env.run()
    assert done == [pytest.approx(10), pytest.approx(110)]


def test_total_units_accounting():
    env = Environment()
    server = RateServer(env, units_per_ns=4.0)

    def proc():
        yield from server.reserve(100)
        yield from server.reserve(50)

    env.run(env.process(proc()))
    assert server.total_units == 150


def test_zero_reservation_is_free():
    env = Environment()
    server = RateServer(env, units_per_ns=1.0)

    def proc():
        yield from server.reserve(0)
        return env.now

    assert env.run(env.process(proc())) == 0


def test_invalid_parameters():
    env = Environment()
    with pytest.raises(ValueError):
        RateServer(env, units_per_ns=0)
    server = RateServer(env, units_per_ns=1.0)

    def proc():
        yield from server.reserve(-1)

    env.process(proc())
    with pytest.raises(ValueError):
        env.run()


@settings(max_examples=30, deadline=None)
@given(units=st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=20))
def test_aggregate_rate_never_exceeded(units):
    """N concurrent reservations finish no earlier than sum(units)/rate."""
    env = Environment()
    rate = 2.0
    server = RateServer(env, units_per_ns=rate)
    finish = []

    def proc(n):
        yield from server.reserve(n)
        finish.append(env.now)

    for n in units:
        env.process(proc(n))
    env.run()
    assert max(finish) == pytest.approx(sum(units) / rate)


# -- FifoServer: conformance with a Resource + timeout hold ----------------


def _reference_holds(arrivals, stations):
    """(start, end) of each hold through ``Resource(stations)`` + timeout:
    the model a booked port replaces."""
    env = Environment()
    port = Resource(env, capacity=stations)
    holds = {}

    def holder(i, at, duration):
        yield env.timeout(at)
        grant = port.request()
        yield grant
        start = env.now
        yield env.timeout(duration)
        port.release(grant)
        holds[i] = (start, env.now)

    for i, (at, duration) in enumerate(arrivals):
        env.process(holder(i, at, duration))
    env.run()
    return holds


def _booked_holds(arrivals, stations):
    """(booked end, wake time) of each hold on a FifoServer."""
    env = Environment()
    port = FifoServer(env, stations)
    holds = {}

    def booker(i, at, duration):
        yield env.timeout(at)
        end = port.book(duration)
        yield env.sleep_until(end)
        holds[i] = (end, env.now)

    for i, (at, duration) in enumerate(arrivals):
        env.process(booker(i, at, duration))
    env.run()
    return holds


@settings(max_examples=60, deadline=None)
@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1_000.0, allow_nan=False),
        min_size=1,
        max_size=16,
        unique=True,
    ),
    durations=st.lists(
        st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
        min_size=16,
        max_size=16,
    ),
    stations=st.sampled_from([1, 2, 4]),
)
def test_booking_matches_resource_timeout_model(times, durations, stations):
    """Same start and end times as FIFO Resource(k) + timeout, exactly."""
    arrivals = list(zip(times, durations))
    reference = _reference_holds(arrivals, stations)
    booked = _booked_holds(arrivals, stations)
    for i, (_at, duration) in enumerate(arrivals):
        start, end = reference[i]
        # The booked end is the reference start plus the same duration,
        # and the booker wakes at exactly the reference release time.
        assert booked[i] == (start + duration, end)


def test_fifo_order_is_call_order():
    env = Environment()
    port = FifoServer(env)
    ends = [port.book(d) for d in (30.0, 10.0, 20.0)]
    assert ends == [30.0, 40.0, 60.0]


def test_stations_serve_in_parallel():
    env = Environment()
    port = FifoServer(env, stations=2)
    ends = [port.book(10.0) for _ in range(5)]
    assert ends == [10.0, 10.0, 20.0, 20.0, 30.0]
    assert port.in_flight == 5
    with pytest.raises(ValueError):
        FifoServer(env, stations=0)


def test_interrupted_booker_keeps_its_slot_and_port_stays_live():
    """No refund: the next booking starts at the interrupted one's end."""
    env = Environment()
    port = FifoServer(env)
    log = []

    def victim():
        try:
            yield env.sleep_until(port.book(100.0))
        except Interrupt:
            log.append(("interrupted", env.now))

    def killer(target):
        yield env.timeout(30.0)
        target.interrupt()

    def later():
        yield env.timeout(50.0)
        end = port.book(10.0)
        yield env.sleep_until(end)
        log.append(("later", end, env.now))

    env.process(killer(env.process(victim())))
    env.process(later())
    env.run()
    assert log == [("interrupted", 30.0), ("later", 110.0, 110.0)]
    assert port.in_flight == 0


def test_rate_server_is_a_booked_port():
    env = Environment()
    server = RateServer(env, units_per_ns=2.0)
    assert isinstance(server, FifoServer)

    def proc():
        yield from server.reserve(100)  # 50 ns, booked, one event

    env.run(env.process(proc()))
    assert env.now == 50.0
    # kick-off relay, the sleep, the process end: no admission grant.
    assert env.events_processed == 3
