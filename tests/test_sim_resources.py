"""Unit tests for Resource, Store and Container primitives."""

import pytest

from repro.sim import Container, Environment, Resource, SimulationError, Store


# ---------------------------------------------------------------- Resource

def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    log = []

    def user(tag, hold):
        req = res.request()
        yield req
        log.append(("acq", tag, env.now))
        yield env.timeout(hold)
        res.release(req)
        log.append(("rel", tag, env.now))

    for tag, hold in [("a", 10), ("b", 10), ("c", 10)]:
        env.process(user(tag, hold))
    env.run()
    # a and b acquire at t=0; c must wait for a release at t=10.
    acquires = {tag: t for op, tag, t in log if op == "acq"}
    assert acquires["a"] == 0
    assert acquires["b"] == 0
    assert acquires["c"] == 10


def test_resource_fifo_fairness():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(tag):
        req = res.request()
        yield req
        order.append(tag)
        yield env.timeout(1)
        res.release(req)

    for tag in range(5):
        env.process(user(tag))
    env.run()
    assert order == list(range(5))


def test_resource_release_unheld_raises():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc():
        req = res.request()
        yield req
        res.release(req)
        res.release(req)

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_resource_bad_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


# ------------------------------------------------------------------- Store

def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        for i in range(4):
            yield store.put(i)
            yield env.timeout(1)

    def consumer():
        for _ in range(4):
            item = yield store.get()
            received.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == [0, 1, 2, 3]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    times = []

    def consumer():
        item = yield store.get()
        times.append((env.now, item))

    def producer():
        yield env.timeout(25)
        yield store.put("x")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert times == [(25, "x")]


def test_store_put_blocks_when_full():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer():
        yield store.put("a")
        log.append(("put-a", env.now))
        yield store.put("b")
        log.append(("put-b", env.now))

    def consumer():
        yield env.timeout(10)
        item = yield store.get()
        log.append(("got", item, env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert ("put-a", 0) in log
    # put-b completes only after the consumer drains "a" at t=10.
    assert ("put-b", 10) in log


def test_store_try_get_nonblocking():
    env = Environment()
    store = Store(env)
    assert store.try_get() is None
    store.put("x")
    env.run()
    assert store.try_get() == "x"
    assert store.try_get() is None


def test_store_put_many_feeds_getters_in_order_then_queues():
    env = Environment()
    store = Store(env)
    got = []

    def getter(tag):
        item = yield store.get()
        got.append((tag, item, env.now))

    for tag in ("g0", "g1"):
        env.process(getter(tag))
    env.run()  # both getters parked on the empty store

    burst = store.put_many(["a", "b", "c", "d"])
    # The oldest getter takes the first item; the rest queue in order.
    assert list(store.items) == ["c", "d"]
    events_before = env.events_processed
    env.run()
    assert got == [("g0", "a", 0.0), ("g1", "b", 0.0)]
    assert burst.triggered and burst.ok
    # Two getter wakeups, two getter-process ends and one burst event.
    assert env.events_processed - events_before == 5
    assert store.try_get() == "c" and store.try_get() == "d"


def test_store_put_many_refuses_bounded_store():
    env = Environment()
    with pytest.raises(SimulationError, match="unbounded"):
        Store(env, capacity=2).put_many([1])


def test_store_len_and_free():
    env = Environment()
    store = Store(env, capacity=3)
    store.put(1)
    store.put(2)
    env.run()
    assert len(store) == 2
    assert store.free == 1


# --------------------------------------------------------------- Container

def test_container_get_blocks_until_level():
    env = Environment()
    tank = Container(env, capacity=100, init=0)
    log = []

    def consumer():
        yield tank.get(30)
        log.append(env.now)

    def producer():
        yield env.timeout(5)
        yield tank.put(10)
        yield env.timeout(5)
        yield tank.put(25)

    env.process(consumer())
    env.process(producer())
    env.run()
    assert log == [10]
    assert tank.level == 5


def test_container_put_blocks_at_capacity():
    env = Environment()
    tank = Container(env, capacity=10, init=10)
    log = []

    def producer():
        yield tank.put(5)
        log.append(env.now)

    def consumer():
        yield env.timeout(7)
        yield tank.get(6)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert log == [7]
    assert tank.level == 9


def test_container_invalid_amounts():
    env = Environment()
    tank = Container(env, capacity=10)
    with pytest.raises(SimulationError):
        tank.get(0)
    with pytest.raises(SimulationError):
        tank.put(-1)
    with pytest.raises(SimulationError):
        tank.get(11)
