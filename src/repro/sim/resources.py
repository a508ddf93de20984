"""Shared-resource primitives built on the event engine.

These model the contended hardware resources in the shell: link ports,
queue slots, memory-channel grants, credit pools.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Iterable, Optional

from .engine import Environment, Event, SimulationError

__all__ = ["Resource", "Store", "Container"]


class _Request(Event):
    """Pending acquisition of a resource slot; usable as a context token."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource


class Resource:
    """A counted resource with FIFO queuing (e.g. a bus grant)."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.users: list = []
        self._waiting: Deque[_Request] = deque()

    @property
    def count(self) -> int:
        return len(self.users)

    def request(self) -> _Request:
        req = _Request(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed(req)
        else:
            self._waiting.append(req)
        return req

    def release(self, req: _Request) -> None:
        try:
            self.users.remove(req)
        except ValueError:
            raise SimulationError("releasing a request that does not hold the resource")
        while self._waiting and len(self.users) < self.capacity:
            nxt = self._waiting.popleft()
            if nxt._abandoned:
                continue  # requester was interrupted while queued
            self.users.append(nxt)
            nxt.succeed(nxt)


class Store:
    """A FIFO buffer of Python objects with optional bounded capacity.

    ``put`` blocks when full; ``get`` blocks when empty.  This is the
    channel primitive under every AXI stream and descriptor queue.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def free(self) -> float:
        return self.capacity - len(self.items)

    def _next_getter(self) -> Optional[Event]:
        while self._getters:
            getter = self._getters.popleft()
            if not getter._abandoned:
                return getter
        return None

    def _next_putter(self) -> Optional[tuple]:
        while self._putters:
            entry = self._putters.popleft()
            if not entry[0]._abandoned:
                return entry
        return None

    def put(self, item: Any) -> Event:
        event = Event(self.env)
        getter = self._next_getter()
        if getter is not None:
            # Hand the item straight to the oldest waiting getter.
            getter.succeed(item)
            event.succeed()
        elif len(self.items) < self.capacity:
            self.items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def put_many(self, items: Iterable[Any]) -> Event:
        """Burst put into an unbounded store, with one event for the lot.

        Items go to waiting getters first (oldest getter first, in item
        order); the rest are queued.
        """
        if self.capacity != float("inf"):
            raise SimulationError("put_many needs an unbounded store")
        for item in items:
            getter = self._next_getter()
            if getter is None:
                self.items.append(item)
            else:
                getter.succeed(item)
        event = Event(self.env)
        event.succeed()
        return event

    def get(self) -> Event:
        event = Event(self.env)
        if self.items:
            event.succeed(self.items.popleft())
            # A slot freed up: admit a blocked putter, if any.
            entry = self._next_putter()
            if entry is not None:
                put_event, item = entry
                self.items.append(item)
                put_event.succeed()
        else:
            entry = self._next_putter()
            if entry is not None:
                put_event, item = entry
                put_event.succeed()
                event.succeed(item)
            else:
                self._getters.append(event)
        return event

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; returns None when empty."""
        if not self.items:
            return None
        item = self.items.popleft()
        entry = self._next_putter()
        if entry is not None:
            put_event, pending = entry
            self.items.append(pending)
            put_event.succeed()
        return item

    def clear(self) -> int:
        """Drop every buffered item and unblock every waiting putter.

        Models a hardware FIFO reset: the contents (including items that
        blocked putters were still trying to push) are gone, but the
        producers themselves proceed as if their write landed.  Returns
        the number of items discarded.
        """
        dropped = len(self.items)
        self.items.clear()
        while True:
            entry = self._next_putter()
            if entry is None:
                break
            put_event, _item = entry
            put_event.succeed()
            dropped += 1
        return dropped


class Container:
    """A continuous quantity (e.g. a credit pool measured in bytes)."""

    def __init__(self, env: Environment, capacity: float, init: float = 0.0):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise SimulationError("init outside [0, capacity]")
        self.env = env
        self.capacity = capacity
        self.level = float(init)
        self._getters: Deque[tuple] = deque()
        self._putters: Deque[tuple] = deque()

    def put(self, amount: float) -> Event:
        if amount <= 0:
            raise SimulationError("put amount must be positive")
        event = Event(self.env)
        self._putters.append((event, amount))
        self._settle()
        return event

    def get(self, amount: float) -> Event:
        if amount <= 0:
            raise SimulationError("get amount must be positive")
        if amount > self.capacity:
            raise SimulationError("get amount exceeds capacity")
        event = Event(self.env)
        self._getters.append((event, amount))
        self._settle()
        return event

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and self._putters[0][0]._abandoned:
                self._putters.popleft()
                progressed = True
            if self._putters:
                event, amount = self._putters[0]
                if self.level + amount <= self.capacity:
                    self._putters.popleft()
                    self.level += amount
                    event.succeed()
                    progressed = True
            while self._getters and self._getters[0][0]._abandoned:
                self._getters.popleft()
                progressed = True
            if self._getters:
                event, amount = self._getters[0]
                if self.level >= amount:
                    self._getters.popleft()
                    self.level -= amount
                    event.succeed()
                    progressed = True
