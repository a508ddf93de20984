"""Deterministic discrete-event simulation engine.

This is the substrate every hardware model in the reproduction runs on.  It
follows the classic generator-based design (as popularised by SimPy, which is
not available offline): simulated entities are Python generators that yield
:class:`Event` objects to suspend themselves, and an :class:`Environment`
advances a priority queue of scheduled events.

Simulated time is a float in **nanoseconds**.  All hardware models in
``repro`` agree on this unit; see :mod:`repro.sim.clock` for cycle helpers.

Fast-path design (pinned by ``tests/test_engine_conformance.py``):

* Heap entries are ``(time, priority, seq, event)`` tuples.  ``heapq``
  orders them with C tuple compares; an event-ordered heap called a
  Python ``__lt__`` ~9.7 times per dispatched event (3.06M calls for
  316k events on the seed-1 ``rdma_incast`` benchmark), which cost more
  than allocating the tuple.  ``seq`` is unique, so ``event`` is never
  compared.
* One dispatch body: :meth:`Environment.run_batch`.  :meth:`step` is
  ``run_batch(1)`` and every mode of :meth:`run` drives ``run_batch``,
  so all drivers dispatch through the same code.
* Internal one-shot relays (process kick-off, resume-after-processed,
  interrupts, :meth:`Environment.sleep`) come from a per-environment
  **free list** and are recycled right after dispatch.  Only events that
  are never exposed to user code are pooled; anything a process can hold
  a reference to (timeouts it composed into conditions, completion
  events, processes) is never recycled.
* No separate FIFO lane for zero-delay schedules: although 60-82% of
  schedules are zero-delay, the heap stays shallow (high water under
  ~350 on the benchmark workloads) and a second queue measured no
  faster, only adding merge logic.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation engine."""


def _default_sanitizer():
    """The process-wide SimSanitizer when ``REPRO_SANITIZE`` is set.

    Lazy import: :mod:`repro.analysis` depends only on the stdlib, so
    this cannot cycle back into the engine; when sanitizing is off the
    import is skipped entirely and construction stays allocation-free.
    """
    import os

    if not os.environ.get("REPRO_SANITIZE"):
        return None
    from ..analysis.sanitizer import current

    return current()


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Priorities ensure deterministic ordering of simultaneous events.
URGENT = 0
NORMAL = 1

#: Free-list ceiling: enough to cover the relay burst of a deep process
#: tree without pinning unbounded memory on pathological workloads.
_POOL_LIMIT = 128


class Event:
    """A condition that may happen at some point in simulated time.

    Events start *pending*; once :meth:`succeed` or :meth:`fail` is called
    they become *triggered* and are scheduled for processing, after which all
    registered callbacks run and the event is *processed*.

    Lifecycle states (see DESIGN.md "Event engine internals"):
    pending (``_ok is None``, callbacks is a list) → triggered (``_ok``
    set; for a :class:`Timeout`, only once its delay elapsed) →
    processed (callbacks is ``None``; value/exception delivered).
    """

    __slots__ = (
        "env",
        "callbacks",
        "_value",
        "_ok",
        "_scheduled",
        "_abandoned",
        "_defused",
        "_recycle",
        "_origin",
    )

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._scheduled = False
        # Creation-site stamp for the stuck-at-drain ledger: written only
        # while sanitizing, so the detached cost is one branch.  The
        # ``_origin`` slot stays unset otherwise (readers getattr it).
        if env.sanitizer is not None:
            env.sanitizer.on_event_created(self)
        #: Set when the only waiter was interrupted away; resources skip
        #: abandoned waiters rather than handing them items/grants.
        self._abandoned = False
        #: A failure whose exception was delivered somewhere (thrown into
        #: a process, or deliberately discarded) must not also escape
        #: ``step()``.
        self._defused = False
        #: Internal one-shot relays return to the environment free list
        #: right after dispatch; never set on user-visible events.
        self._recycle = False

    @property
    def triggered(self) -> bool:
        return self._ok is not None

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, 0.0, priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() needs an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self, 0.0, priority)
        return self

    def defuse(self) -> "Event":
        """Declare this event's failure handled out-of-band.

        A failed event whose exception was delivered somewhere else (a
        typed error handed to every waiter during recovery, an interrupt
        thrown into an abandoned verb) must not *also* escape
        :meth:`Environment.step` as an unhandled simulation failure.
        Call this before or after :meth:`fail`/:meth:`Process.interrupt`;
        it is idempotent and safe on events that end up succeeding.
        Returns the event so ``event.defuse().fail(exc)`` chains.
        """
        self._defused = True
        return self

    # Generator protocol so a bare event can be awaited from process code
    # via ``value = yield event``.


class Timeout(Event):
    """An event that triggers after a fixed delay.

    A timeout is scheduled at construction but — unlike the historical
    behaviour of presetting ``_ok`` — it does not report ``triggered``
    until its delay actually elapsed: the engine flips it to triggered
    at dispatch time (the ``_ok is None`` branch in the step loop).
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        super().__init__(env)
        self._value = value
        self.delay = delay
        env._schedule(self, delay, NORMAL)

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        raise SimulationError("a Timeout triggers by itself when its delay elapses")

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        raise SimulationError("a Timeout triggers by itself when its delay elapses")


class Process(Event):
    """Wraps a generator; the process event triggers when it returns.

    The generator yields :class:`Event` instances.  When a yielded event is
    processed the generator is resumed with the event's value (or the event's
    exception is thrown into it).
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError("Process() needs a generator")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        if env.sanitizer is not None:
            env.sanitizer.on_process_created(self)
        # Kick off on the next event-loop iteration (pooled relay).
        env._relay(True, None, self._resume, URGENT)

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            return
        self.env._relay(
            False, Interrupt(cause), self._resume, URGENT, defused=True
        )

    def _resume(self, event: Event) -> None:
        if self._ok is not None:
            return
        # Detach from the event we were waiting for (interrupt case) and
        # mark it abandoned so queue-like resources (Store, Resource,
        # Container) skip it instead of delivering into a dead process.
        waited = self._target
        if waited is not None and waited is not event:
            if waited.callbacks is not None:
                try:
                    waited.callbacks.remove(self._resume)
                except ValueError:
                    pass
                if not waited.callbacks:
                    waited._abandoned = True
        self._target = None
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                event._defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self._generator.throw(
                SimulationError(f"process yielded non-event {target!r}")
            )
            return
        if target.env is not self.env:
            raise SimulationError("event belongs to a different environment")
        self._target = target
        if target.callbacks is None:
            # Already processed: resume immediately (next loop iteration).
            self.env._relay(target._ok, target._value, self._resume, URGENT)
        else:
            target.callbacks.append(self._resume)


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("_events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._done = 0
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self):
        # Only processed-and-ok children contribute results (a failed
        # child's exception travels via fail(), not the result dict).
        return {
            i: e._value
            for i, e in enumerate(self._events)
            if e.callbacks is None and e._ok
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers once every child event has triggered successfully."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if event._ok is False:
            self.fail(event._value)
            return
        self._done += 1
        if self._done == len(self._events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Triggers as soon as any child event triggers successfully."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if event._ok is False:
            self.fail(event._value)
            return
        self.succeed(self._collect())


class Environment:
    """The event loop: a heap of ``(time, priority, seq, event)`` entries."""

    def __init__(self, initial_time: float = 0.0):
        self.now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._active = True
        #: Free list of recyclable internal relay events (see Event).
        self._relay_pool: List[Event] = []
        #: Telemetry: events dispatched and deepest queue seen.  Plain
        #: ints so the hot loop pays one increment / one compare.
        self.events_processed = 0
        self.queue_high_water = 0
        #: Optional :class:`repro.telemetry.SimProfiler`; when attached it
        #: runs the callback loop under a per-component stopwatch.
        self.profiler = None
        #: Optional :class:`repro.analysis.SimSanitizer`.  Auto-attached
        #: process-wide under ``REPRO_SANITIZE=1``; observes only (never
        #: perturbs event order), and costs one ``is None`` branch per
        #: step when detached — same pattern as ``profiler``.
        self.sanitizer = _default_sanitizer()

    # -- scheduling ------------------------------------------------------

    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        if event._scheduled:
            return
        if self.sanitizer is not None:
            self.sanitizer.on_schedule(self, delay)
        event._scheduled = True
        queue = self._queue
        heappush(queue, (self.now + delay, priority, next(self._seq), event))
        if len(queue) > self.queue_high_water:
            self.queue_high_water = len(queue)

    def _relay(
        self,
        ok: bool,
        value: Any,
        callback: Callable[["Event"], None],
        priority: int = URGENT,
        defused: bool = False,
    ) -> Event:
        """Schedule a pooled one-shot internal event at the current time.

        The event is pre-triggered with ``(ok, value)``, carries exactly
        one callback, and returns to the free list right after dispatch —
        callers must never hand it to user code or keep a reference past
        the callback.
        """
        pool = self._relay_pool
        event = pool.pop() if pool else Event(self)
        event._ok = ok
        event._value = value
        event._defused = defused
        event._recycle = True
        event.callbacks.append(callback)
        self._schedule(event, 0.0, priority)
        return event

    def _reclaim(self, event: Event) -> None:
        """Reset a dispatched relay and return it to the free list."""
        event.callbacks = []
        event._value = None
        event._ok = None
        event._scheduled = False
        event._abandoned = False
        event._defused = False
        event._recycle = False
        pool = self._relay_pool
        if len(pool) < _POOL_LIMIT:
            pool.append(event)

    # -- public factory helpers -----------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def sleep(self, delay: float) -> Event:
        """A pooled, recyclable delay for the plain ``yield env.sleep(d)``
        idiom in hot loops (movers, packetizer feeds, retransmit timers).

        Contract: the caller must yield it immediately from exactly one
        process and must not store it, compose it into ``AllOf``/``AnyOf``
        or read it after resuming — the event is recycled the moment its
        dispatch completes.  Use :meth:`timeout` anywhere those rules
        cannot be guaranteed.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        pool = self._relay_pool
        event = pool.pop() if pool else Event(self)
        event._recycle = True
        # _ok stays None: like a Timeout, it triggers at dispatch.
        self._schedule(event, delay, NORMAL)
        return event

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    # -- execution -------------------------------------------------------

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self.run_batch(1):
            raise SimulationError("no more events")

    def run_batch(self, max_events: Optional[int] = None) -> int:
        """Drain up to ``max_events`` events (all, when ``None``).

        The engine's only dispatch body: the queue, profiler and
        sanitizer are bound to locals, so a long drain pays no per-event
        method dispatch and no ``until`` re-checks.  Returns the number
        of events processed (0 when the queue is empty).
        """
        queue = self._queue
        sanitizer = self.sanitizer
        profiler = self.profiler
        budget = max_events if max_events is not None else -1
        processed = 0
        while queue and budget != 0:
            when, _, _, event = heappop(queue)
            if sanitizer is not None:
                sanitizer.on_step(self, when)
            self.now = when
            # Kept per-event (not batched at the end) so callbacks that
            # read the counter mid-drain — card_report from inside a
            # process, watchdog fingerprints — never see a stale value.
            self.events_processed += 1
            processed += 1
            budget -= 1
            if event._ok is None:
                event._ok = True  # a Timeout/sleep triggers as it dispatches
            callbacks, event.callbacks = event.callbacks, None
            if profiler is not None:
                profiler.run_callbacks(event, callbacks)
            else:
                for callback in callbacks:
                    callback(event)
            if event._ok is False and not event._defused:
                # An unhandled failure propagates out of the simulation.
                raise event._value
            if event._recycle:
                self._reclaim(event)
        return processed

    def run(self, until: Optional[Any] = None) -> Any:
        """Run until the given time, event, or queue exhaustion.

        ``until`` may be ``None`` (drain all events), a number (absolute
        simulated time), or an :class:`Event` (run until it is processed and
        return its value).
        """
        if until is None:
            self.run_batch()
            return None
        if isinstance(until, Event):
            sentinel = until
            queue = self._queue
            run_batch = self.run_batch
            while sentinel.callbacks is not None:
                if not queue:
                    raise SimulationError(
                        "simulation ran out of events before the awaited "
                        f"event triggered ({sentinel!r}); likely deadlock"
                    )
                run_batch(1)
            if sentinel._ok is False:
                raise sentinel._value
            return sentinel._value
        horizon = float(until)
        if horizon < self.now:
            raise SimulationError("cannot run into the past")
        queue = self._queue
        run_batch = self.run_batch
        while queue and queue[0][0] <= horizon:
            run_batch(1)
        self.now = horizon
        return None

    @property
    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._queue[0][0] if self._queue else float("inf")
