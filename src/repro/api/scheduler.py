"""On-demand application scheduling over partial reconfiguration.

Paper §4/§9.6: prior shells and Coyote v2 "trigger reconfiguration of
specific applications as user requests arrive, based on some scheduling
policy", and §9.6 runs HLL "as a background daemon loaded on demand".
This module provides that run-time as a reusable component: clients
submit requests naming a registered kernel; the scheduler batches
same-kernel requests (affinity) to avoid reconfiguration thrashing,
swaps vFPGA logic through the driver's PR ioctl when needed, and runs
each request against the loaded kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..core.bitstream import Bitstream
from ..core.vfpga import UserApp
from ..driver.driver import Driver
from ..health.errors import (
    AdmissionError,
    NodeDownError,
    QuarantinedError,
    RecoveredError,
)
from ..sim.engine import Environment, Event, Interrupt
from ..sim.resources import Container
from ..telemetry.metrics import Histogram, MetricsRegistry

__all__ = ["AppScheduler", "SchedulerError", "KernelRegistration"]


class SchedulerError(Exception):
    """Scheduling misuse: unknown kernels, duplicate registrations."""


@dataclass(frozen=True)
class KernelRegistration:
    """A deployable kernel: its bitstream and a factory for the logic.

    ``idempotent`` declares that a request body may safely run twice; a
    recovery that aborts an in-flight request replays it only then,
    otherwise the submitter gets a :class:`RecoveredError`.
    """

    name: str
    bitstream: Bitstream
    factory: Callable[[], UserApp]
    idempotent: bool = False


@dataclass
class _Request:
    kernel: str
    body: Callable  # generator fn(cthread-ish context) -> result
    done: Event
    submitted_at: float
    #: Whether this request currently holds an admission slot (replayed
    #: requests re-enter the queue without re-acquiring one).
    holds_slot: bool = True


class AppScheduler:
    """FCFS-with-affinity scheduler for one vFPGA region.

    Policy: requests are served in arrival order, except that requests
    for the *currently loaded* kernel may be served ahead of a pending
    reconfiguration ("affinity window"), amortising PR latency exactly
    like batching amortises context switches in an OS scheduler.
    """

    def __init__(
        self,
        driver: Driver,
        vfpga_id: int = 0,
        affinity_window: int = 8,
        cached_bitstreams: bool = True,
        max_queue_depth: Optional[int] = 64,
        admission: str = "block",
    ):
        if admission not in ("block", "reject"):
            raise SchedulerError("admission must be 'block' or 'reject'")
        self.driver = driver
        self.env: Environment = driver.env
        self.vfpga_id = vfpga_id
        self.affinity_window = affinity_window
        self.cached_bitstreams = cached_bitstreams
        self.admission = admission
        self.max_queue_depth = max_queue_depth
        self._kernels: Dict[str, KernelRegistration] = {}
        self._queue: List[_Request] = []
        #: Edge-triggered wakeup: armed (a pending Event) only while the
        #: loop is idle with an empty queue.  Submitters fire the edge at
        #: most once per idle period; while the loop is draining, a queue
        #: append alone is enough — no per-request wakeup tokens.
        self._wakeup: Optional[Event] = None
        #: Admission slots: the submit queue is bounded; a full queue
        #: back-pressures (``block``) or sheds (``reject``) new work so a
        #: slow or wedged region cannot absorb unbounded client state.
        self._slots: Optional[Container] = (
            Container(self.env, capacity=max_queue_depth, init=max_queue_depth)
            if max_queue_depth is not None
            else None
        )
        self.loaded: Optional[str] = None
        self.loaded_app: Optional[UserApp] = None
        self.reconfigurations = 0
        self.requests_served = 0
        #: Requests whose reconfiguration exhausted its retries; each one
        #: failed cleanly back to its submitter while the loop lived on.
        self.reconfig_failures = 0
        #: Requests served on the already-resident kernel (no PR needed).
        self.affinity_hits = 0
        #: Edge-triggered loop telemetry: idle→work wakeup edges taken vs
        #: requests dispatched off the queue.  A burst of N submits costs
        #: one wakeup, so dispatches/wakeups is the coalescing factor.
        self.wakeups = 0
        self.dispatches = 0
        self.queue_depth_high_water = 0
        #: Admission-control telemetry.
        self.rejected_submits = 0
        self.queue_full_stalls = 0
        #: Recovery telemetry: in-flight requests replayed vs. rejected.
        self.replayed = 0
        self.replay_rejected = 0
        #: Requests handed to another region's scheduler (live migration).
        self.transplanted_out = 0
        self.transplanted_in = 0
        #: Region circuit breaker tripped: every submit fails fast.
        self.quarantined = False
        #: Time from submit() to being picked, in ns (telemetry).
        self.queue_wait = Histogram.exponential("scheduler.queue_wait_ns")
        #: Consecutive times the current queue head has been bypassed by a
        #: resident-kernel request; capped at ``affinity_window``.
        self._head_bypasses = 0
        #: Recovery handshake state (see quiesce / resume_after_recovery).
        self._running: Optional[_Request] = None
        self._running_proc = None
        self._aborted: Optional[_Request] = None
        self._paused = False
        self._gate: Optional[Event] = None
        driver.attach_scheduler(self)
        self.env.process(self._scheduler_loop(), name=f"sched-v{vfpga_id}")

    # --------------------------------------------------------------- admin

    def register(
        self,
        name: str,
        bitstream: Bitstream,
        factory: Callable[[], UserApp],
        idempotent: bool = False,
    ) -> None:
        if name in self._kernels:
            raise SchedulerError(f"kernel {name!r} already registered")
        self._kernels[name] = KernelRegistration(name, bitstream, factory, idempotent)

    @property
    def has_work(self) -> bool:
        """Queued, running, or recovery-parked work (watchdog busy signal)."""
        return bool(self._queue) or self._running is not None or self._aborted is not None

    # --------------------------------------------------------------- client

    def submit(self, kernel: str, body: Callable) -> Generator:
        """Queue a request; returns the body's result when it ran.

        ``body(app)`` must be a generator function receiving the loaded
        :class:`UserApp`; it runs once the kernel is resident.
        """
        if kernel not in self._kernels:
            raise SchedulerError(f"unknown kernel {kernel!r}")
        if self.quarantined:
            raise QuarantinedError(self.vfpga_id)
        if self.driver.node_down:
            # The whole card is down (cluster scope): reject at the door
            # rather than queueing work that can only park.
            raise NodeDownError(
                self.driver.node_index if self.driver.node_index is not None else -1
            )
        if self._slots is not None:
            if self._slots.level < 1:
                if self.admission == "reject":
                    self.rejected_submits += 1
                    raise AdmissionError(self.vfpga_id, self.max_queue_depth)
                self.queue_full_stalls += 1
            yield self._slots.get(1)
            if self.quarantined:  # quarantined while blocked on admission
                self._slots.put(1)
                raise QuarantinedError(self.vfpga_id)
        request = _Request(
            kernel=kernel, body=body, done=Event(self.env), submitted_at=self.env.now
        )
        self._queue.append(request)
        if len(self._queue) > self.queue_depth_high_water:
            self.queue_depth_high_water = len(self._queue)
        if self.driver.health is not None:
            self.driver.health.notify_activity()
        self._notify()
        result = yield request.done
        return result

    # ------------------------------------------------------------ scheduling

    def _notify(self) -> None:
        """Fire the wakeup edge iff the loop is parked idle.

        Idempotent within one idle period: the first notifier triggers
        the armed event, later ones see it triggered and do nothing (the
        loop batch-drains the whole queue per wakeup anyway).
        """
        wakeup = self._wakeup
        if wakeup is not None and not wakeup.triggered:
            wakeup.succeed()

    def _pick(self) -> _Request:
        """FCFS with bounded affinity for the resident kernel.

        The head of the queue may be bypassed by resident-kernel requests
        at most ``affinity_window`` consecutive times; after that it is
        served unconditionally, so a steady stream of resident requests
        can never starve a pending kernel switch.
        """
        head = self._queue[0]
        if (
            self.loaded is not None
            and head.kernel != self.loaded
            and self._head_bypasses < self.affinity_window
        ):
            for request in self._queue[: self.affinity_window]:
                if request.kernel == self.loaded:
                    self._queue.remove(request)
                    self._head_bypasses += 1
                    return request
        self._head_bypasses = 0
        return self._queue.pop(0)

    def _pause_gate(self) -> Generator:
        while self._paused:
            self._gate = Event(self.env)
            yield self._gate

    def _scheduler_loop(self) -> Generator:
        """Edge-triggered serve loop.

        The loop arms a wakeup event only when the queue is empty, and on
        each wakeup batch-drains every eligible request before parking
        again.  Cost per request is therefore the request's own body (and
        its reconfiguration, when the kernel switches) — not a wakeup
        token round-trip per submit as in the old level-triggered Store
        design.  ``wakeups``/``dispatches`` count the coalescing.
        """
        while True:
            if not self._queue:
                self._wakeup = Event(self.env)
                yield self._wakeup
                self._wakeup = None
                self.wakeups += 1
            yield from self._pause_gate()
            while self._queue:
                request = self._pick()
                self.dispatches += 1
                yield from self._serve(request)
                # A recovery may have paused the loop while this request
                # ran; honour it before draining the next one.
                yield from self._pause_gate()

    def _serve(self, request: _Request) -> Generator:
        """Serve one picked request: reconfigure if needed, run the body,
        deliver the result/failure to the submitter."""
        if self._slots is not None and request.holds_slot:
            self._slots.put(1)
            request.holds_slot = False
        self._running = request
        self.queue_wait.observe(self.env.now - request.submitted_at)
        try:
            if request.kernel != self.loaded:
                registration = self._kernels[request.kernel]
                try:
                    yield self.env.process(
                        self.driver.reconfigure_app(
                            registration.bitstream,
                            self.vfpga_id,
                            registration.factory(),
                            cached=self.cached_bitstreams,
                        )
                    )
                except Exception as exc:
                    # A reconfiguration that exhausted the driver's
                    # retries fails only this request; the loop keeps
                    # serving (the region still holds the last-good
                    # kernel, if any).
                    self.reconfig_failures += 1
                    request.done.fail(exc)
                    return
                self.loaded = request.kernel
                self.loaded_app = self.driver.shell.vfpgas[self.vfpga_id].app
                self.reconfigurations += 1
            else:
                self.affinity_hits += 1
            # A recovery may have started while this request was
            # reconfiguring; wait for the region to be re-coupled.
            yield from self._pause_gate()
            try:
                self._running_proc = self.env.process(
                    request.body(self.loaded_app)
                )
                result = yield self._running_proc
            except Interrupt as intr:
                if self._paused and isinstance(
                    intr.cause, (RecoveredError, NodeDownError)
                ):
                    # Recovery (or a node crash) aborted the body; park
                    # the request for the replay/reject decision at
                    # resume time.
                    self._aborted = request
                else:
                    request.done.fail(intr)
            except (RecoveredError, NodeDownError) as exc:
                # The body saw its own completion fail before the
                # quiesce interrupt landed; same disposition.
                if self._paused:
                    self._aborted = request
                else:
                    request.done.fail(exc)
            except Exception as exc:  # surface failures to the submitter
                request.done.fail(exc)
            else:
                self.requests_served += 1
                request.done.succeed(result)
        finally:
            self._running = None
            self._running_proc = None

    # ------------------------------------------------------------- recovery

    def quiesce(self, exc: Exception) -> None:
        """Pause the loop and abort the in-flight request (recovery step 1).

        Called synchronously by :class:`repro.health.RecoveryManager`
        while the region is being decoupled.  A request mid-PR is left to
        finish its reconfiguration (the ICAP is a shared shell resource;
        the pause gate holds its body until the region is re-coupled).
        """
        self._paused = True
        proc = self._running_proc
        if proc is not None and proc.is_alive:
            proc.interrupt(exc)

    def resume_after_recovery(self, quarantined: bool) -> None:
        """Re-open the loop after recovery (steps 4/5).

        ``quarantined``: fail everything — the parked request and all
        queued work — with :class:`QuarantinedError` and shed future
        submits.  Otherwise replay the parked request iff its kernel was
        registered idempotent, else reject it with
        :class:`RecoveredError`; queued (not-yet-started) work survives.
        """
        aborted, self._aborted = self._aborted, None
        if quarantined:
            self.quarantined = True
            failed = list(self._queue)
            self._queue.clear()
            if aborted is not None:
                failed.append(aborted)
            for request in failed:
                if self._slots is not None and request.holds_slot:
                    self._slots.put(1)
                    request.holds_slot = False
                if not request.done.triggered:
                    request.done.fail(QuarantinedError(self.vfpga_id))
        elif aborted is not None:
            if self._kernels[aborted.kernel].idempotent:
                self._queue.insert(0, aborted)
                self._notify()
                self.replayed += 1
            else:
                self.replay_rejected += 1
                if not aborted.done.triggered:
                    aborted.done.fail(
                        RecoveredError(self.vfpga_id, "in-flight request aborted")
                    )
        self._paused = False
        gate, self._gate = self._gate, None
        if gate is not None and not gate.triggered:
            gate.succeed()
        if self.driver.health is not None:
            self.driver.health.notify_activity()

    def transplant_to(self, dst: "AppScheduler") -> Tuple[int, int, int]:
        """Hand every queued request — and the recovery-parked in-flight
        one — to another scheduler, then resume this (now empty) loop.

        The live-migration flip: after the tenant's state restored on the
        destination, queued submits must replay *there*.  Queued requests
        re-enter ``dst``'s queue in arrival order without re-acquiring
        admission slots (they were admitted once already; this scheduler
        refunds the slots they held).  The in-flight request this
        scheduler's quiesce aborted replays iff its kernel is registered
        idempotent on ``dst`` — the same replay-or-reject policy a local
        recovery applies — and requests naming a kernel ``dst`` does not
        know fail with a typed :class:`RecoveredError` rather than being
        dropped.  Submitters keep waiting on the same done events
        throughout, so the flip is invisible to them.

        Returns ``(moved, replayed, rejected)``.
        """
        if dst is self:
            raise SchedulerError("cannot transplant a scheduler onto itself")
        aborted, self._aborted = self._aborted, None
        moved: List[_Request] = []
        rejected = 0
        replayed = 0
        if aborted is not None:
            registration = dst._kernels.get(aborted.kernel)
            if registration is not None and registration.idempotent:
                moved.append(aborted)
                replayed += 1
                dst.replayed += 1
            else:
                rejected += 1
                self.replay_rejected += 1
                if not aborted.done.triggered:
                    aborted.done.fail(
                        RecoveredError(self.vfpga_id, "aborted by migration")
                    )
        queued, self._queue = self._queue, []
        for request in queued:
            if request.kernel in dst._kernels:
                moved.append(request)
            else:
                rejected += 1
                if not request.done.triggered:
                    request.done.fail(
                        RecoveredError(
                            self.vfpga_id,
                            f"kernel {request.kernel!r} not registered on "
                            f"the migration destination",
                        )
                    )
        for request in queued:
            if self._slots is not None and request.holds_slot:
                self._slots.put(1)
            request.holds_slot = False
        if aborted is not None and self._slots is not None and aborted.holds_slot:
            self._slots.put(1)
            aborted.holds_slot = False
        dst._queue.extend(moved)
        if len(dst._queue) > dst.queue_depth_high_water:
            dst.queue_depth_high_water = len(dst._queue)
        self.transplanted_out += len(moved)
        dst.transplanted_in += len(moved)
        dst._notify()
        # Re-open this loop: its queue is empty, so it parks idle.
        self._paused = False
        gate, self._gate = self._gate, None
        if gate is not None and not gate.triggered:
            gate.succeed()
        return len(moved), replayed, rejected

    # ------------------------------------------------------------ telemetry

    def export_metrics(self, registry: MetricsRegistry) -> None:
        """Fold this scheduler's counters into a card-level registry.

        Additive (``inc``/``merge``) so several schedulers — one per
        vFPGA region — aggregate into one ``scheduler`` domain.
        """
        registry.counter("scheduler.reconfigurations").inc(self.reconfigurations)
        registry.counter("scheduler.requests_served").inc(self.requests_served)
        registry.counter("scheduler.reconfig_failures").inc(self.reconfig_failures)
        registry.counter("scheduler.affinity_hits").inc(self.affinity_hits)
        registry.counter("scheduler.rejected_submits").inc(self.rejected_submits)
        registry.counter("scheduler.queue_full_stalls").inc(self.queue_full_stalls)
        registry.counter("scheduler.replayed").inc(self.replayed)
        registry.counter("scheduler.replay_rejected").inc(self.replay_rejected)
        registry.counter("scheduler.transplanted_out").inc(self.transplanted_out)
        registry.counter("scheduler.transplanted_in").inc(self.transplanted_in)
        registry.counter("scheduler.wakeups").inc(self.wakeups)
        registry.counter("scheduler.dispatches").inc(self.dispatches)
        depth = registry.gauge("scheduler.queue_depth")
        depth.add(len(self._queue))
        depth.high_water = max(depth.high_water, self.queue_depth_high_water)
        registry.histogram(
            "scheduler.queue_wait_ns", self.queue_wait.bounds
        ).merge(self.queue_wait)
