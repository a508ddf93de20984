"""SimSanitizer: the dynamic half the AST rules cannot prove.

The static rules show the *code* is well-formed; the sanitizer checks
the *run* upholds the invariants the shell's guarantees rest on:

* **event-time monotonicity** — the engine never dispatches an event
  earlier than the clock, and nothing schedules into the past;
* **credit conservation** — credits are never created (a release into a
  full pool without a reset reclaim is a double release) and, at a clean
  drain, never destroyed: every pool is back at capacity except for
  deliberately wedged credits (``Crediter.wedge``, the
  ``app.wedge_credit`` chaos site);
* **telemetry type stability** — one metric name maps to one metric
  kind across *every* registry in the process (the per-registry
  ``TypeError`` cannot see a counter-vs-gauge clash between two nodes
  whose registries merge later) plus the ``component.metric`` naming
  convention, enforced at runtime for dynamically built names the
  TEL001 literal check cannot reach.

* **stuck-at-drain ledger** — when a run drains (no events left) while
  generator processes are still parked on untriggered events, those
  waiters can never resume: the static face of this bug is EVT001's
  lost-wakeup rule, and the ledger is its dynamic witness.  Each orphan
  is attributed to the *creation site* of the event it waits on (file
  and line, captured at ``Event()`` construction while sanitizing).
  Daemon loops legitimately park at drain (a Store.get feeding a mover),
  so the ledger is a *query* (:meth:`SimSanitizer.stuck_ledger`) plus an
  explicit assertion (:meth:`SimSanitizer.check_stuck_at_drain`) for
  workloads known to quiesce — it is deliberately not folded into the
  autouse test gate.  Ledger rendering is deterministic: identical
  seeded runs produce byte-identical reports.

Opt-in: set ``REPRO_SANITIZE=1`` and every ``Environment`` attaches the
process-wide sanitizer (``current()``); tests' conftest fails any test
that accumulated violations.  Detached cost is one ``is None`` branch
per engine step — the same zero-overhead pattern as the profiler and
the fault injector.

Violations are *recorded*, not raised, so a chaos workload runs to
completion and the report names every offending guard; ``strict=True``
flips to fail-fast for debugging.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = [
    "SimSanitizer",
    "SanitizerError",
    "StuckWaiter",
    "Violation",
    "current",
    "activate",
    "deactivate",
    "enabled",
    "observe_metric",
]

#: Simulated-time comparison slack (float ns arithmetic).
_TIME_EPS = 1e-9


class SanitizerError(AssertionError):
    """Raised in strict mode, and by ``raise_if_violations``."""


def _creation_site() -> str:
    """``dir/file.py:line`` of the nearest caller outside the engine and
    the sanitizer — the frame that actually asked for the event.  Only
    the trailing two path components are kept so the string (and hence
    the ledger) is stable across checkouts and runs."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        base = os.path.basename(filename)
        if base not in ("engine.py", "sanitizer.py", "resources.py"):
            tail = filename.replace(os.sep, "/").rsplit("/", 2)[-2:]
            return "/".join(tail) + f":{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


@dataclass(frozen=True)
class StuckWaiter:
    """One orphaned waiter in the stuck-at-drain ledger."""

    process: str     # Process.name of the parked generator
    origin: str      # creation site of the event it waits on
    time_ns: float   # simulated clock at drain

    def render(self) -> str:
        return (
            f"process {self.process!r} parked at drain (t={self.time_ns:.1f}ns) "
            f"on an untriggered event created at {self.origin}"
        )


@dataclass(frozen=True)
class Violation:
    kind: str        # "monotonicity" | "credit.leak" | "credit.double_release" | "telemetry.type" | "telemetry.name"
    message: str
    time_ns: float = 0.0

    def render(self) -> str:
        return f"[{self.kind}] t={self.time_ns:.1f}ns {self.message}"


class SimSanitizer:
    """Collects invariant violations from engine/credit/telemetry hooks."""

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.violations: List[Violation] = []
        self._crediters: List[Any] = []
        self._metric_kinds: Dict[str, str] = {}
        self._processes: List[Any] = []

    # ------------------------------------------------------------- plumbing

    def _violate(self, kind: str, message: str, time_ns: float = 0.0) -> None:
        violation = Violation(kind=kind, message=message, time_ns=time_ns)
        self.violations.append(violation)
        if self.strict:
            raise SanitizerError(violation.render())

    def report(self) -> str:
        if not self.violations:
            return "sanitizer: clean"
        lines = [f"sanitizer: {len(self.violations)} violation(s)"]
        lines.extend("  " + violation.render() for violation in self.violations)
        return "\n".join(lines)

    def raise_if_violations(self) -> None:
        if self.violations:
            raise SanitizerError(self.report())

    def reset(self) -> None:
        """Forget accumulated state (between tests: violations AND the
        cross-registry kind map, which is per-card-lifetime, not global)."""
        self.violations.clear()
        self._metric_kinds.clear()
        self._crediters.clear()
        self._processes.clear()

    # --------------------------------------------------------- engine hooks

    def on_schedule(self, env: Any, delay: float) -> None:
        if delay < 0:
            self._violate(
                "monotonicity",
                f"event scheduled {-delay:.1f}ns into the past",
                env.now,
            )

    def on_step(self, env: Any, when: float) -> None:
        if when + _TIME_EPS < env.now:
            self._violate(
                "monotonicity",
                f"event dispatched at t={when:.1f}ns after clock reached "
                f"t={env.now:.1f}ns",
                env.now,
            )

    def on_event_created(self, event: Any) -> None:
        """Stamp the event with its creation site (engine hook, called
        only while a sanitizer is attached — zero cost otherwise)."""
        event._origin = _creation_site()

    def on_process_created(self, process: Any) -> None:
        self._processes.append(process)

    # ------------------------------------------------- stuck-at-drain ledger

    def stuck_ledger(self, env: Any) -> List[StuckWaiter]:
        """Every live process of ``env`` parked on an event that nothing
        can trigger any more (the queue holds no producer for it).  Call
        at drain; entries are sorted so the ledger renders byte-identical
        across identically seeded runs.  Daemon waiters (a Store.get
        feeding an idle mover) legitimately appear here — it is
        :meth:`check_stuck_at_drain`, not this query, that asserts."""
        scheduled = {id(entry[3]) for entry in env._queue}
        entries = []
        for process in self._processes:
            if process.env is not env or not process.is_alive:
                continue
            target = process._target
            if target is None or target.triggered:
                continue
            if id(target) in scheduled:
                continue  # a producer (the queue itself) remains
            entries.append(
                StuckWaiter(
                    process=process.name,
                    origin=getattr(target, "_origin", "<untracked>"),
                    time_ns=env.now,
                )
            )
        entries.sort(key=lambda e: (e.process, e.origin))
        return entries

    def check_stuck_at_drain(self, env: Any) -> None:
        """Assert no orphaned waiters at drain — for workloads known to
        quiesce completely (regression tests around EVT001-style lost
        wakeups).  Records one violation per ledger entry."""
        for entry in self.stuck_ledger(env):
            self._violate("event.stuck_at_drain", entry.render(), entry.time_ns)

    # --------------------------------------------------------- credit hooks

    def register_crediter(self, crediter: Any) -> None:
        self._crediters.append(crediter)

    def on_double_release(self, crediter: Any) -> None:
        self._violate(
            "credit.double_release",
            f"guard {crediter.name!r}: release into a full pool with no "
            "reset reclaim outstanding (credit created from nothing)",
            crediter.env.now,
        )

    def check_drain(self, env: Any) -> None:
        """Conservation at a clean drain: every pool of this environment
        is back at capacity, minus deliberately wedged credits.  Call
        when the workload is known to have quiesced (the engine calls it
        from ``run(until=None)``\\ 's exhaustion path is deliberately NOT
        done: hung-tenant chaos runs legitimately drain with credits
        parked behind un-consumed FIFO flits)."""
        for crediter in self._crediters:
            if crediter.env is not env:
                continue
            outstanding = crediter.capacity - crediter.available
            if outstanding != crediter.wedged:
                self._violate(
                    "credit.leak",
                    f"guard {crediter.name!r}: {outstanding} credit(s) "
                    f"outstanding at drain, {crediter.wedged} wedged — "
                    f"{outstanding - crediter.wedged} leaked",
                    env.now,
                )

    # ------------------------------------------------------ telemetry hooks

    def on_metric(self, name: str, kind: str) -> None:
        from .rules_registry import _METRIC_NAME_RE

        previous = self._metric_kinds.setdefault(name, kind)
        if previous != kind:
            self._violate(
                "telemetry.type",
                f"metric {name!r} registered as {kind} but a registry in "
                f"this process already holds it as {previous} (merge would "
                "fail)",
            )
        if not _METRIC_NAME_RE.fullmatch(name):
            self._violate(
                "telemetry.name",
                f"metric {name!r} violates the component.metric convention",
            )


# -------------------------------------------------------------- process-wide

_active: Optional[SimSanitizer] = None


def enabled() -> bool:
    return bool(os.environ.get("REPRO_SANITIZE"))


def current() -> Optional[SimSanitizer]:
    """The process-wide sanitizer: created on first use when
    ``REPRO_SANITIZE`` is set, else whatever ``activate()`` installed."""
    global _active
    if _active is None and enabled():
        _active = SimSanitizer()
    return _active


def activate(sanitizer: Optional[SimSanitizer] = None) -> SimSanitizer:
    """Explicitly install a process-wide sanitizer (tests)."""
    global _active
    _active = sanitizer if sanitizer is not None else SimSanitizer()
    return _active


def deactivate() -> None:
    global _active
    _active = None


def observe_metric(name: str, kind: str) -> None:
    """Telemetry's cheap entry point: no-op unless a sanitizer is live."""
    sanitizer = current()
    if sanitizer is not None:
        sanitizer.on_metric(name, kind)
