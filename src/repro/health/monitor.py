"""The card health monitor: heartbeat, watchdogs, and the HealthReport.

The driver-side heartbeat loop the paper's daemon would run: it samples
per-vFPGA progress watchdogs (fed by the telemetry counters PR 2 added)
on a poll interval, spawns the recovery pipeline on a ``HUNG`` verdict,
and assembles the ``healthy/degraded/quarantined`` per-region
:class:`HealthReport` that ``card_report()["health"]`` exposes.

The heartbeat *parks* (waits on an event instead of polling) whenever no
region has outstanding work, so attaching a monitor never keeps an
otherwise-finished simulation alive; the driver kicks it awake on the
next descriptor/submit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from ..sim.engine import Environment, Event
from .recovery import HealthConfig, RecoveryManager, RegionState
from .watchdog import ProgressWatchdog, Verdict

__all__ = ["HealthMonitor", "HealthReport", "RegionHealth", "health_section"]


@dataclass(frozen=True)
class RegionHealth:
    """One region's line in the card health report."""

    vfpga_id: int
    state: str  # healthy | degraded | recovering | quarantined
    recoveries: int
    watchdog_trips: int
    stuck_pids: Tuple[int, ...] = ()

    def as_dict(self) -> Dict:
        return {
            "id": self.vfpga_id,
            "state": self.state,
            "recoveries": self.recoveries,
            "watchdog_trips": self.watchdog_trips,
            "stuck_pids": list(self.stuck_pids),
        }


@dataclass(frozen=True)
class HealthReport:
    """Card-level verdict plus per-region detail."""

    card: str  # healthy | degraded | quarantined
    regions: Tuple[RegionHealth, ...]

    def as_dict(self) -> Dict:
        return {
            "card": self.card,
            "regions": [region.as_dict() for region in self.regions],
        }


class HealthMonitor:
    """Watches one card; attach with ``HealthMonitor(driver)``.

    Creating the monitor registers it on the driver (``driver.health``),
    shares (or creates) the driver's :class:`RecoveryManager`, and starts
    the heartbeat process.  One monitor per card.
    """

    def __init__(self, driver, config: HealthConfig = HealthConfig()):
        self.driver = driver
        self.env: Environment = driver.env
        self.config = config
        if driver.recovery is None:
            driver.recovery = RecoveryManager(driver, config)
        self.recovery: RecoveryManager = driver.recovery
        self._watchdogs: Dict[int, ProgressWatchdog] = {}
        for vfpga in driver.shell.vfpgas:
            vfpga_id = vfpga.vfpga_id
            self._watchdogs[vfpga_id] = ProgressWatchdog(
                name=f"wd-v{vfpga_id}",
                progress_fn=self._progress_fn(vfpga_id),
                busy_fn=self._busy_fn(vfpga_id),
                deadline_ns=config.deadline_ns,
            )
        self.polls = 0
        self.hung_verdicts = 0
        self._parked: Optional[Event] = None
        driver.attach_health(self)
        self.env.process(self._heartbeat(), name="health-heartbeat")

    # ------------------------------------------------------------- signals

    def _progress_fn(self, vfpga_id: int):
        def progress() -> int:
            driver = self.driver
            vfpga = driver.shell.vfpgas[vfpga_id]
            total = vfpga.interrupts_sent
            total += driver.completions_delivered.get(vfpga_id, 0)
            for crediter in vfpga.rd_credits.values():
                total += crediter.acquired_total
            for crediter in vfpga.wr_credits.values():
                total += crediter.acquired_total
            for scheduler in driver.schedulers:
                if scheduler.vfpga_id == vfpga_id:
                    total += scheduler.requests_served + scheduler.reconfigurations
            return total

        return progress

    def _busy_fn(self, vfpga_id: int):
        def busy() -> bool:
            return self._region_busy(vfpga_id)

        return busy

    def _region_busy(self, vfpga_id: int) -> bool:
        driver = self.driver
        if driver.reconfiguring(vfpga_id):
            # PR legitimately stalls the region for milliseconds; the
            # driver's own IRQ-timeout fallback bounds it.
            return False
        for ctx in driver.processes.values():
            if ctx.vfpga_id == vfpga_id and ctx.rings.outstanding:
                return True
        for scheduler in driver.schedulers:
            if scheduler.vfpga_id == vfpga_id and scheduler.has_work:
                return True
        return False

    def _stuck_pids(self, vfpga_id: int, now: float) -> Tuple[int, ...]:
        """Per-cThread watchdog: pids with a batch (invoke or doorbell)
        in flight longer than ``cthread_deadline_ns``."""
        stuck: List[int] = []
        for pid, ctx in self.driver.processes.items():
            if ctx.vfpga_id != vfpga_id:
                continue
            since = ctx.rings.oldest_open_ns()
            if since is not None and now - since >= self.config.cthread_deadline_ns:
                stuck.append(pid)
        return tuple(sorted(stuck))

    # ----------------------------------------------------------- heartbeat

    def _any_busy(self) -> bool:
        return any(
            self._region_busy(vfpga_id) for vfpga_id in self._watchdogs
        )

    def _heartbeat(self) -> Generator:
        while True:
            if not self._any_busy():
                # Park: the simulation can drain; an invoke, a doorbell or
                # a scheduler submit (or a finished recovery) kicks us awake.
                self._parked = Event(self.env)
                yield self._parked
                self._parked = None
                continue
            yield self.env.timeout(self.config.poll_interval_ns)
            self.poll_once()

    def notify_activity(self) -> None:
        """Unpark the heartbeat (called on new work entering the card)."""
        if self._parked is not None and not self._parked.triggered:
            self._parked.succeed()

    def on_region_recovered(self, vfpga_id: int) -> None:
        """Recovery pipeline finished (recovered *or* quarantined)."""
        watchdog = self._watchdogs.get(vfpga_id)
        if watchdog is not None:
            watchdog.reset()
        self.notify_activity()

    def poll_once(self) -> None:
        """Sample every region watchdog; spawn recovery on HUNG."""
        self.polls += 1
        now = self.env.now
        for vfpga_id, watchdog in self._watchdogs.items():
            state = self.recovery.state_of(vfpga_id)
            if state in (RegionState.RECOVERING, RegionState.QUARANTINED):
                continue
            verdict = watchdog.sample(now)
            stuck = ()
            if verdict is not Verdict.HUNG:
                stuck = self._stuck_pids(vfpga_id, now)
                if stuck:
                    watchdog.trips += 1  # cThread-level trip
            if verdict is Verdict.HUNG or stuck:
                self.hung_verdicts += 1
                if self.config.auto_recover:
                    reason = (
                        "watchdog" if verdict is Verdict.HUNG
                        else f"cthread pids {list(stuck)}"
                    )
                    self.env.process(
                        self.recovery.recover(vfpga_id, reason=reason),
                        name=f"recover-v{vfpga_id}",
                    )

    # -------------------------------------------------------------- report

    def report(self) -> HealthReport:
        now = self.env.now
        regions = []
        for vfpga_id, watchdog in sorted(self._watchdogs.items()):
            state = self.recovery.state_of(vfpga_id)
            regions.append(
                RegionHealth(
                    vfpga_id=vfpga_id,
                    state=state.value,
                    recoveries=self.recovery.recoveries.get(vfpga_id, 0),
                    watchdog_trips=watchdog.trips,
                    stuck_pids=self._stuck_pids(vfpga_id, now),
                )
            )
        states = {region.state for region in regions}
        if states <= {RegionState.HEALTHY.value}:
            card = "healthy"
        elif states == {RegionState.QUARANTINED.value}:
            card = "quarantined"
        else:
            card = "degraded"
        return HealthReport(card=card, regions=tuple(regions))


def health_section(driver) -> Dict:
    """The ``card_report()["health"]`` section for one driver."""
    section = _card_section(driver)
    cluster = getattr(driver, "cluster_health", None)
    if cluster is not None:
        section["cluster"] = cluster.section()
    return section


def _card_section(driver) -> Dict:
    if driver.health is not None:
        return driver.health.report().as_dict()
    if driver.recovery is not None:
        # Manual recovery without a monitor: report states, no watchdogs.
        regions = [
            driver.recovery.region_dict(vfpga.vfpga_id)
            for vfpga in driver.shell.vfpgas
        ]
        states = {region["state"] for region in regions}
        if states <= {"healthy"}:
            card = "healthy"
        elif states == {"quarantined"}:
            card = "quarantined"
        else:
            card = "degraded"
        return {"card": card, "regions": regions}
    return {"card": "unmonitored", "regions": []}
