"""Lightweight spans: sim-time intervals with parent/child attribution.

Layered on :class:`repro.sim.tracing.Tracer`: every finished span is also
emitted as a trace record (source = the span's component, kind =
``"span"``), so existing trace tooling — including the bounded
ring-buffer mode — sees spans for free.

Spans measure *simulated* time.  A span's ``self_ns`` is its duration
minus the duration of its direct children, which is what makes per-layer
attribution honest: a driver reconfiguration span that spends 95% of its
time inside an ICAP-programming child span is not a driver hot spot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..sim.tracing import Tracer

__all__ = ["Span", "SpanRecorder"]


@dataclass
class Span:
    """One timed operation; ``end < 0`` while still open."""

    span_id: int
    component: str
    name: str
    start: float
    parent_id: Optional[int] = None
    end: float = -1.0
    child_ns: float = 0.0
    payload: Any = None

    @property
    def open(self) -> bool:
        return self.end < 0.0

    @property
    def duration_ns(self) -> float:
        return 0.0 if self.open else self.end - self.start

    @property
    def self_ns(self) -> float:
        """Duration not covered by direct children."""
        return max(0.0, self.duration_ns - self.child_ns)


class SpanRecorder:
    """Creates, links and aggregates spans against a simulation clock.

    Usage from process code::

        span = recorder.begin("driver", "reconfigure")
        ...                         # (simulated work)
        recorder.finish(span)

    Nesting is explicit — ``begin(parent=span)`` — because simulated
    processes interleave, so there is no implicit "current" span.
    """

    def __init__(self, env, tracer: Optional[Tracer] = None):
        self.env = env
        self.tracer = tracer
        self._next_id = 0
        self.finished: List[Span] = []
        self._open: Dict[int, Span] = {}

    def begin(
        self,
        component: str,
        name: str,
        parent: Optional[Span] = None,
        payload: Any = None,
    ) -> Span:
        span = Span(
            span_id=self._next_id,
            component=component,
            name=name,
            start=self.env.now,
            parent_id=parent.span_id if parent is not None else None,
            payload=payload,
        )
        self._next_id += 1
        self._open[span.span_id] = span
        return span

    def finish(self, span: Span) -> Span:
        if not span.open:
            raise ValueError(f"span {span.name!r} already finished")
        span.end = self.env.now
        self._open.pop(span.span_id, None)
        if span.parent_id is not None:
            parent = self._open.get(span.parent_id)
            if parent is not None:
                parent.child_ns += span.duration_ns
        self.finished.append(span)
        if self.tracer is not None:
            self.tracer.emit(
                span.end,
                span.component,
                "span",
                {
                    "name": span.name,
                    "start": span.start,
                    "duration_ns": span.duration_ns,
                    "parent": span.parent_id,
                },
            )
        return span

    def by_component(self) -> Dict[str, Dict[str, float]]:
        """Per-component sim-time attribution over all finished spans."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.finished:
            row = out.setdefault(
                span.component, {"count": 0, "total_ns": 0.0, "self_ns": 0.0}
            )
            row["count"] += 1
            row["total_ns"] += span.duration_ns
            row["self_ns"] += span.self_ns
        return out

    def format(self) -> str:
        """Aligned per-component summary, hottest self-time first."""
        rows = sorted(
            self.by_component().items(), key=lambda kv: -kv[1]["self_ns"]
        )
        lines = [f"{'component':<20} {'count':>7} {'total ms':>10} {'self ms':>10}"]
        for component, row in rows:
            lines.append(
                f"{component:<20} {row['count']:>7} "
                f"{row['total_ns'] / 1e6:>10.2f} {row['self_ns'] / 1e6:>10.2f}"
            )
        return "\n".join(lines)
