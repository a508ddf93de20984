"""Per-layer host self time for the traced run.

Two sources feed each layer's self time:

* ``SimProfiler`` component wall: every engine callback is charged to the
  process it resumes, and :data:`COMPONENT_LAYERS` maps the process name
  to a layer.
* Wall timers around the layers' public calls (:data:`TIMED_CALLS`).  A
  call that returns a generator (``Mmu.translate``, ``AxiStream.send``,
  ``Packetizer.split``) is timed per resumption, so simulated waiting is
  never counted, and a timed call's time is subtracted from whatever
  called it: from the enclosing timed call, or else from the process
  whose callback it ran in.

The timers are patched onto the classes only for a traced repetition and
removed afterwards; they forward every value, exception and return
unchanged, so the event stream is the one an untraced run produces (the
benchmark checks this by digest).
"""

from __future__ import annotations

import functools
import re
import time
import types
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.axi.stream import AxiStream
from repro.api.cthread import CThread
from repro.core.packetizer import Packetizer
from repro.driver import Driver
from repro.mem.hbm import HbmController
from repro.mem.mmu import Mmu
from repro.net import Cmac, RdmaStack
from repro.net.packet import RocePacket
from repro.pcie.link import PcieLink
from repro.pcie.xdma import Xdma
from repro.sim.resources import Container, Resource, Store
from repro.telemetry import SimProfiler
from repro.telemetry.profiler import component_of

__all__ = ["COMPONENT_LAYERS", "TIMED_CALLS", "LayerTracer"]

#: Process name (as ``SimProfiler`` folds it) -> layer.  First match
#: wins; components matching nothing are reported as ``other``.
COMPONENT_LAYERS: List[Tuple[re.Pattern, str]] = [
    (re.compile(p), layer) for p, layer in (
        (r"^bench-|^read_local$|^write_local$", "bench"),
        (r"^drv-", "driver"),
        (r"^v\d+-sq-(rd|wr)-dispatch$", "core.movers"),
        (r"^v\d+-(card|host)-(rd|wr)|^host-(rd|wr)-(xlat|dma)$|^_deposit$",
         "core.movers"),
        (r"^_channel_access$", "mem.hbm"),
        (r"-egress-|^_deliver_later$", "net.switch"),
        (r"-pfc-hold$", "net.cmac"),
        (r"-(rx|timer|wr-fetch|cnp)$|^_go_back_n$|^_fetcher$", "net.rdma"),
        (r"^v\d+-", "apps"),
    )
]


def layer_of_component(component: str) -> str:
    for pattern, layer in COMPONENT_LAYERS:
        if pattern.search(component):
            return layer
    return "other"


#: (class, attribute, layer) of every timed public call.
TIMED_CALLS = [
    (Resource, "request", "sim.resources"),
    (Resource, "release", "sim.resources"),
    (Store, "put", "sim.resources"),
    (Store, "get", "sim.resources"),
    (Store, "try_get", "sim.resources"),
    (Container, "put", "sim.resources"),
    (Container, "get", "sim.resources"),
    (AxiStream, "send", "axi"),
    (AxiStream, "send_bytes", "axi"),
    (AxiStream, "recv", "axi"),
    (AxiStream, "recv_message", "axi"),
    (Packetizer, "split", "core.packetizer"),
    (Mmu, "translate", "mem.mmu"),
    (Mmu, "translate_any", "mem.mmu"),
    (HbmController, "read", "mem.hbm"),
    (HbmController, "write", "mem.hbm"),
    (Xdma, "read_host", "pcie.xdma"),
    (Xdma, "write_host", "pcie.xdma"),
    (Xdma, "migrate", "pcie.xdma"),
    (Xdma, "writeback", "pcie.xdma"),
    (Xdma, "raise_msix", "pcie.xdma"),
    (PcieLink, "h2c", "pcie.xdma"),
    (PcieLink, "c2h", "pcie.xdma"),
    (Driver, "post_descriptor", "driver"),
    (Driver, "ring_post", "driver"),
    (Driver, "ring_doorbell", "driver"),
    (CThread, "invoke", "api.cthread"),
    (CThread, "post_many", "api.cthread"),
    (RdmaStack, "rdma_write", "net.rdma"),
    (RdmaStack, "rdma_read", "net.rdma"),
    (RocePacket, "build", "net.packet"),
    (RocePacket, "to_bytes", "net.packet"),
    (RocePacket, "from_bytes", "net.packet"),
    (Cmac, "tx", "net.cmac"),
    (Cmac, "deliver", "net.cmac"),
    (Cmac, "rx", "net.cmac"),
]
#: The switch hands each port its ingress callback through the public
#: ``Cmac.attach_wire``; the tracer times that callback as ``net.switch``.
SWITCH_INGRESS = (Cmac, "attach_wire", "net.switch")


class LayerTracer:
    """Collects per-layer self time and call counts for one traced run.

    Use as ``with LayerTracer() as tracer:`` around building and running
    the system; only the span between :meth:`start` and :meth:`stop`
    (the measured phase) is charged.
    """

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Items yielded by timed generator calls (packets for ``split``).
        self.yields: Dict[str, int] = defaultdict(int)
        #: Time of top-level timed calls, per profiler component they ran in.
        self._timed_in: Dict[str, float] = defaultdict(float)
        self._stack: List[float] = []
        self._component = "other"
        self._active = False
        self._patched: List[Tuple[type, str, object]] = []
        self.profiler = None
        self.run_wall_s = 0.0
        self._t0 = 0.0

    # ------------------------------------------------------------ lifecycle

    def __enter__(self) -> "LayerTracer":
        for cls, attr, layer in TIMED_CALLS:
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            if isinstance(original, classmethod):
                patched = classmethod(self._timed(original.__func__, layer, attr))
            else:
                patched = self._timed(original, layer, attr)
            setattr(cls, attr, patched)
        cls, attr, layer = SWITCH_INGRESS
        attach = cls.__dict__[attr]
        self._patched.append((cls, attr, attach))
        timed = self._timed

        def attach_wire(cmac, deliver):
            return attach(cmac, timed(deliver, layer, "ingress"))

        setattr(cls, attr, attach_wire)
        return self

    def __exit__(self, *exc) -> None:
        for cls, attr, original in reversed(self._patched):
            setattr(cls, attr, original)
        self._patched.clear()
        if self.profiler is not None:
            self.profiler.detach()

    def start(self, env) -> None:
        """Begin charging: attach the profiler to the measured phase."""
        self.profiler = _ComponentProfiler(self).attach(env)
        self._active = True
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        self.run_wall_s = time.perf_counter() - self._t0
        self._active = False
        self.profiler.detach()

    # --------------------------------------------------------------- timers

    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _leave(self, layer: str, begin: float) -> None:
        elapsed = time.perf_counter() - begin
        children = self._stack.pop()
        self.self_s[layer] += elapsed - children
        if self._stack:
            self._stack[-1] += elapsed
        else:
            self._timed_in[self._component] += elapsed

    def _timed(self, fn, layer: str, attr: str):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not tracer._active:
                result = fn(*args, **kwargs)
            else:
                tracer.calls[f"{layer}:{attr}"] += 1
                begin = tracer._enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._leave(layer, begin)
            if isinstance(result, types.GeneratorType):
                wrapper = tracer._resumptions(result, f"{layer}:{attr}", layer)
                # Keep the name a Process takes from its generator.
                wrapper.__name__ = result.__name__
                wrapper.__qualname__ = result.__qualname__
                return wrapper
            return result

        return timed

    def _resumptions(self, gen, label: str, layer: str):
        """Drive ``gen`` unchanged, timing each resumption."""
        value, error = None, None
        while True:
            active = self._active
            begin = self._enter() if active else 0.0
            try:
                if error is None:
                    item = gen.send(value)
                else:
                    item = gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                if active:
                    self._leave(layer, begin)
            if active:
                self.yields[label] += 1
            value, error = None, None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in by the engine: forward it
                error = exc

    # -------------------------------------------------------------- results

    def component_rows(self) -> List[Tuple[str, str, float]]:
        """(component, layer, own wall s) per profiler component, hottest first."""
        rows = [
            (comp, layer_of_component(comp), wall - self._timed_in.get(comp, 0.0))
            for comp, wall in self.profiler.wall_s.items()
        ]
        return sorted(rows, key=lambda row: (-row[2], row[0]))

    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer: timed calls plus their processes' own time."""
        out: Dict[str, float] = defaultdict(float)
        for layer, seconds in self.self_s.items():
            out[layer] += seconds
        for _component, layer, own in self.component_rows():
            out[layer] += own
        out["sim"] += self.run_wall_s - self.profiler.total_wall_s
        return dict(out)


class _ComponentProfiler(SimProfiler):
    """``SimProfiler`` that also tells the tracer which component is
    running, so a top-level timed call is subtracted from that component.
    Keeps only the events and wall ledgers, to add as little as possible
    to the engine's own time."""

    def __init__(self, tracer: LayerTracer):
        super().__init__()
        self._tracer = tracer

    def run_callbacks(self, event, callbacks) -> None:
        tracer, events, wall_s = self._tracer, self.events, self.wall_s
        clock = time.perf_counter
        for callback in callbacks:
            component = component_of(callback, event)
            tracer._component = component
            begin = clock()
            callback(event)
            elapsed = clock() - begin
            events[component] = events.get(component, 0) + 1
            wall_s[component] = wall_s.get(component, 0.0) + elapsed
            self.total_events += 1
            self.total_wall_s += elapsed
