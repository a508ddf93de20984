"""How fast the host runs Python right now, from a fixed reference loop.

The benchmark shares a few cores of a host with other tenants, and the
CPU time a fixed piece of Python takes swings by up to about 2 times from
one stretch of seconds to the next.  A run that happens to land in a
fast stretch reports a fast program.  To take that out, the benchmark
interleaves :func:`reference` with the work it times (between the
slices of every measured phase, around every set-up) and scales each
timing by how long the reference took right next to it.

The reference is a small discrete-event loop: a heap of timestamped
tokens, generator "processes" resumed with ``send``, a dict written
per step; the same kind of work the simulator's engine does.  It uses
the standard library only and imports nothing from ``repro``, so no
change to the program can speed it up or slow it down.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Iterable, List

__all__ = ["REFERENCE_S", "reference", "scaled"]

#: Token-loop steps in one :func:`reference` call.
STEPS = 500
#: CPU seconds one :func:`reference` call takes on the host the scaled
#: timings are expressed for: a 2-core Xeon (Sapphire Rapids) KVM guest,
#: Python 3.11, as that host ran most of the time.  Scaled timings read
#: as CPU seconds on that host.
REFERENCE_S = 0.00067


class _Token:
    __slots__ = ("when", "seq", "process")

    def __init__(self, when: float, seq: int, process):
        self.when = when
        self.seq = seq
        self.process = process

    def __lt__(self, other: "_Token") -> bool:
        if self.when != other.when:
            return self.when < other.when
        return self.seq < other.seq


def _process(k: int):
    total = 0
    while True:
        total = (total + (yield (k * 7 + total) % 13 + 1)) & 0xFFFF


def reference() -> float:
    """Run the reference loop once; returns the CPU seconds it took.

    The loop allocates as the engine does, a new token per step, but
    with the cyclic garbage collector paused: otherwise the collections
    its allocations set off would scan the measured program's heap and
    cost whatever that heap holds.  Every object it makes is freed
    before it returns.
    """
    collecting = gc.isenabled()
    gc.disable()
    begin = time.process_time()
    heap = []
    for k in range(8):
        process = _process(k)
        next(process)
        heap.append(_Token(float(k), k, process))
    seen = {}
    for seq in range(len(heap), len(heap) + STEPS):
        token = heapq.heappop(heap)
        seen[seq & 63] = token
        heapq.heappush(heap, _Token(token.when + token.process.send(1), seq, token.process))
    del heap, seen, token
    took = time.process_time() - begin
    if collecting:
        gc.enable()
    return took


def scaled(cpu_s: float, references: Iterable[float]) -> float:
    """``cpu_s`` as it would read on the host :data:`REFERENCE_S` is for,
    given the reference timings taken alongside it."""
    references = list(references)
    return cpu_s * REFERENCE_S * len(references) / sum(references)
