"""Ring-buffer command path: cmdReqQ/cmdRespQ descriptor rings (paper §6).

Coyote v2's shell is driven the way modern NICs are: software writes
work descriptors into fixed-slot rings living in host memory, then rings
a doorbell CSR; the shell DMA-fetches every new slot in one burst and
writes completions back in batches (blue-rdma's ``Ringbuf`` /
``WorkQueueRingbuf`` layering is the reference implementation).

There is one submit/completion path.  Every process gets a
:class:`RingState` when it opens the driver: its completion router.
A doorbell drains the cmdReqQ (armed by ``Driver.setup_rings``) into
one :class:`CompletionBatch`; a per-call ``CThread.invoke`` is a
one-op batch on the same router, submitted by the ioctl without a
CSR write.  Either way the drained work reaches each vFPGA send queue
as one burst, and the batch event is the only completion software
waits on; a completion no batch is gated on is dropped.

The model here keeps the ring mechanics honest but foreshortens one
thing: slots are recycled when the doorbell drains them, not when their
completions retire (a real ring frees slots at the consumer index).
Draining at the doorbell keeps head/tail arithmetic observable while
letting the completion side live in :class:`CompletionBatch` — the
batched cmdRespQ writeback that fires **one** event per drained doorbell
instead of one interrupt per work request.

Ring descriptors never carry raw virtual addresses.  Software first
registers memory regions (:class:`MrTable`, the MTT analogue): a
registration walks and *pins* the region's pages in the vFPGA's TLB, and
every :class:`RingOp` names an ``(mr_key, offset)`` pair that the driver
validates — unknown keys, out-of-bounds slices and writes through
read-only regions all fail with typed errors before any hardware sees
the request.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..core.interfaces import StreamType
from ..sim.engine import Environment, Event
from .errors import (
    MrError,
    MrKeyError,
    MrBoundsError,
    MrAccessError,
    MrOverlapError,
    RingError,
    RingFullError,
)

__all__ = [
    "DEFAULT_RING_SLOTS",
    "RingOpcode",
    "RingOp",
    "Slice",
    "MemoryRegion",
    "MrTable",
    "CommandRing",
    "CompletionBatch",
    "RingState",
]

#: Default cmdReqQ depth; matches a 4 KB ring page of 64-byte descriptors.
DEFAULT_RING_SLOTS = 64


class RingOpcode(Enum):
    """What a ring slot asks the shell to do (subset of ``CoyoteOper``)."""

    READ = "read"  # memory -> vFPGA stream
    WRITE = "write"  # vFPGA stream -> memory
    TRANSFER = "transfer"  # read + write through the kernel


@dataclass
class RingOp:
    """One cmdReqQ slot: an operation phrased against registered MRs.

    ``mr_key``/``offset``/``length`` name the source slice for ``READ``
    and ``TRANSFER`` and the destination slice for ``WRITE``; a
    ``TRANSFER`` additionally names its destination with the ``dst_*``
    fields (``dst_length`` defaults to ``length``).
    """

    opcode: RingOpcode
    mr_key: int
    offset: int = 0
    length: int = 0
    stream: StreamType = StreamType.HOST
    dest: int = 0
    dst_mr_key: Optional[int] = None
    dst_offset: int = 0
    dst_length: Optional[int] = None
    dst_stream: StreamType = StreamType.HOST
    dst_dest: int = 0


class Slice(NamedTuple):
    """One half of a work request, resolved to what the shell sees: the
    memory slice a send-queue descriptor moves and the stream it uses."""

    vaddr: int
    length: int
    stream: StreamType = StreamType.HOST
    dest: int = 0
    #: Memory-region key the vaddr was resolved from (ring ops only).
    mr_key: Optional[int] = None


@dataclass
class MemoryRegion:
    """One MTT entry: a registered, pinned slice of a process's VA space."""

    key: int
    pid: int
    vaddr: int
    length: int
    writable: bool = True
    #: Pages pinned in the vFPGA TLB on behalf of this region (filled in
    #: by the driver once registration completed).
    num_pages: int = 0

    @property
    def end(self) -> int:
        return self.vaddr + self.length


class MrTable:
    """Per-process memory-region table (the driver's MTT shadow).

    Pure bookkeeping — the driver charges registration latency and does
    the page-table walks/TLB pinning; this class owns key allocation,
    overlap rejection and the key -> vaddr resolution ring slots rely on.
    """

    def __init__(self, pid: int):
        self.pid = pid
        self._regions: Dict[int, MemoryRegion] = {}
        self._next_key = 1

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self):
        return iter(self._regions.values())

    def _check_range(self, vaddr: int, length: int) -> None:
        if length <= 0:
            raise MrError(f"MR length must be positive, got {length}")
        if vaddr < 0:
            raise MrError(f"MR vaddr must be non-negative, got {vaddr:#x}")
        for mr in self._regions.values():
            if vaddr < mr.end and mr.vaddr < vaddr + length:
                raise MrOverlapError(
                    f"[{vaddr:#x}, {vaddr + length:#x}) overlaps MR key "
                    f"{mr.key} [{mr.vaddr:#x}, {mr.end:#x})"
                )

    def register(self, vaddr: int, length: int, writable: bool = True) -> MemoryRegion:
        self._check_range(vaddr, length)
        mr = MemoryRegion(
            key=self._next_key,
            pid=self.pid,
            vaddr=vaddr,
            length=length,
            writable=writable,
        )
        self._next_key += 1
        self._regions[mr.key] = mr
        return mr

    def restore(
        self, key: int, vaddr: int, length: int, writable: bool = True
    ) -> MemoryRegion:
        """Re-create a region with its *original* key (checkpoint restore).

        Ring descriptors captured in a checkpoint name MR keys, so the
        destination MTT must reproduce the source's key assignment
        exactly; the allocator cursor jumps past restored keys so fresh
        registrations never collide with them.
        """
        if key in self._regions:
            raise MrKeyError(f"pid {self.pid}: MR key {key} already in use")
        if key <= 0:
            raise MrKeyError(f"pid {self.pid}: invalid MR key {key}")
        self._check_range(vaddr, length)
        mr = MemoryRegion(
            key=key, pid=self.pid, vaddr=vaddr, length=length, writable=writable
        )
        self._regions[key] = mr
        self._next_key = max(self._next_key, key + 1)
        return mr

    def lookup(self, key: int) -> MemoryRegion:
        mr = self._regions.get(key)
        if mr is None:
            raise MrKeyError(f"pid {self.pid}: no MR with key {key}")
        return mr

    def resolve(self, key: int, offset: int, length: int, write: bool) -> int:
        """Validate an ``(mr_key, offset, length)`` slice; return its vaddr."""
        mr = self.lookup(key)
        if offset < 0 or offset + length > mr.length:
            raise MrBoundsError(
                f"MR key {key}: slice [{offset}, {offset + length}) outside "
                f"region of {mr.length} bytes"
            )
        if write and not mr.writable:
            raise MrAccessError(f"MR key {key} is registered read-only")
        return mr.vaddr + offset

    def deregister(self, key: int) -> MemoryRegion:
        mr = self._regions.pop(key, None)
        if mr is None:
            raise MrKeyError(f"pid {self.pid}: no MR with key {key}")
        return mr


class CommandRing:
    """A fixed-slot cmdReqQ with head/tail CSR semantics.

    ``tail`` is the software producer index, ``head`` the hardware
    consumer index; both increase monotonically, so ``tail - head`` is
    the occupancy.  :meth:`post` fills the next slot (raising
    :class:`RingFullError` when no slot is free) and :meth:`drain` is
    the doorbell's consumer side: it hands back every posted slot and
    advances ``head`` to ``tail`` in one step.
    """

    def __init__(self, slots: int = DEFAULT_RING_SLOTS):
        if slots <= 0:
            raise RingError(f"ring needs at least one slot, got {slots}")
        self.slots = slots
        self.head = 0
        self.tail = 0
        self._slots: deque = deque()
        self.high_water = 0

    @property
    def occupancy(self) -> int:
        return self.tail - self.head

    @property
    def free(self) -> int:
        return self.slots - self.occupancy

    def post(self, entry) -> int:
        """Fill the next free slot; returns the slot's absolute index."""
        if self.occupancy >= self.slots:
            raise RingFullError(
                f"ring full: {self.slots} slots posted since the last doorbell"
            )
        index = self.tail
        self._slots.append(entry)
        self.tail += 1
        self.high_water = max(self.high_water, self.occupancy)
        return index

    def drain(self) -> List:
        """Doorbell consumer side: take every new slot, advance head."""
        batch = list(self._slots)
        self._slots.clear()
        self.head = self.tail
        return batch

    def rebase(self, head: int) -> None:
        """Rewind the monotonic indices to a checkpointed ``head`` so a
        restored ring reproduces the source's CSR values exactly; only
        legal on an empty, drained ring (re-posting the checkpointed
        slots then advances ``tail`` to its recorded value)."""
        if self._slots or self.head != self.tail:
            raise RingError("cannot rebase a ring with slots posted")
        if head < 0:
            raise RingError(f"ring head must be non-negative, got {head}")
        self.head = head
        self.tail = head


class CompletionBatch:
    """The cmdRespQ writeback for one drained doorbell (or one invoke).

    Each work request the drain produced registers a *gate* key; the
    batch's event fires exactly once — when the last gate completes —
    with the list of :class:`~repro.core.interfaces.CompletionEntry`
    values in gate-registration order.  That single event is the "one
    interrupt or poll per drain" of the ring ABI.  ``TRANSFER`` work
    also registers an *absorb* key for its read half: that completion
    is consumed silently.
    """

    def __init__(self, event: Event, opened_ns: float):
        self.event = event
        #: When the batch was submitted (the per-cThread watchdog ages it).
        self.opened_ns = opened_ns
        #: Gate keys ``(write, wr_id)`` in registration order.
        self.keys: List[Tuple[bool, int]] = []
        #: Absorb keys (``TRANSFER`` read halves).
        self.absorbs: List[Tuple[bool, int]] = []
        self._entries: Dict[Tuple[bool, int], object] = {}

    def collect(self, key: Tuple[bool, int], entry) -> bool:
        """Record one gate completion; True once the batch is complete."""
        self._entries[key] = entry
        return len(self._entries) >= len(self.keys)

    def results(self) -> List:
        return [self._entries[key] for key in self.keys]


class RingState:
    """One process's completion router plus, once armed, its cmdReqQ.

    The driver creates it at ``open()``; ``cmd`` stays ``None`` until
    ``Driver.setup_rings`` arms the command ring.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.cmd: Optional[CommandRing] = None
        self._gates: Dict[Tuple[bool, int], CompletionBatch] = {}
        self._absorbed: Dict[Tuple[bool, int], CompletionBatch] = {}
        self.batches_opened = 0
        self.batches_completed = 0

    def open_batch(self) -> CompletionBatch:
        self.batches_opened += 1
        return CompletionBatch(Event(self.env), self.env.now)

    def gate(self, batch: CompletionBatch, key: Tuple[bool, int]) -> None:
        batch.keys.append(key)
        self._gates[key] = batch

    def absorb(self, batch: CompletionBatch, key: Tuple[bool, int]) -> None:
        batch.absorbs.append(key)
        self._absorbed[key] = batch

    @property
    def outstanding(self) -> int:
        """Work requests submitted whose completion has not arrived."""
        return len(self._gates)

    def oldest_open_ns(self) -> Optional[float]:
        """Submit time of the oldest batch still waiting on a gate."""
        return min((batch.opened_ns for batch in self._gates.values()), default=None)

    def on_completion(self, write: bool, entry) -> None:
        """Route one hardware completion to the batch gated on it; a
        completion nothing is gated on (a cancelled invoke, a request
        the hardware issued itself) is dropped."""
        key = (write, entry.wr_id)
        if self._absorbed.pop(key, None) is not None:
            return
        batch = self._gates.pop(key, None)
        if batch is not None and batch.collect(key, entry):
            self.batches_completed += 1
            batch.event.succeed(batch.results())

    def cancel(self, batch: CompletionBatch) -> None:
        """Forget a batch its waiter gave up on (an invoke timeout): its
        late completions then match nothing and are dropped."""
        for key in batch.keys:
            self._gates.pop(key, None)
        for key in batch.absorbs:
            self._absorbed.pop(key, None)

    def fail_batches(self, exc: Exception) -> int:
        """Fail every in-flight batch (region recovery / teardown).

        Returns the number of *work requests* that will never complete.
        """
        failed = len(self._gates)
        seen: List[CompletionBatch] = []
        for batch in self._gates.values():
            if any(batch is b for b in seen):
                continue
            seen.append(batch)
            if not batch.event.triggered:
                batch.event.defuse().fail(exc)
        self._gates.clear()
        self._absorbed.clear()
        return failed
