"""vFPGA tenant checkpoint: capture, versioned encoding, restore.

A :class:`VfpgaCheckpoint` is everything the driver and shell hold on
behalf of one cThread, captured while its region is quiesced: CSR words,
credit-counter occupancy (an audit field: the migrator's drain window
lets credits reach zero before capture), the
command ring's head/tail CSRs plus every undrained descriptor, the MTT
(MR table), the virtual allocations, and a byte image of every mapped
page.  Version 2 dropped version 1's ``inflight_wrs`` audit field, which
no restore ever read.

The wire encoding is deliberately boring: a deterministic JSON body
(sorted keys, no whitespace) behind a fixed header of magic, a 2-byte
big-endian format version and the body's sha256.  Restores reject a bad
checksum (:class:`CheckpointCorruptError`) or an unknown version
(:class:`CheckpointVersionError`) before touching any destination state,
and determinism of the encoding is what lets the double-run tests assert
checkpoint equality by hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from ..core.interfaces import StreamType
from ..driver.ringbuf import RingOp, RingOpcode
from ..mem.allocator import AllocType
from ..mem.tlb import MemLocation
from .errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointUnsupportedError,
    CheckpointVersionError,
)

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "VfpgaCheckpoint",
    "memory_image",
    "snapshot_tenant",
    "restore_tenant",
]

CHECKPOINT_MAGIC = b"VFCK"
CHECKPOINT_VERSION = 2

#: Posted-MMIO cost of replaying one CSR word during restore.
RESTORE_CSR_WRITE_NS = 120.0


def _serialize_op(op: RingOp) -> Dict:
    return {
        "opcode": op.opcode.value,
        "mr_key": op.mr_key,
        "offset": op.offset,
        "length": op.length,
        "stream": op.stream.value,
        "dest": op.dest,
        "dst_mr_key": op.dst_mr_key,
        "dst_offset": op.dst_offset,
        "dst_length": op.dst_length,
        "dst_stream": op.dst_stream.value,
        "dst_dest": op.dst_dest,
    }


def _deserialize_op(data: Dict) -> RingOp:
    return RingOp(
        opcode=RingOpcode(data["opcode"]),
        mr_key=data["mr_key"],
        offset=data["offset"],
        length=data["length"],
        stream=StreamType(data["stream"]),
        dest=data["dest"],
        dst_mr_key=data["dst_mr_key"],
        dst_offset=data["dst_offset"],
        dst_length=data["dst_length"],
        dst_stream=StreamType(data["dst_stream"]),
        dst_dest=data["dst_dest"],
    )


@dataclass
class VfpgaCheckpoint:
    """One tenant's complete, restorable state."""

    pid: int
    vfpga_id: int
    src_node: int
    #: Kernel name the source scheduler had loaded (``None`` for raw
    #: cThreads driven without a scheduler).
    kernel: Optional[str]
    #: Stored CSR words, ``{index: value}``.
    csrs: Dict[int, int] = field(default_factory=dict)
    #: Credit occupancy at capture, ``{stream: {"rd": n, "wr": n}}``.
    credits: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: ``None`` when rings were never armed, else the ring geometry and
    #: every undrained descriptor.
    ring_slots: Optional[int] = None
    ring_head: int = 0
    ring_tail: int = 0
    ring_ops: List[Dict] = field(default_factory=list)
    #: MTT entries, key-sorted.
    mrs: List[Dict] = field(default_factory=list)
    #: Page vaddrs pinned in the TLB on behalf of the MRs (audit field).
    pinned_pages: List[int] = field(default_factory=list)
    #: Virtual allocations, vaddr-sorted.
    allocations: List[Dict] = field(default_factory=list)
    #: Page image, ``{str(page_vaddr): hex bytes}``.
    memory: Dict[str, str] = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    # ------------------------------------------------------------ encode

    def payload(self) -> Dict:
        return {
            "version": self.version,
            "pid": self.pid,
            "vfpga_id": self.vfpga_id,
            "src_node": self.src_node,
            "kernel": self.kernel,
            "csrs": {str(index): value for index, value in sorted(self.csrs.items())},
            "credits": self.credits,
            "ring_slots": self.ring_slots,
            "ring_head": self.ring_head,
            "ring_tail": self.ring_tail,
            "ring_ops": self.ring_ops,
            "mrs": self.mrs,
            "pinned_pages": sorted(self.pinned_pages),
            "allocations": self.allocations,
            "memory": self.memory,
        }

    def to_bytes(self) -> bytes:
        body = json.dumps(
            self.payload(), sort_keys=True, separators=(",", ":")
        ).encode()
        digest = hashlib.sha256(body).digest()
        return (
            CHECKPOINT_MAGIC
            + self.version.to_bytes(2, "big")
            + digest
            + body
        )

    def sha256(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()

    # ------------------------------------------------------------ decode

    @classmethod
    def from_payload(cls, payload: Dict) -> "VfpgaCheckpoint":
        version = payload.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(version, CHECKPOINT_VERSION)
        return cls(
            pid=payload["pid"],
            vfpga_id=payload["vfpga_id"],
            src_node=payload["src_node"],
            kernel=payload["kernel"],
            csrs={int(index): value for index, value in payload["csrs"].items()},
            credits=payload["credits"],
            ring_slots=payload["ring_slots"],
            ring_head=payload["ring_head"],
            ring_tail=payload["ring_tail"],
            ring_ops=payload["ring_ops"],
            mrs=payload["mrs"],
            pinned_pages=payload["pinned_pages"],
            allocations=payload["allocations"],
            memory=payload["memory"],
            version=version,
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "VfpgaCheckpoint":
        header = len(CHECKPOINT_MAGIC) + 2 + 32
        if len(data) < header or data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
            raise CheckpointCorruptError("not a vFPGA checkpoint (bad magic)")
        version = int.from_bytes(data[4:6], "big")
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(version, CHECKPOINT_VERSION)
        digest, body = data[6:header], data[header:]
        if hashlib.sha256(body).digest() != digest:
            raise CheckpointCorruptError("checkpoint sha256 mismatch")
        try:
            payload = json.loads(body.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointCorruptError(f"checkpoint body undecodable: {exc}")
        return cls.from_payload(payload)


# ----------------------------------------------------------------- capture


def memory_image(driver, pid: int) -> Dict[str, str]:
    """Byte image of every mapped page, ``{str(page_vaddr): hex}``.

    Card-resident pages are read back through the HBM controller;
    GPU-resident pages cannot be read back by the shell and raise
    :class:`CheckpointUnsupportedError`.
    """
    ctx = driver._ctx(pid)
    page = ctx.page_table.page_size
    host_mem = driver.shell.static.xdma.host_mem
    hbm = driver.shell.dynamic.hbm
    image: Dict[str, str] = {}
    for alloc in sorted(ctx.allocations, key=lambda a: a.vaddr):
        for page_no in range(alloc.num_pages):
            vaddr = alloc.vaddr + page_no * page
            entry = ctx.page_table.walk(vaddr)
            if entry.location is MemLocation.GPU:
                raise CheckpointUnsupportedError(
                    f"pid {pid}: page {vaddr:#x} is GPU-resident; "
                    "sync it to host before checkpointing"
                )
            if entry.location is MemLocation.CARD:
                data = hbm.read_now(entry.card_paddr, page)
            else:
                data = host_mem.read(entry.host_paddr, page)
            image[str(vaddr)] = data.hex()
    return image


def snapshot_tenant(
    driver,
    pid: int,
    src_node: int = -1,
    kernel: Optional[str] = None,
    memory: Optional[Dict[str, str]] = None,
) -> VfpgaCheckpoint:
    """Capture a quiesced tenant into a :class:`VfpgaCheckpoint`.

    Pure bookkeeping reads — call it with the region's movers quiesced
    and the drain window elapsed.  ``memory`` lets the caller supply a
    pre-computed :func:`memory_image` (the migrator's dirty-page pass).
    """
    ctx = driver._ctx(pid)
    vfpga = driver.shell.vfpgas[ctx.vfpga_id]
    page = ctx.page_table.page_size

    credits = {}
    for stream in sorted(vfpga.rd_credits, key=lambda s: s.value):
        credits[stream.value] = {
            "rd": vfpga.rd_credits[stream].in_flight,
            "wr": vfpga.wr_credits[stream].in_flight,
        }

    ckpt = VfpgaCheckpoint(
        pid=pid,
        vfpga_id=ctx.vfpga_id,
        src_node=src_node,
        kernel=kernel,
        csrs=vfpga.ctrl.snapshot(),
        credits=credits,
        memory=memory if memory is not None else memory_image(driver, pid),
    )

    for alloc in sorted(ctx.allocations, key=lambda a: a.vaddr):
        ckpt.allocations.append(
            {
                "vaddr": alloc.vaddr,
                "length": alloc.length,
                "alloc_type": alloc.alloc_type.name,
            }
        )

    pinned = set()
    for mr in sorted(ctx.mrs, key=lambda m: m.key):
        ckpt.mrs.append(
            {
                "key": mr.key,
                "vaddr": mr.vaddr,
                "length": mr.length,
                "writable": mr.writable,
                "num_pages": mr.num_pages,
            }
        )
        start = mr.vaddr - (mr.vaddr % page)
        while start < mr.end:
            pinned.add(start)
            start += page
    ckpt.pinned_pages = sorted(pinned)

    ring = ctx.rings.cmd
    if ring is not None:
        ckpt.ring_slots = ring.slots
        ckpt.ring_head = ring.head
        ckpt.ring_tail = ring.tail
        ckpt.ring_ops = [_serialize_op(op) for op, _, _ in ring._slots]
    return ckpt


# ----------------------------------------------------------------- restore


def restore_tenant(driver, ckpt: VfpgaCheckpoint) -> Generator:
    """Rebuild a checkpointed tenant on ``driver`` (a sim process).

    Order matters: allocations come back at their original vaddrs, page
    bytes are copied in, MRs re-pin their TLB entries under their
    original keys, the command ring is re-armed and rebased to the
    checkpointed head before the undrained descriptors are re-posted
    (which advances ``tail`` back to its recorded value), and finally the
    CSR words replay through ``csr_write`` so app write hooks rebuild
    derived state (e.g. an AES key schedule).  Any failure tears the
    half-restored pid back down before re-raising, so fallback-to-source
    never leaves a ghost tenant on the destination.
    """
    ctx = driver.open(ckpt.pid, ckpt.vfpga_id)
    try:
        for alloc in sorted(ckpt.allocations, key=lambda a: a["vaddr"]):
            yield from driver.restore_mem(
                ckpt.pid,
                alloc["vaddr"],
                alloc["length"],
                AllocType[alloc["alloc_type"]],
            )
        for vaddr_str in sorted(ckpt.memory, key=int):
            driver.write_buffer(
                ckpt.pid, int(vaddr_str), bytes.fromhex(ckpt.memory[vaddr_str])
            )
        for mr in sorted(ckpt.mrs, key=lambda m: m["key"]):
            restored = yield from driver.restore_mr(
                ckpt.pid,
                mr["key"],
                mr["vaddr"],
                mr["length"],
                mr["writable"],
            )
            if restored.num_pages != mr["num_pages"]:
                raise CheckpointError(
                    f"MR key {mr['key']}: pinned {restored.num_pages} pages, "
                    f"checkpoint recorded {mr['num_pages']}"
                )
        if ckpt.ring_slots is not None:
            rings = driver.setup_rings(ckpt.pid, ckpt.ring_slots)
            rings.cmd.rebase(ckpt.ring_head)
            for op in ckpt.ring_ops:
                driver.ring_post(ckpt.pid, _deserialize_op(op))
            if rings.cmd.tail != ckpt.ring_tail:
                raise CheckpointError(
                    f"ring re-arm mismatch: tail {rings.cmd.tail} != "
                    f"checkpointed {ckpt.ring_tail}"
                )
        vfpga = driver.shell.vfpgas[ckpt.vfpga_id]
        for index, value in sorted(ckpt.csrs.items()):
            vfpga.csr_write(index, value)
        if ckpt.csrs:
            yield driver.env.timeout(RESTORE_CSR_WRITE_NS * len(ckpt.csrs))
    except BaseException:
        driver.close(ckpt.pid, reason="restore failed")
        raise
    return ctx
