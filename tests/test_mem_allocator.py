"""Unit tests for virtual and frame allocators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import (
    AllocType,
    FrameAllocator,
    OutOfMemoryError,
    VirtualAllocator,
)
from repro.mem.tlb import PAGE_2M, PAGE_4K


def test_alloc_types_map_to_page_sizes():
    assert AllocType.REG.page_size == 4 * 1024
    assert AllocType.THP.page_size == 2 * 1024 * 1024
    assert AllocType.HPF.page_size == 2 * 1024 * 1024
    assert AllocType.HPF1G.page_size == 1024 * 1024 * 1024


def test_virtual_allocations_page_aligned():
    va = VirtualAllocator()
    a = va.allocate(100, AllocType.REG)
    b = va.allocate(100, AllocType.HPF)
    assert a.vaddr % PAGE_4K == 0
    assert b.vaddr % PAGE_2M == 0


def test_virtual_allocations_do_not_overlap():
    va = VirtualAllocator()
    allocs = [va.allocate(5000, AllocType.REG) for _ in range(10)]
    spans = sorted((a.vaddr, a.vaddr + a.num_pages * a.page_size) for a in allocs)
    for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
        assert e1 <= s2


def test_num_pages_rounds_up():
    va = VirtualAllocator()
    a = va.allocate(PAGE_4K + 1, AllocType.REG)
    assert a.num_pages == 2


def test_find_allocation():
    va = VirtualAllocator()
    a = va.allocate(4096, AllocType.REG)
    assert va.find(a.vaddr) is a
    assert va.find(a.vaddr + 4095) is a
    with pytest.raises(KeyError):
        va.find(0)


def test_free_removes_allocation():
    va = VirtualAllocator()
    a = va.allocate(4096, AllocType.REG)
    va.free(a)
    with pytest.raises(KeyError):
        va.find(a.vaddr)
    with pytest.raises(KeyError):
        va.free(a)


def test_zero_length_rejected():
    with pytest.raises(ValueError):
        VirtualAllocator().allocate(0)


def test_frame_allocator_unique_frames():
    fa = FrameAllocator(total_bytes=16 * PAGE_4K, frame_size=PAGE_4K)
    frames = {fa.allocate() for _ in range(16)}
    assert len(frames) == 16
    assert all(f % PAGE_4K == 0 for f in frames)


def test_frame_allocator_exhaustion():
    fa = FrameAllocator(total_bytes=2 * PAGE_4K, frame_size=PAGE_4K)
    fa.allocate()
    fa.allocate()
    with pytest.raises(OutOfMemoryError):
        fa.allocate()


def test_frame_free_and_reuse():
    fa = FrameAllocator(total_bytes=PAGE_4K, frame_size=PAGE_4K)
    f = fa.allocate()
    fa.free(f)
    assert fa.allocate() == f


def test_frame_free_validation():
    fa = FrameAllocator(total_bytes=4 * PAGE_4K, frame_size=PAGE_4K)
    with pytest.raises(ValueError):
        fa.free(123)  # unaligned
    with pytest.raises(ValueError):
        fa.free(PAGE_4K)  # never allocated


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(st.booleans(), min_size=1, max_size=200))
def test_frame_accounting_invariant(ops):
    """free + used == total, regardless of the alloc/free sequence."""
    fa = FrameAllocator(total_bytes=32 * PAGE_4K, frame_size=PAGE_4K)
    held = []
    for do_alloc in ops:
        if do_alloc and fa.frames_free:
            held.append(fa.allocate())
        elif held:
            fa.free(held.pop())
        assert fa.frames_free + fa.frames_used == fa.num_frames
        assert fa.frames_used == len(held)


class _EagerFrames:
    """Reference model: the eager list of every frame the allocator used
    to build up front (lowest frame on top, freed frames pushed back)."""

    def __init__(self, num_frames):
        self.free = list(range(num_frames - 1, -1, -1))

    def allocate(self):
        return self.free.pop() if self.free else None

    def release(self, frame):
        self.free.append(frame)


@settings(max_examples=60, deadline=None)
@given(
    num_frames=st.integers(min_value=1, max_value=24),
    ops=st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=63)), max_size=120),
)
def test_lazy_frames_match_eager_free_list(num_frames, ops):
    """Same addresses as the eager list, and OOM at exactly num_frames."""
    fa = FrameAllocator(total_bytes=num_frames * PAGE_4K, frame_size=PAGE_4K)
    ref = _EagerFrames(num_frames)
    held = []
    for do_alloc, pick in ops:
        if do_alloc or not held:
            expected = ref.allocate()
            if expected is None:
                assert len(held) == num_frames
                with pytest.raises(OutOfMemoryError):
                    fa.allocate()
                continue
            paddr = fa.allocate()
            assert paddr == expected * PAGE_4K
            held.append(paddr)
        else:
            paddr = held.pop(pick % len(held))
            fa.free(paddr)
            ref.release(paddr // PAGE_4K)
        assert fa.frames_used == len(held)
        assert fa.frames_free == num_frames - len(held)
    # Drain: exactly the frames left over, then out of memory.
    for _ in range(num_frames - len(held)):
        fa.allocate()
    with pytest.raises(OutOfMemoryError):
        fa.allocate()

