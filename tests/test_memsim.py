"""Unit tests for the memory simulator: heap, stack, meter."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memsim.costs import CLOCK_HZ, CostModel
from repro.memsim.heap import PAGE_SIZE, HeapModel, SimulationError
from repro.memsim.meter import MemoryMeter
from repro.memsim.stack import INITIAL_STACK_BYTES, StackModel


class TestHeap:
    def test_malloc_returns_distinct_regions(self):
        heap = HeapModel()
        a = heap.malloc(100)
        b = heap.malloc(100)
        assert a != b
        assert heap.live_bytes >= 200

    def test_free_then_reuse(self):
        heap = HeapModel()
        a = heap.malloc(256)
        heap.free(a)
        b = heap.malloc(256)
        assert b == a, "first-fit must reuse the freed block"

    def test_free_list_coalesces_neighbours(self):
        heap = HeapModel()
        a = heap.malloc(128)
        b = heap.malloc(128)
        heap.free(a)
        heap.free(b)
        c = heap.malloc(256)
        assert c == a, "adjacent free blocks must merge"

    def test_double_free_raises(self):
        heap = HeapModel()
        a = heap.malloc(64)
        heap.free(a)
        with pytest.raises(SimulationError):
            heap.free(a)

    def test_brk_never_shrinks(self):
        heap = HeapModel()
        a = heap.malloc(10 * PAGE_SIZE)
        high = heap.segment_bytes
        heap.free(a)
        assert heap.segment_bytes == high

    def test_realloc_grows(self):
        heap = HeapModel()
        a = heap.malloc(64)
        new_addr, _ = heap.realloc(a, 128)
        assert heap.allocations[new_addr] >= 128

    def test_realloc_noop_when_smaller(self):
        heap = HeapModel()
        a = heap.malloc(256)
        new_addr, pages = heap.realloc(a, 64)
        assert new_addr == a and pages == 0

    def test_resident_pages_track_touches(self):
        heap = HeapModel()
        heap.malloc(3 * PAGE_SIZE)
        assert heap.resident_bytes >= 3 * PAGE_SIZE

    def test_alignment(self):
        heap = HeapModel()
        a = heap.malloc(3)
        b = heap.malloc(5)
        assert a % 8 == 0 and b % 8 == 0

    @given(
        st.lists(
            st.integers(min_value=1, max_value=4096),
            min_size=1,
            max_size=30,
        )
    )
    def test_live_bytes_conserved(self, sizes):
        heap = HeapModel()
        addrs = [heap.malloc(s) for s in sizes]
        for addr in addrs:
            heap.free(addr)
        assert heap.live_bytes == 0
        assert not heap.allocations

    @given(
        st.lists(
            st.integers(min_value=1, max_value=2048),
            min_size=2,
            max_size=20,
        )
    )
    def test_allocations_never_overlap(self, sizes):
        heap = HeapModel()
        regions = []
        for i, size in enumerate(sizes):
            addr = heap.malloc(size)
            regions.append((addr, heap.allocations[addr]))
            if i % 3 == 2:
                victim = regions.pop(0)
                heap.free(victim[0])
        regions.sort()
        for (a1, s1), (a2, _) in zip(regions, regions[1:]):
            assert a1 + s1 <= a2


class NaiveHeap:
    """First fit over a free list that every free re-sorts and re-merges
    whole: the reference for HeapModel's addresses."""

    def __init__(self):
        self.free_list = []  # (addr, size), sorted by addr
        self.sizes = {}
        self.brk = 0

    def malloc(self, size):
        size = max(8, (size + 7) // 8 * 8)
        for i, (addr, have) in enumerate(self.free_list):
            if have >= size:
                if have > size:
                    self.free_list[i] = (addr + size, have - size)
                else:
                    del self.free_list[i]
                self.sizes[addr] = size
                return addr
        addr = self.brk
        self.brk += size
        self.sizes[addr] = size
        return addr

    def free(self, addr):
        merged = []
        for a, s in sorted(self.free_list + [(addr, self.sizes.pop(addr))]):
            if merged and merged[-1][0] + merged[-1][1] == a:
                merged[-1] = (merged[-1][0], merged[-1][1] + s)
            else:
                merged.append((a, s))
        self.free_list = merged

    def realloc(self, addr, size):
        if size <= self.sizes[addr]:
            return addr
        self.free(addr)
        return self.malloc(size)


class TestHeapAgainstNaiveReference:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["malloc", "free", "realloc"]),
                st.integers(min_value=1, max_value=4096),
                st.integers(min_value=0, max_value=1000),
            ),
            max_size=80,
        )
    )
    def test_same_addresses_and_free_list(self, ops):
        heap, naive = HeapModel(), NaiveHeap()
        for op, size, pick in ops:
            live = sorted(naive.sizes)
            if op == "malloc" or not live:
                assert heap.malloc(size) == naive.malloc(size)
            elif op == "free":
                heap.free(live[pick % len(live)])
                naive.free(live[pick % len(live)])
            else:
                addr = live[pick % len(live)]
                assert heap.realloc(addr, size)[0] == naive.realloc(addr, size)
            assert [(b.addr, b.size) for b in heap.free_list] == naive.free_list
            assert heap.allocations == naive.sizes
            assert heap.brk == naive.brk


class TestStack:
    def test_initial_environment_page(self):
        stack = StackModel()
        assert stack.segment_bytes == INITIAL_STACK_BYTES

    def test_grows_in_pages(self):
        stack = StackModel()
        stack.push_frame(100)
        assert stack.segment_bytes == PAGE_SIZE * 2  # env + frame page
        stack.push_frame(3 * PAGE_SIZE)
        assert stack.segment_bytes % PAGE_SIZE == 0

    def test_high_watermark_persists(self):
        stack = StackModel()
        stack.push_frame(4 * PAGE_SIZE)
        stack.pop_frame()
        assert stack.segment_bytes >= 5 * PAGE_SIZE  # env + 4 pages

    def test_current_bytes_follow_frames(self):
        stack = StackModel()
        before = stack.current_bytes
        stack.push_frame(1000)
        assert stack.current_bytes == before + 1000
        stack.pop_frame()
        assert stack.current_bytes == before


class TestMeter:
    def test_time_weighted_average(self):
        heap = HeapModel()
        stack = StackModel()
        meter = MemoryMeter(heap, stack, binary_image_bytes=0)
        addr = heap.malloc(10_000)
        meter.sample(10.0)       # 10 cycles at 10 000 live bytes
        heap.free(addr)
        meter.sample(20.0)       # 10 cycles at 0 live bytes... sampled
        report = meter.report()
        # average heap over [0, 20] = (10000·10 + 0·10)/20 = 5000 B
        assert report.avg_heap_kb == pytest.approx(10_000 * 10 / 20 / 1024)

    def test_kcore_min_definition(self):
        heap = HeapModel()
        stack = StackModel()
        meter = MemoryMeter(heap, stack, binary_image_bytes=0)
        heap.malloc(1024 * 100)
        meter.sample(CLOCK_HZ * 60)  # one minute of cycles
        report = meter.report()
        assert report.kcore_min == pytest.approx(
            report.avg_dynamic_kb * 1.0, rel=1e-6
        )

    def test_resident_image_parameter(self):
        heap = HeapModel()
        stack = StackModel()
        meter = MemoryMeter(
            heap, stack, binary_image_bytes=1000 * 1024,
            resident_image_bytes=400 * 1024,
        )
        meter.sample(100.0)
        report = meter.report()
        assert report.avg_virtual_kb > report.avg_resident_kb

    def test_peak_tracking(self):
        heap = HeapModel()
        stack = StackModel()
        meter = MemoryMeter(heap, stack, binary_image_bytes=0)
        a = heap.malloc(50_000)
        meter.sample(5.0)
        heap.free(a)
        meter.sample(10.0)
        report = meter.report()
        assert report.peak_dynamic_kb >= 50_000 / 1024


class TestCostModel:
    def test_seconds_conversion(self):
        costs = CostModel()
        assert costs.seconds(CLOCK_HZ) == pytest.approx(1.0)

    def test_library_model_dominates_compiled(self):
        costs = CostModel()
        compiled_scalar = costs.scalar_op
        mcc_scalar_boxed = (
            costs.library_call
            + costs.type_check
            + costs.mxarray_create
            + costs.mxarray_free
        )
        assert mcc_scalar_boxed > 50 * compiled_scalar
