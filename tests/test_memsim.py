"""Unit tests for the memory simulator: heap, stack, meter."""

from dataclasses import asdict, dataclass

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.memsim.costs import CLOCK_HZ, CostModel
from repro.memsim.heap import PAGE_SIZE, HeapModel, SimulationError
from repro.memsim.meter import MemoryMeter, MemoryReport
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


@dataclass
class SeriesAverage:
    weighted_sum: float = 0.0
    peak: float = 0.0

    def add(self, value, dt):
        self.weighted_sum += value * dt
        if value > self.peak:
            self.peak = value

    def average(self, total_time):
        return self.weighted_sum / total_time if total_time > 0 else 0.0


class ReferenceMeter:
    """Equation 2 as first written: every sample that advances the
    clock re-reads all five series from the models and adds each."""

    def __init__(self, heap, stack, image, resident_image):
        self.heap, self.stack = heap, stack
        self.image, self.resident_image = image, resident_image
        self.last = 0.0
        self.series = {
            name: SeriesAverage()
            for name in ("stack", "heap", "dynamic", "virtual", "resident")
        }

    def sample(self, clock):
        dt = clock - self.last
        if dt <= 0:
            return
        self.last = clock
        stack, heap = self.stack, self.heap
        values = {
            "stack": stack.segment_bytes,
            "heap": heap.live_bytes,
            "dynamic": stack.depth_bytes + heap.live_bytes,
            "virtual": self.image + stack.segment_bytes + heap.segment_bytes,
            "resident": self.resident_image + stack.resident_bytes
            + heap.resident_bytes,
        }
        for name, value in values.items():
            self.series[name].add(value, dt)

    def report(self):
        t = self.last
        seconds = t / CLOCK_HZ
        kb = {
            name: series.average(t) / 1024.0
            for name, series in self.series.items()
        }
        return MemoryReport(
            avg_stack_kb=kb["stack"],
            avg_heap_kb=kb["heap"],
            avg_dynamic_kb=kb["dynamic"],
            avg_virtual_kb=kb["virtual"],
            avg_resident_kb=kb["resident"],
            peak_dynamic_kb=self.series["dynamic"].peak / 1024.0,
            execution_seconds=seconds,
            kcore_min=kb["dynamic"] * (seconds / 60.0),
            mallocs=self.heap.malloc_count,
            frees=self.heap.free_count,
        )


#: one step of a trace: (operation, size or clock steps, which allocation)
TRACE_STEPS = st.lists(
    st.tuples(
        st.sampled_from([
            "malloc", "free", "realloc", "touch", "push", "push", "pop",
            "pop", "sample", "sample", "sample", "sample",
        ]),
        st.integers(min_value=0, max_value=3 * PAGE_SIZE),
        st.integers(min_value=0, max_value=1000),
    ),
    min_size=20,
    max_size=120,
)


def apply_step(heap, stack, step, clock):
    """Apply one trace step to the models; returns the new clock (a
    sample advances it by a multiple of the 0.8-cycle element copy,
    or not at all)."""
    op, size, pick = step
    live = sorted(heap.allocations)
    if op == "malloc" or (op in ("free", "realloc") and not live):
        heap.malloc(size)
    elif op == "free":
        heap.free(live[pick % len(live)])
    elif op == "realloc":
        heap.realloc(live[pick % len(live)], size)
    elif op == "touch":
        # any range: inside a live block (no new page) or past it
        heap.touch_bytes(pick * 64, size)
    elif op == "push":
        stack.push_frame(size + 8)
    elif op == "pop":
        if stack.frames:
            stack.pop_frame()
    else:
        clock += (size % 6) * 0.8 + (pick % 3)
    return clock


class TestMeterAgainstReference:
    @seed(20030609)
    @settings(max_examples=150, deadline=None)
    @given(TRACE_STEPS)
    def test_every_report_field_is_bit_identical(self, trace):
        heap, stack = HeapModel(), StackModel()
        meter = MemoryMeter(heap, stack, 400 * 1024, 340 * 1024)
        reference = ReferenceMeter(heap, stack, 400 * 1024, 340 * 1024)
        clock = 0.0
        for step in trace:
            clock = apply_step(heap, stack, step, clock)
            if step[0] == "sample":
                meter.sample(clock)
                reference.sample(clock)
        assert asdict(meter.report()) == asdict(reference.report())


def metered(heap, stack):
    """Every model field a memory meter reads."""
    return (
        heap.live_bytes, heap.brk, len(heap.touched_pages),
        stack.depth_bytes, stack.high_watermark, stack.touched_pages,
    )


class TestVersionContract:
    @seed(20030609)
    @settings(max_examples=100, deadline=None)
    @given(TRACE_STEPS)
    def test_a_metered_change_bumps_a_version(self, trace):
        heap, stack = HeapModel(), StackModel()
        for step in trace:
            before = metered(heap, stack)
            versions = (heap.version, stack.version)
            apply_step(heap, stack, step, 0.0)
            if metered(heap, stack) != before:
                assert (heap.version, stack.version) != versions, step

    @pytest.mark.parametrize("op", ["malloc", "free", "realloc_moves"])
    def test_heap_changes_bump_the_version(self, op):
        heap = HeapModel()
        addr = heap.malloc(64)
        heap.malloc(64)  # keeps the block from growing in place
        version = heap.version
        if op == "malloc":
            heap.malloc(8)
        elif op == "free":
            heap.free(addr)
        else:
            assert heap.realloc(addr, 4096)[0] != addr
        assert heap.version > version

    def test_touching_new_pages_bumps_the_version(self):
        heap = HeapModel()
        addr = heap.malloc(3 * PAGE_SIZE)
        heap.touched_pages.clear()  # as if mapped but never written
        version = heap.version
        assert heap.touch_bytes(addr, PAGE_SIZE) == 1
        assert heap.version > version

    @pytest.mark.parametrize("size", [64, 256])
    def test_realloc_in_place_changes_nothing_metered(self, size):
        heap, stack = HeapModel(), StackModel()
        addr = heap.malloc(256)
        before, version = metered(heap, stack), heap.version
        assert heap.realloc(addr, size) == (addr, 0)
        assert metered(heap, stack) == before
        assert heap.version == version

    def test_touching_touched_pages_changes_nothing_metered(self):
        heap, stack = HeapModel(), StackModel()
        addr = heap.malloc(2 * PAGE_SIZE)
        before, version = metered(heap, stack), heap.version
        assert heap.touch_bytes(addr, 2 * PAGE_SIZE) == 0
        assert metered(heap, stack) == before
        assert heap.version == version

    @pytest.mark.parametrize("op", ["push", "pop"])
    def test_frame_changes_bump_the_stack_version(self, op):
        stack = StackModel()
        stack.push_frame(100)
        version = stack.version
        if op == "push":
            stack.push_frame(100)
        else:
            stack.pop_frame()
        assert stack.version > version


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
