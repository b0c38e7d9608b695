"""Time-weighted memory metering (paper §4.5, Equation 2).

Executors call :meth:`MemoryMeter.sample` whenever segment sizes may
have changed; the meter integrates every series over the virtual clock:

    M = Σᵢ mᵢ·Δtᵢ / Σᵢ Δtᵢ

and also reports the kcore-min value M(KB) × T(minutes) of §4.5.2.1.
The ``binary_image_bytes`` models the compiled text+data mapping that
dominates the *virtual memory* plots (Figure 3): mat2c inlines its
operations (bigger image), mcc links a shared library.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memsim.costs import CLOCK_HZ
from repro.memsim.heap import PAGE_SIZE, HeapModel
from repro.memsim.stack import StackModel


@dataclass(slots=True)
class SeriesAverage:
    weighted_sum: float = 0.0
    peak: float = 0.0

    def add(self, value: float, dt: float) -> None:
        self.weighted_sum += value * dt
        if value > self.peak:
            self.peak = value

    def average(self, total_time: float) -> float:
        return self.weighted_sum / total_time if total_time > 0 else 0.0


@dataclass(slots=True)
class MemoryReport:
    """Everything Figures 2–4 plot, for one run of one executor."""

    avg_stack_kb: float = 0.0
    avg_heap_kb: float = 0.0
    avg_dynamic_kb: float = 0.0      # stack + heap (Figure 2)
    avg_virtual_kb: float = 0.0      # Figure 3
    avg_resident_kb: float = 0.0     # Figure 4
    peak_dynamic_kb: float = 0.0
    execution_seconds: float = 0.0   # Figure 5/6 series
    kcore_min: float = 0.0           # §4.5.2.1
    mallocs: int = 0
    frees: int = 0


class MemoryMeter:
    def __init__(
        self,
        heap: HeapModel,
        stack: StackModel,
        binary_image_bytes: int,
        resident_image_bytes: int | None = None,
    ) -> None:
        self._heap = heap
        self._stack = stack
        self._image = binary_image_bytes
        self._resident_image = (
            resident_image_bytes
            if resident_image_bytes is not None
            else binary_image_bytes
        )
        self._last_cycles = 0.0
        self._stack_avg = SeriesAverage()
        self._heap_avg = SeriesAverage()
        self._dynamic_avg = SeriesAverage()
        self._virtual_avg = SeriesAverage()
        self._resident_avg = SeriesAverage()
        self._total_cycles = 0.0

    def sample(self, clock_cycles: float) -> None:
        dt = clock_cycles - self._last_cycles
        if dt <= 0:
            return
        self._last_cycles = clock_cycles
        self._total_cycles = clock_cycles
        # the models' fields, read directly: this runs once per
        # executed instruction and meter
        stack, heap = self._stack, self._heap
        stack_b = (
            (stack.high_watermark + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
        )
        heap_b = heap.live_bytes
        dynamic_b = stack.depth_bytes + heap_b
        virtual_b = (
            self._image
            + stack_b
            + (heap.brk + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
        )
        resident_b = (
            self._resident_image  # only touched text/library pages
            + stack.touched_pages * PAGE_SIZE
            + len(heap.touched_pages) * PAGE_SIZE
        )
        self._stack_avg.add(stack_b, dt)
        self._heap_avg.add(heap_b, dt)
        self._dynamic_avg.add(dynamic_b, dt)
        self._virtual_avg.add(virtual_b, dt)
        self._resident_avg.add(resident_b, dt)

    def report(self) -> MemoryReport:
        t = self._total_cycles
        seconds = t / CLOCK_HZ
        avg_dynamic_kb = self._dynamic_avg.average(t) / 1024.0
        return MemoryReport(
            avg_stack_kb=self._stack_avg.average(t) / 1024.0,
            avg_heap_kb=self._heap_avg.average(t) / 1024.0,
            avg_dynamic_kb=avg_dynamic_kb,
            avg_virtual_kb=self._virtual_avg.average(t) / 1024.0,
            avg_resident_kb=self._resident_avg.average(t) / 1024.0,
            peak_dynamic_kb=self._dynamic_avg.peak / 1024.0,
            execution_seconds=seconds,
            kcore_min=avg_dynamic_kb * (seconds / 60.0),
            mallocs=self._heap.malloc_count,
            frees=self._heap.free_count,
        )
