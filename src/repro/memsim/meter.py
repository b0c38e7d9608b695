"""Time-weighted memory metering (paper §4.5, Equation 2).

Executors call :meth:`MemoryMeter.sample` whenever segment sizes may
have changed; the meter integrates every series over the virtual clock:

    M = Σᵢ mᵢ·Δtᵢ / Σᵢ Δtᵢ

one term per sample that advances the clock, added in sample order.
The five byte values are re-read from the heap and stack models only
when one of their ``version`` counters has moved since the last read;
most samples see no change and just add ``value·Δt`` again.  The sums
are the same float operations in the same order either way, so the
modelled numbers do not depend on how often the models are re-read.

The meter also reports the kcore-min value M(KB) × T(minutes) of §4.5.2.1.
The ``binary_image_bytes`` models the compiled text+data mapping that
dominates the *virtual memory* plots (Figure 3): mat2c inlines its
operations (bigger image), mcc links a shared library.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memsim.costs import CLOCK_HZ
from repro.memsim.heap import PAGE_SIZE, HeapModel
from repro.memsim.stack import StackModel


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
    __slots__ = (
        "_heap", "_stack", "_image", "_resident_image",
        "_last_cycles", "_heap_version", "_stack_version",
        "_stack_b", "_heap_b", "_dynamic_b", "_virtual_b", "_resident_b",
        "_stack_sum", "_heap_sum", "_dynamic_sum", "_virtual_sum",
        "_resident_sum", "_peak_dynamic",
    )

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
        # the model versions the cached byte values were read at
        self._heap_version = self._stack_version = -1
        self._stack_b = self._heap_b = self._dynamic_b = 0
        self._virtual_b = self._resident_b = 0
        self._stack_sum = self._heap_sum = self._dynamic_sum = 0.0
        self._virtual_sum = self._resident_sum = 0.0
        self._peak_dynamic = 0.0

    def sample(self, clock_cycles: float) -> None:
        dt = clock_cycles - self._last_cycles
        if dt <= 0:
            return
        self._last_cycles = clock_cycles
        stack, heap = self._stack, self._heap
        if (
            heap.version != self._heap_version
            or stack.version != self._stack_version
        ):
            self._read(heap, stack)
        self._stack_sum += self._stack_b * dt
        self._heap_sum += self._heap_b * dt
        self._dynamic_sum += self._dynamic_b * dt
        self._virtual_sum += self._virtual_b * dt
        self._resident_sum += self._resident_b * dt

    def _read(self, heap: HeapModel, stack: StackModel) -> None:
        """Re-derive the five series' byte values from the models."""
        self._heap_version = heap.version
        self._stack_version = stack.version
        stack_b = (
            (stack.high_watermark + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
        )
        heap_b = heap.live_bytes
        dynamic_b = stack.depth_bytes + heap_b
        self._stack_b = stack_b
        self._heap_b = heap_b
        self._dynamic_b = dynamic_b
        self._virtual_b = (
            self._image
            + stack_b
            + (heap.brk + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
        )
        self._resident_b = (
            self._resident_image  # only touched text/library pages
            + stack.touched_pages * PAGE_SIZE
            + len(heap.touched_pages) * PAGE_SIZE
        )
        if dynamic_b > self._peak_dynamic:
            self._peak_dynamic = dynamic_b

    def report(self) -> MemoryReport:
        t = self._last_cycles
        seconds = t / CLOCK_HZ
        avg_dynamic_kb = _average(self._dynamic_sum, t) / 1024.0
        return MemoryReport(
            avg_stack_kb=_average(self._stack_sum, t) / 1024.0,
            avg_heap_kb=_average(self._heap_sum, t) / 1024.0,
            avg_dynamic_kb=avg_dynamic_kb,
            avg_virtual_kb=_average(self._virtual_sum, t) / 1024.0,
            avg_resident_kb=_average(self._resident_sum, t) / 1024.0,
            peak_dynamic_kb=self._peak_dynamic / 1024.0,
            execution_seconds=seconds,
            kcore_min=avg_dynamic_kb * (seconds / 60.0),
            mallocs=self._heap.malloc_count,
            frees=self._heap.free_count,
        )


def _average(weighted_sum: float, total_time: float) -> float:
    return weighted_sum / total_time if total_time > 0 else 0.0
