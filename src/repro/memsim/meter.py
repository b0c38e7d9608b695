"""Time-weighted memory metering (paper §4.5, Equation 2).

Executors call ``MemoryMeter.sample(clock)`` after every priced
instruction; the meter integrates every series over the virtual clock:

    M = Σᵢ mᵢ·Δtᵢ / Σᵢ Δtᵢ

one term per sample that advances the clock, added in sample order.

``sample`` is the bound ``append`` of a typed buffer of clocks, so a
sample costs one C call.  The heap and stack models call
:meth:`MemoryMeter.before_change` before they change a field the meter
reads; the first call after a sample records the models' state, which
is the state of every sample since the previous record.  The pending
clocks and records are integrated by :meth:`MemoryMeter.flush` once
they reach :data:`CHUNK` (checked at a change and at the executors'
``branch`` and ``block_end`` hooks) and at :meth:`MemoryMeter.report`,
in slices of :data:`CHUNK` samples: ``np.maximum.accumulate`` gives
each sample the last clock that advanced, and each sum is a
``np.cumsum`` of the terms with the running value added to the first,
which performs the sequential ``s += m·Δt`` bit for bit.  The dynamic
peak counts the states in effect at a sample that advances the clock.
An executor calls :meth:`MemoryMeter.close` after its last change, so
that the models hold no reference back to the meter.

The meter also reports the kcore-min value M(KB) × T(minutes) of §4.5.2.1.
The ``binary_image_bytes`` models the compiled text+data mapping that
dominates the *virtual memory* plots (Figure 3): mat2c inlines its
operations (bigger image), mcc links a shared library.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from repro.memsim.costs import CLOCK_HZ
from repro.memsim.heap import PAGE_SIZE, HeapModel, unmetered
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


#: the pending samples that trigger an integration, and its slice size
CHUNK = 2048

#: a recorded state: the pending-sample count it lasts to, then the
#: stack's high watermark, depth and touched pages and the heap's live
#: bytes, brk and touched pages
_STATE_FIELDS = 7


class MemoryMeter:
    __slots__ = (
        "_heap", "_stack", "_image", "_resident_image",
        "sample", "pending", "_states", "_recorded",
        "_last_cycles", "_sums", "_peak_dynamic",
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
        #: the clocks sampled since the last integration
        self.pending = array("d")
        self.sample = self.pending.append
        #: the recorded states (``_STATE_FIELDS`` integers each)
        self._states = array("q")
        #: the pending-sample count at the last record
        self._recorded = 0
        self._last_cycles = 0.0
        #: stack, heap, dynamic, virtual and resident weighted sums
        self._sums = [0.0] * 5
        self._peak_dynamic = 0.0
        heap.before_change = stack.before_change = self.before_change

    def before_change(self) -> None:
        """Record the state the samples since the last record saw; the
        models call this before they change a field the meter reads."""
        n = len(self.pending)
        if n != self._recorded:
            if n >= CHUNK:
                self.flush()
                return
            self._recorded = n
            heap, stack = self._heap, self._stack
            self._states.extend((
                n, stack.high_watermark, stack.depth_bytes,
                stack.touched_pages, heap.live_bytes, heap.brk,
                len(heap.touched_pages),
            ))

    def close(self) -> None:
        """Stop recording model changes once the run has made its last:
        the models then hold no reference back to the meter, and the
        two go as soon as their executor does, not at a cycle
        collection."""
        self._heap.before_change = self._stack.before_change = unmetered

    def flush_if_full(self) -> None:
        if len(self.pending) >= CHUNK:
            self.flush()

    def flush(self) -> None:
        """Integrate the pending samples, in order, and drop them."""
        pending = self.pending
        n = len(pending)
        if n:
            states = np.frombuffer(self._states, dtype=np.int64).reshape(
                -1, _STATE_FIELDS
            )
            ends = states[:, 0]
            series = self._series(states)
            clocks = np.frombuffer(pending, dtype=np.float64)
            for first in range(0, n, CHUNK):
                self._integrate(
                    clocks[first:first + CHUNK], first, ends, series
                )
            del states, ends, clocks  # release the buffers, so they clear
            del pending[:]
            del self._states[:]
        self._recorded = 0

    def _series(self, states: np.ndarray) -> list:
        """The five series' byte values in each recorded state, then in
        the models' current one (the state of the samples after the
        last record)."""
        heap, stack = self._heap, self._stack
        current = (
            stack.high_watermark, stack.depth_bytes, stack.touched_pages,
            heap.live_bytes, heap.brk, len(heap.touched_pages),
        )
        high_watermark, depth, stack_touched, live, brk, heap_touched = (
            np.append(states[:, field], value)
            for field, value in enumerate(current, 1)
        )
        page = PAGE_SIZE
        stack_b = (high_watermark + page - 1) // page * page
        return [
            stack_b,
            live,
            depth + live,
            self._image + stack_b + (brk + page - 1) // page * page,
            self._resident_image  # only touched text/library pages
            + stack_touched * page
            + heap_touched * page,
        ]

    def _integrate(
        self, clocks: np.ndarray, first: int, ends: np.ndarray,
        series: list,
    ) -> None:
        """Add ``value·Δt`` for each of ``clocks`` that advances the
        clock; the samples are pending numbers ``first`` onwards."""
        marks = np.maximum.accumulate(np.append(self._last_cycles, clocks))
        self._last_cycles = float(marks[-1])
        dt = clocks - marks[:-1]
        advanced = np.flatnonzero(dt > 0)
        if not advanced.size:
            return
        dt = dt[advanced]
        state = np.searchsorted(ends, advanced + first, "right")
        sums = self._sums
        for index, values in enumerate(series):
            sampled = values[state]
            if index == 2:  # the dynamic series: its peak
                peak = int(sampled.max())
                if peak > self._peak_dynamic:
                    self._peak_dynamic = peak
            terms = sampled * dt
            # s + t₁, then the running sums: each is one addition of
            # the sequential ``s += m·Δt``
            terms[0] += sums[index]
            sums[index] = float(np.cumsum(terms)[-1])

    def report(self) -> MemoryReport:
        self.flush()
        t = self._last_cycles
        seconds = t / CLOCK_HZ
        stack_sum, heap_sum, dynamic_sum, virtual_sum, resident_sum = (
            self._sums
        )
        avg_dynamic_kb = _average(dynamic_sum, t) / 1024.0
        return MemoryReport(
            avg_stack_kb=_average(stack_sum, t) / 1024.0,
            avg_heap_kb=_average(heap_sum, t) / 1024.0,
            avg_dynamic_kb=avg_dynamic_kb,
            avg_virtual_kb=_average(virtual_sum, t) / 1024.0,
            avg_resident_kb=_average(resident_sum, t) / 1024.0,
            peak_dynamic_kb=self._peak_dynamic / 1024.0,
            execution_seconds=seconds,
            kcore_min=avg_dynamic_kb * (seconds / 60.0),
            mallocs=self._heap.malloc_count,
            frees=self._heap.free_count,
        )


def _average(weighted_sum: float, total_time: float) -> float:
    return weighted_sum / total_time if total_time > 0 else 0.0
