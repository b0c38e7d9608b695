"""The mat2c execution model: GCTD-allocated storage.

:class:`Mat2CMeter` prices an :class:`~repro.vm.base.Engine` run on the
:mod:`repro.memsim` machine exactly as the paper's generated C would
use memory:

* one stack frame holding every STACK group at its maximal size, fixed
  for the activation (§3.2.1) — scalars and statically-sized arrays
  live here;
* one heap buffer per HEAP group, created on first definition and
  *resized on the fly* to each member's needs (§3.2.2); definitions
  marked ``∘`` skip even the resize check;
* in-place operations write through the group buffer — no allocation,
  no copy;
* identity copies (same group) cost nothing — they were folded away.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.allocation import (
    AllocationPlan,
    MAY_RESIZE,
    NO_RESIZE,
)
from repro.ir.cfg import IRFunction
from repro.ir.instr import Instr, Var
from repro.memsim.costs import DEFAULT_COSTS as COSTS
from repro.memsim.heap import HeapModel
from repro.memsim.meter import MemoryMeter, MemoryReport
from repro.memsim.stack import StackModel
from repro.runtime.marray import MArray

#: fixed text+data of a mat2c binary, plus per-instruction inlined code
MAT2C_IMAGE_BASE = 400 * 1024
MAT2C_IMAGE_PER_INSTR = 96

#: C scalars/locals bookkeeping per frame
FRAME_OVERHEAD_BYTES = 512


@dataclass(slots=True)
class _HeapBuffer:
    addr: int
    size: int


class Mat2CMeter:
    """Prices an :class:`~repro.vm.base.Engine` run under ``plan``."""

    __slots__ = ("plan", "clock", "heap", "stack", "memory", "_buffers")

    #: nothing happens at a block's end, so the engine skips the hook
    block_end = None

    def __init__(self, func: IRFunction, plan: AllocationPlan) -> None:
        self.plan = plan
        self.clock = 0.0
        self.heap = HeapModel()
        self.stack = StackModel()
        image = MAT2C_IMAGE_BASE + MAT2C_IMAGE_PER_INSTR * sum(
            len(b.instrs) for b in func.blocks.values()
        )
        # inlined code is hot: most of the (larger) image is resident
        self.memory = MemoryMeter(
            self.heap, self.stack, image,
            resident_image_bytes=int(image * 0.85),
        )
        self._buffers: dict[int, _HeapBuffer] = {}

    # ------------------------------------------------------------------

    def start(self) -> None:
        self.stack.push_frame(
            self.plan.stack_frame_bytes() + FRAME_OVERHEAD_BYTES
        )
        self.memory.sample(self.clock)

    def finish(self) -> None:
        for buffer in self._buffers.values():
            self.heap.free(buffer.addr)
            self.clock += COSTS.free_call
        self._buffers.clear()
        self.stack.pop_frame()
        self.clock += 1.0
        self.memory.sample(self.clock)

    def branch(self) -> None:
        self.clock += COSTS.branch

    def decode(self, instr: Instr):
        """The function that prices one execution of ``instr``, or None
        when an execution costs nothing.

        Everything that does not depend on run-time shapes is folded
        in here, once: each result's heap group and resize mark,
        whether a copy is an identity assignment and the cost class.
        An identity copy into a stack group is folded away entirely;
        an instruction that defines no heap group prices as
        ``clock += cost; sample(clock)``.  A write into a group's heap
        buffer touches no page: ``malloc`` touched every page of the
        buffer, and a realloc that moves it mallocs again.
        """
        plan = self.plan
        defines = []
        for name in instr.results:
            gid = plan.group_of.get(name)
            if gid is None or plan.groups[gid].is_stack:
                # no group, or frame space preallocated and fixed
                defines.append(None)
            else:
                defines.append(self._definer(
                    gid, plan.resize_marks.get(name, MAY_RESIZE)
                ))
        if not any(defines):
            defines = []
        if (
            instr.op == "copy"
            and isinstance(instr.args[0], Var)
            and plan.same_storage(instr.args[0].name, instr.results[0])
        ):
            # identity assignment: folded away, but a heap group's
            # buffer is still checked against the member's needs
            plain = None
        else:
            plain = self._plain_price(instr)
        if not defines:
            return plain

        def price(args, results, work):
            for define, value in zip(defines, results):
                if define is not None:
                    define(value)
            if plain is not None:
                plain(args, results, work)

        return price

    def _plain_price(self, instr: Instr):
        """``clock += cost; sample(clock)`` for the cost class of
        ``instr``, with the cost model's constants bound."""
        meter, sample = self, self.memory.sample
        op = instr.op
        if op == "copy" and isinstance(instr.args[0], Var):
            # cross-group copy: move the bytes
            per_element = COSTS.element_copy

            def price(args, results, work):
                meter.clock += per_element * results[0].data.size + 2.0
                sample(meter.clock)
        elif op in ("subsref", "subsasgn"):
            per_work = (
                COSTS.subsref_compiled if op == "subsref"
                else COSTS.subsasgn_compiled
            )

            def price(args, results, work):
                meter.clock += per_work * max(1.0, work)
                sample(meter.clock)
        elif op == "display" or (
            instr.is_call and instr.callee in ("disp", "fprintf")
        ):
            call = COSTS.library_call

            def price(args, results, work):
                meter.clock += call + work
                sample(meter.clock)
        else:
            per_work = COSTS.scalar_op

            def price(args, results, work):
                meter.clock += per_work * work
                sample(meter.clock)
        return price

    def _definer(self, gid: int, mark: str):
        """The function run when a member of heap group ``gid`` with
        resize ``mark`` is (re)defined to a value."""
        meter, heap, buffers = self, self.heap, self._buffers
        checked = mark != NO_RESIZE
        shrinks = mark == MAY_RESIZE

        def define(value: MArray) -> None:
            need = value.byte_size()
            buffer = buffers.get(gid)
            if buffer is None:
                addr = heap.malloc(max(need, 8))
                buffers[gid] = _HeapBuffer(addr, max(need, 8))
                meter.clock += COSTS.malloc_call
                return
            if checked:
                meter.clock += COSTS.resize_check
            if need > buffer.size:
                new_addr, new_pages = heap.realloc(buffer.addr, need)
                buffer.addr, buffer.size = new_addr, need
                meter.clock += (
                    COSTS.realloc_base
                    + COSTS.page_touch * new_pages
                )
            elif need < buffer.size and shrinks:
                # shrink to the member's needs to relieve heap pressure
                new_addr, _ = heap.realloc(buffer.addr, max(need, 8))
                buffer.addr, buffer.size = new_addr, max(need, 8)
                meter.clock += COSTS.realloc_base * 0.25

        return define

    def report(self) -> MemoryReport:
        return self.memory.report()
