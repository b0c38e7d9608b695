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

    def block_end(self, block_id: int) -> None:
        pass

    def decode(self, instr: Instr):
        """The function that prices one execution of ``instr``.

        Everything that does not depend on run-time shapes is looked
        up here, once: each result's heap group and resize mark,
        whether a copy is an identity assignment, the cost class and
        the group a write touches.
        """
        plan = self.plan
        defines = []
        for name in instr.results:
            gid = plan.group_of.get(name)
            if gid is None or plan.groups[gid].is_stack:
                # no group, or frame space preallocated and fixed
                defines.append(None)
            else:
                defines.append(
                    (gid, plan.resize_marks.get(name, MAY_RESIZE))
                )
        if not any(defines):
            defines = []
        written = (
            plan.group_of.get(instr.results[0]) if instr.results else None
        )
        op = instr.op
        if op == "copy" and isinstance(instr.args[0], Var):
            if plan.same_storage(instr.args[0].name, instr.results[0]):
                cost = None  # identity assignment: folded away
            else:
                # cross-group copy: move the bytes
                def cost(results, work):
                    return COSTS.element_copy * results[0].numel + 2.0
        elif op == "subsref":
            def cost(results, work):
                return COSTS.subsref_compiled * max(1.0, work)
        elif op == "subsasgn":
            def cost(results, work):
                return COSTS.subsasgn_compiled * max(1.0, work)
        elif op == "display" or (
            instr.is_call and instr.callee in ("disp", "fprintf")
        ):
            def cost(results, work):
                return COSTS.library_call + work
        else:
            def cost(results, work):
                return COSTS.scalar_op * work
        define, touch, sample = (
            self._define, self._touch_write, self.memory.sample
        )

        def price(args, results, work):
            for fact, value in zip(defines, results):
                if fact is not None:
                    define(fact, value)
            if cost is None:
                return
            self.clock += cost(results, work)
            if results:
                touch(written, results)
            sample(self.clock)

        return price

    def _define(self, fact: tuple, value: MArray) -> None:
        """A heap group's member ``value`` is (re)defined."""
        gid, mark = fact
        need = value.byte_size()
        buffer = self._buffers.get(gid)
        if buffer is None:
            addr = self.heap.malloc(max(need, 8))
            self._buffers[gid] = _HeapBuffer(addr, max(need, 8))
            self.clock += COSTS.malloc_call
            return
        if mark != NO_RESIZE:
            self.clock += COSTS.resize_check
        if need > buffer.size:
            new_addr, new_pages = self.heap.realloc(buffer.addr, need)
            buffer.addr, buffer.size = new_addr, need
            self.clock += (
                COSTS.realloc_base
                + COSTS.page_touch * new_pages
            )
        elif need < buffer.size and mark == MAY_RESIZE:
            # shrink to the member's needs to relieve heap pressure
            new_addr, _ = self.heap.realloc(buffer.addr, max(need, 8))
            buffer.addr, buffer.size = new_addr, max(need, 8)
            self.clock += COSTS.realloc_base * 0.25

    def _touch_write(self, gid: int | None, results: list[MArray]) -> None:
        if gid is None:
            return
        buffer = self._buffers.get(gid)
        if buffer is not None:
            self.heap.touch_bytes(buffer.addr, min(
                buffer.size, results[0].byte_size() or 1
            ))

    def report(self) -> MemoryReport:
        return self.memory.report()
