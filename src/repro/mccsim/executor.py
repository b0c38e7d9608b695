"""The mcc execution model (paper §4.4).

Every array is a heap ``mxArray``: an 88-byte struct of meta
information (shape, intrinsic class, flags) plus the payload, set up at
run time as arrays get created.  Every IR operation is a library call
that performs run-time type/shape checks on its operands and returns a
freshly created array.  Copies are sharing + copy-on-write.  Arrays
created inside library calls are deallocated immediately after their
last use in the block (the paper's "deallocated immediately after
being used"); a named variable's old value is freed on reassignment.

The run-time stack stays small — mcc functions pass handles, so the
paper saw a flat 16 KB stack segment for every benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.liveness import compute_liveness
from repro.ir.cfg import IRFunction
from repro.ir.instr import Instr, Var
from repro.memsim.costs import DEFAULT_COSTS as COSTS
from repro.memsim.heap import HeapModel
from repro.memsim.meter import MemoryMeter, MemoryReport
from repro.memsim.stack import StackModel
from repro.runtime.marray import MArray

MXARRAY_HEADER_BYTES = 88  # mcc 2.2's struct size (paper §4.4)

#: mcc binaries are small (operations live in the shared library), but
#: the mapped MATLAB math library dominates the virtual-memory picture.
MCC_IMAGE_BASE = 180 * 1024
MCC_LIBRARY_MAPPED = 620 * 1024
#: fraction of the mapped library a benchmark actually touches
MCC_LIBRARY_RESIDENT_FRACTION = 0.45

#: handle-passing frames only
MCC_FRAME_BYTES = 256


@dataclass(slots=True)
class _Box:
    """One mxArray allocation (possibly shared by several names)."""

    addr: int
    refs: int = 1


class MccMeter:
    """Prices an :class:`~repro.vm.base.Engine` run as mcc code."""

    __slots__ = ("clock", "heap", "stack", "memory", "_box_of", "_dead_temps")

    def __init__(self, func: IRFunction) -> None:
        self.clock = 0.0
        self.heap = HeapModel()
        self.stack = StackModel()
        self.memory = MemoryMeter(
            self.heap,
            self.stack,
            MCC_IMAGE_BASE + MCC_LIBRARY_MAPPED,
            resident_image_bytes=int(
                MCC_IMAGE_BASE
                + MCC_LIBRARY_MAPPED * MCC_LIBRARY_RESIDENT_FRACTION
            ),
        )
        self._box_of: dict[str, _Box] = {}
        # per block, the compiler temporaries ("$" names) not live out
        live_out = compute_liveness(func).live_out
        temps = {
            name
            for block in func.blocks.values()
            for instr in block.instrs
            for name in instr.results
            if "$" in name
        }
        self._dead_temps = {
            block_id: frozenset(temps - live_out.get(block_id, set()))
            for block_id in func.blocks
        }

    # ------------------------------------------------------------------

    def start(self) -> None:
        self.stack.push_frame(MCC_FRAME_BYTES)
        # mcc codes were observed at a flat 16 KB stack segment
        self.stack.push_frame(MCC_FRAME_BYTES * 2)
        self.stack.pop_frame()
        self.memory.sample(self.clock)

    def finish(self) -> None:
        for name in list(self._box_of):
            self._release(name)
        self.stack.pop_frame()
        self.clock += 1.0
        self.memory.sample(self.clock)

    # -- box management ----------------------------------------------------

    def _allocate_box(self, name: str, value: MArray) -> None:
        self._box_of[name] = _Box(
            self.heap.malloc(MXARRAY_HEADER_BYTES + value.byte_size())
        )
        self.clock += COSTS.mxarray_create + COSTS.malloc_call

    def _release(self, name: str) -> None:
        box = self._box_of.pop(name, None)
        if box is None:
            return
        box.refs -= 1
        if box.refs == 0:
            self.heap.free(box.addr)
            self.clock += COSTS.mxarray_free + COSTS.free_call

    def branch(self) -> None:
        self.clock += COSTS.branch

    def decode(self, instr: Instr):
        """The function that prices one execution of ``instr``.

        mcc folds all-scalar arithmetic to native doubles at compile
        time (paper §4.4: only scalars that *don't* get folded are
        boxed) — this is why adpt's speedup is marginal in Figure 5.
        Whether an op can fold at all (a one-result op that is no call,
        index or display), its operand count, whether a copy shares a
        box and its cost class are decided here, once; whether this
        execution's operands and result are scalars, per run.
        """
        op = instr.op
        names = instr.results
        overhead = COSTS.library_call + COSTS.type_check * max(
            1, len(instr.args)
        )
        element_op = COSTS.element_op
        meter, box_of, release, allocate, sample = (
            self, self._box_of, self._release, self._allocate_box,
            self.memory.sample,
        )
        if instr.is_call or op in ("subsref", "subsasgn", "display") or (
            len(names) != 1
        ):
            # a library call: every result is a fresh mxArray
            def price(args, results, work):
                for name, value in zip(names, results):
                    if name in box_of:
                        release(name)  # reassignment frees the old value
                    allocate(name, value)
                meter.clock += overhead + element_op * work
                sample(meter.clock)

            return price

        (name,) = names
        scalar_args = _all_scalar(len(instr.args))
        # copy-on-write: a copy shares its source's box (None: no box)
        shared = (
            instr.args[0].name
            if op == "copy" and isinstance(instr.args[0], Var)
            else None
        )
        if op == "copy":
            fixed = COSTS.cow_share
        elif op == "const":
            # mcc boxes run-time scalars as 1×1 mxArrays (paper §4.4);
            # creation cost is charged at definition
            fixed = COSTS.type_check
        else:
            fixed = None
        cow_share = COSTS.cow_share

        def price(args, results, work):
            value = results[0]
            if name in box_of:
                release(name)  # reassignment frees the old value
            if value.data.size == 1 and scalar_args(args):
                # lives in a C double, not an mxArray
                meter.clock += element_op * work
            else:
                src_box = box_of.get(shared)
                if src_box is not None:
                    src_box.refs += 1
                    box_of[name] = src_box
                    meter.clock += cow_share
                else:
                    allocate(name, value)
                if fixed is not None:
                    meter.clock += fixed
                else:
                    meter.clock += overhead + element_op * work
            sample(meter.clock)

        return price

    def block_end(self, block_id: int) -> None:
        # mxArrays created within library calls are deallocated right
        # after their last use (§4.4) — compiler temporaries, in our
        # IR.  *Named* user variables persist until reassigned.
        dead = self._dead_temps[block_id]
        if dead:
            for name in [n for n in self._box_of if n in dead]:
                self._release(name)
        self.memory.sample(self.clock)

    def report(self) -> MemoryReport:
        return self.memory.report()


def _all_scalar(arity: int):
    """``args → bool``: are all ``arity`` operands scalars?"""
    if arity == 0:
        return lambda args: True
    if arity == 1:
        return lambda args: args[0].data.size == 1
    if arity == 2:
        return lambda args: (
            args[0].data.size == 1 and args[1].data.size == 1
        )

    def all_scalar(args):
        for a in args:
            if a.data.size != 1:
                return False
        return True

    return all_scalar
