"""The IR execution engine: one evaluation, priced by many meters.

The mat2c model (GCTD-allocated storage, :mod:`repro.vm.executor`) and
the mcc model (everything a heap ``mxArray``, :mod:`repro.mccsim`)
differ only in what an instruction *costs*, never in what it computes.
So :class:`Engine` evaluates the SSA-inverted IR once and hands every
instruction — its operand values, its results and its
:func:`~repro.vm.work.computation_work`, computed once — to a list of
meters.  Each meter keeps its own clock, heap, stack and memory meter
and answers the hooks ``start``, ``define``, ``account``, ``branch``,
``block_end``, ``finish`` and ``report``.  One run yields one
:class:`ExecutionResult` per meter; the output and step count are the
evaluation's and so are shared.

The engine keys its environment by name, or — given a ``slots`` map
from names to storage groups — by group, so reads and writes go
through shared buffers like the generated C (the aliased mat2c run).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frontend.source import MatlabError
from repro.ir.cfg import IRFunction
from repro.ir.instr import (
    Branch,
    Const,
    Instr,
    Jump,
    Operand,
    Ret,
    StrConst,
    Var,
)
from repro.memsim.meter import MemoryReport
from repro.runtime import ops
from repro.runtime.builtins import RuntimeContext, call_builtin
from repro.runtime.errors import MatlabRuntimeError
from repro.runtime.indexing import COLON, subsasgn, subsref
from repro.runtime.marray import MArray
from repro.vm.work import computation_work


class ExecutionLimitExceeded(MatlabError):
    pass


@dataclass(slots=True)
class ExecutionResult:
    output: str
    report: MemoryReport
    steps: int


_BINOPS = {
    "add": ops.add,
    "sub": ops.sub,
    "elmul": ops.elmul,
    "eldiv": ops.eldiv,
    "elldiv": ops.elldiv,
    "elpow": ops.elpow,
    "mul": ops.mul,
    "div": ops.div,
    "ldiv": ops.ldiv,
    "pow": ops.pow_,
    "lt": ops.lt,
    "le": ops.le,
    "gt": ops.gt,
    "ge": ops.ge,
    "eq": ops.eq,
    "ne": ops.ne,
    "and": ops.and_,
    "or": ops.or_,
}


class Engine:
    """Executes non-SSA IR once; each of ``meters`` prices the run."""

    def __init__(
        self,
        func: IRFunction,
        meters: list,
        ctx: RuntimeContext | None = None,
        max_steps: int = 20_000_000,
        slots: dict[str, str] | None = None,
    ) -> None:
        self.func = func
        self.meters = meters
        self.ctx = ctx or RuntimeContext()
        self.max_steps = max_steps
        #: name → environment key; names not in it are keyed by name
        self.slots = slots or {}
        self.env: dict[str, MArray] = {}
        self.steps = 0

    def run(self) -> list[ExecutionResult]:
        meters = self.meters
        for meter in meters:
            meter.start()
        block_id = self.func.entry
        while True:
            block = self.func.blocks[block_id]
            for instr in block.instrs:
                self.steps += 1
                if self.steps > self.max_steps:
                    raise ExecutionLimitExceeded(
                        f"exceeded {self.max_steps} executed instructions"
                    )
                self._execute(instr)
            for meter in meters:
                meter.block_end(block_id)
            # count the control transfer too: an empty loop (all body
            # instructions dead-coded away) must still hit the limit
            self.steps += 1
            if self.steps > self.max_steps:
                raise ExecutionLimitExceeded(
                    f"exceeded {self.max_steps} executed instructions"
                )
            term = block.terminator
            if isinstance(term, Ret):
                break
            if isinstance(term, Jump):
                block_id = term.target
            elif isinstance(term, Branch):
                cond = self._operand_value(term.condition)
                for meter in meters:
                    meter.branch()
                block_id = (
                    term.true_target if cond.is_true() else term.false_target
                )
            else:
                raise MatlabRuntimeError("block without terminator")
        for meter in meters:
            meter.finish()
        output = self.ctx.captured()
        return [
            ExecutionResult(output, meter.report(), self.steps)
            for meter in meters
        ]

    # -- evaluation ----------------------------------------------------

    def _operand_value(self, operand: Operand) -> MArray:
        if isinstance(operand, Var):
            try:
                return self.env[self.slots.get(operand.name, operand.name)]
            except KeyError:
                raise MatlabRuntimeError(
                    f"use of undefined variable {operand.name!r}"
                ) from None
        if isinstance(operand, Const):
            return MArray.from_scalar(operand.value)
        return MArray.from_string(operand.value)

    def _execute(self, instr: Instr) -> None:
        op = instr.op
        if op == "display":
            value = self._operand_value(instr.args[0])
            label = instr.args[1].value  # type: ignore[union-attr]
            self.ctx.write(f"{label} =\n")
            call_builtin(self.ctx, "disp", [value])
            args, results = [value], []
        else:
            args = []
            for operand in instr.args:
                if isinstance(operand, StrConst) and operand.value == ":" and (
                    op in ("subsref", "subsasgn")
                ):
                    args.append(COLON)
                else:
                    args.append(self._operand_value(operand))
            results = self._evaluate(instr, args)
            for name, value in zip(instr.results, results):
                self.env[self.slots.get(name, name)] = value
        work = computation_work(instr, args, results)
        for meter in self.meters:
            for name, value in zip(instr.results, results):
                meter.define(name, value, instr, args)
            meter.account(instr, args, results, work)

    def _evaluate(self, instr: Instr, args: list) -> list[MArray]:
        op = instr.op
        if op in _BINOPS:
            return [_BINOPS[op](args[0], args[1])]
        if op in ("const", "copy"):
            return [args[0]]
        if op == "neg":
            return [ops.neg(args[0])]
        if op == "not":
            return [ops.not_(args[0])]
        if op == "transpose":
            return [ops.transpose(args[0], conjugate=False)]
        if op == "ctranspose":
            return [ops.transpose(args[0], conjugate=True)]
        if op == "range":
            return [ops.make_range(args[0], args[1], args[2])]
        if op == "forindex":
            # start + counter*step (bounds args[2] carried for analysis)
            value = (
                args[0].scalar() + args[3].scalar() * args[1].scalar()
            )
            return [MArray.from_scalar(value)]
        if op == "subsref":
            return [subsref(args[0], args[1:])]
        if op == "subsasgn":
            return [subsasgn(args[0], args[1], args[2:])]
        if op == "horzcat":
            return [ops.horzcat(args)]
        if op == "vertcat":
            return [ops.vertcat(args)]
        if op == "empty":
            return [MArray.empty()]
        if op == "undef":
            return [MArray.empty()]
        if instr.is_call:
            return call_builtin(
                self.ctx,
                instr.callee,
                args,
                nargout=max(1, len(instr.results)),
            )
        raise MatlabRuntimeError(f"unsupported IR op {op!r}")
