"""A tree-walking MATLAB interpreter (the MATLAB 6.1 stand-in).

Evaluates the *AST* directly — independent of the IR pipeline — so it
doubles as the semantic oracle for differential testing: interpreter
output must equal both executors' output and the compiled C's output.

Timing follows an interpretive cost model: per-node dispatch and
name-table lookups on top of the same library-call costs mcc pays
(MATLAB's built-in operations and mcc's library are the same code, as
the paper notes).  Memory is modelled like mcc's boxes but with the
interpreter process's much larger image.

Values in a scope follow the engine's representation
(:func:`~repro.runtime.marray.unbox`): literals, scalar binary
operations, ``for`` variables, ``end`` values and scalar subscripts
yield Python floats and bools, and a value is boxed again where it
reaches another runtime operation, a builtin or ``disp``.  Every cost
is read through :func:`~repro.runtime.marray.numel` and
:func:`~repro.runtime.marray.byte_size`, so it does not depend on the
representation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frontend import ast_nodes as ast
from repro.frontend.source import MatlabError
from repro.ir.instr import AST_BINOP_TO_IR
from repro.memsim.costs import CLOCK_HZ, CostModel, DEFAULT_COSTS
from repro.memsim.meter import MemoryReport
from repro.runtime import ops
from repro.runtime.builtins import (
    RuntimeContext,
    call_builtin,
    call_builtin_unboxed,
)
from repro.runtime.errors import MatlabRuntimeError
from repro.runtime.indexing import (
    COLON,
    subsasgn_unboxed,
    subsref_unboxed,
)
from repro.runtime.marray import (
    MArray,
    Value,
    box,
    boxed_call,
    byte_size,
    is_true,
    numel,
    unbox,
)
from repro.runtime.names import BUILTIN_NAMES, CONSTANT_VALUES

#: a -nojvm MATLAB 6.1 process image
INTERP_IMAGE_BYTES = 11 * 1024 * 1024

from repro.vm.work import _TRANSCENDENTALS  # shared cost classification


class InterpreterError(MatlabError):
    pass


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    pass


#: AST binary operator → the IR op on unboxed operands
_BINOPS = {
    symbol: ops.unboxed_binop(op)
    for symbol, op in AST_BINOP_TO_IR.items()
    if symbol not in ("&&", "||")  # short-circuit: evaluated in place
}


@dataclass(slots=True)
class InterpResult:
    output: str
    report: MemoryReport
    steps: int


class Interpreter:
    def __init__(
        self,
        program: ast.Program,
        ctx: RuntimeContext | None = None,
        costs: CostModel = DEFAULT_COSTS,
        max_steps: int = 20_000_000,
    ) -> None:
        self.program = program
        self.ctx = ctx or RuntimeContext()
        self.costs = costs
        self.max_steps = max_steps
        self.clock = 0.0
        self.steps = 0
        self._heap_live = 0.0
        self._heap_weighted = 0.0
        self._last_sample = 0.0
        self._call_depth = 0
        #: ``(base, position, count)`` of the subscript being evaluated,
        #: which an ``end`` refers to
        self._end = None

    # ------------------------------------------------------------------

    def run(self) -> InterpResult:
        entry = self.program.entry_function()
        self._call_function(entry, [])
        seconds = self.clock / CLOCK_HZ
        avg_heap_kb = (
            self._heap_weighted / self.clock / 1024.0 if self.clock else 0.0
        )
        report = MemoryReport(
            avg_heap_kb=avg_heap_kb,
            avg_dynamic_kb=avg_heap_kb + 16.0,
            avg_virtual_kb=INTERP_IMAGE_BYTES / 1024.0 + avg_heap_kb,
            avg_resident_kb=INTERP_IMAGE_BYTES / 1024.0 * 0.6 + avg_heap_kb,
            execution_seconds=seconds,
        )
        return InterpResult(
            output=self.ctx.captured(),
            report=report,
            steps=self.steps,
        )

    def _tick(self, cycles: float, heap_delta: float = 0.0) -> None:
        self._heap_weighted += self._heap_live * cycles
        self.clock += cycles
        self._heap_live = max(0.0, self._heap_live + heap_delta)
        self.steps += 1
        if self.steps > self.max_steps:
            raise InterpreterError("interpreter step limit exceeded")

    # -- functions -------------------------------------------------------

    def _call_function(
        self, func: ast.FunctionDef, args: list[Value]
    ) -> dict[str, Value]:
        if self._call_depth > 128:
            raise InterpreterError("call depth limit exceeded")
        self._call_depth += 1
        outer_end, self._end = self._end, None
        scope: dict[str, Value] = {}
        for param, arg in zip(func.inputs, args):
            scope[param] = arg
        try:
            self._exec_block(func.body, scope)
        except _ReturnSignal:
            pass
        finally:
            self._call_depth -= 1
            self._end = outer_end
        return scope

    def _call_user(self, name: str, args: list[Value],
                   nargout: int) -> list[Value]:
        func = self.program.functions[name]
        scope = self._call_function(func, args)
        outs = []
        for out_name in func.outputs[: max(1, nargout)]:
            if out_name not in scope:
                raise InterpreterError(
                    f"output {out_name!r} of {name!r} never assigned"
                )
            outs.append(scope[out_name])
        return outs

    # -- statements ------------------------------------------------------

    def _exec_block(self, stmts: list[ast.Stmt], scope) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, scope)

    def _exec_stmt(self, stmt: ast.Stmt, scope) -> None:
        self._tick(self.costs.interp_dispatch)
        if isinstance(stmt, ast.Assign):
            self._exec_assign(stmt, scope)
        elif isinstance(stmt, ast.MultiAssign):
            self._exec_multi_assign(stmt, scope)
        elif isinstance(stmt, ast.ExprStmt):
            value = self._eval(stmt.value, scope, statement=True)
            if value is not None:
                scope["ans"] = value
                if stmt.display:
                    self._display("ans", value)
        elif isinstance(stmt, ast.If):
            for cond, body in stmt.branches:
                if is_true(self._eval(cond, scope)):
                    self._exec_block(body, scope)
                    return
            self._exec_block(stmt.orelse, scope)
        elif isinstance(stmt, ast.While):
            while is_true(self._eval(stmt.condition, scope)):
                try:
                    self._exec_block(stmt.body, scope)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
        elif isinstance(stmt, ast.For):
            iterable = box(self._eval(stmt.iterable, scope))
            for value in iterable.flat().tolist():
                if value.__class__ is not float:  # a complex element
                    value = unbox(MArray.from_scalar(value))
                scope[stmt.var] = value
                try:
                    self._exec_block(stmt.body, scope)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
        elif isinstance(stmt, ast.Break):
            raise _BreakSignal()
        elif isinstance(stmt, ast.Continue):
            raise _ContinueSignal()
        elif isinstance(stmt, ast.Return):
            raise _ReturnSignal()
        else:
            raise InterpreterError(
                f"unsupported statement {type(stmt).__name__}"
            )

    def _display(self, name: str, value: Value) -> None:
        self.ctx.write(f"{name} =\n")
        call_builtin(self.ctx, "disp", [box(value)])

    def _exec_assign(self, stmt: ast.Assign, scope) -> None:
        value = self._eval(stmt.value, scope)
        target = stmt.target
        if isinstance(target, ast.Ident):
            scope[target.name] = value
            self._tick(
                self.costs.interp_name_lookup,
                heap_delta=byte_size(value),
            )
            if stmt.display:
                self._display(target.name, value)
            return
        assert isinstance(target, ast.Apply)
        assert isinstance(target.func, ast.Ident)
        name = target.func.name
        base = scope.get(name, MArray.empty())
        subs = self._eval_subscripts(target.args, base, scope)
        updated = subsasgn_unboxed(base, value, subs)
        scope[name] = updated
        self._tick(
            self.costs.library_call,
            heap_delta=byte_size(updated) - byte_size(base),
        )
        if stmt.display:
            self._display(name, updated)

    def _exec_multi_assign(self, stmt: ast.MultiAssign, scope) -> None:
        value = stmt.value
        assert isinstance(value, ast.Apply)
        assert isinstance(value.func, ast.Ident)
        fname = value.func.name
        args = [self._eval(a, scope) for a in value.args]
        nargout = len(stmt.targets)
        if fname in self.program.functions:
            results = self._call_user(fname, args, nargout)
        else:
            results = call_builtin_unboxed(self.ctx, fname, args, nargout)
        self._tick(self.costs.library_call * max(1, nargout))
        for target, result in zip(stmt.targets, results):
            assert isinstance(target, ast.Ident)
            scope[target.name] = result
            if stmt.display:
                self._display(target.name, result)

    # -- expressions ----------------------------------------------------

    def _eval(self, expr: ast.Expr, scope, statement: bool = False) -> Value:
        if expr.__class__ is ast.EndMarker:
            return self._end_value()  # free, like a subscript's spine
        self._tick(self.costs.interp_dispatch * 0.1)
        if isinstance(expr, ast.Num):
            if expr.is_imag:
                return unbox(MArray.from_scalar(1j * expr.value))
            return float(expr.value)
        if isinstance(expr, ast.Str):
            return MArray.from_string(expr.value)
        if isinstance(expr, ast.Ident):
            return self._eval_ident(expr, scope)
        if isinstance(expr, ast.UnaryOp):
            operand = self._eval(expr.operand, scope)
            self._tick(self.costs.library_call + numel(operand))
            return boxed_call(
                ops.neg if expr.op == "-" else ops.not_, (operand,)
            )
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binop(expr, scope)
        if isinstance(expr, ast.Transpose):
            operand = self._eval(expr.operand, scope)
            self._tick(self.costs.library_call + numel(operand))
            conjugate = expr.conjugate
            return boxed_call(
                lambda a: ops.transpose(a, conjugate), (operand,)
            )
        if isinstance(expr, ast.Range):
            start = self._eval(expr.start, scope)
            step = (
                self._eval(expr.step, scope)
                if expr.step is not None
                else 1.0
            )
            stop = self._eval(expr.stop, scope)
            result = boxed_call(ops.make_range, (start, step, stop))
            self._tick(self.costs.library_call + numel(result))
            return result
        if isinstance(expr, ast.MatrixLit):
            return self._eval_matrix(expr, scope)
        if isinstance(expr, ast.Apply):
            return self._eval_apply(expr, scope, statement)
        raise InterpreterError(
            f"unsupported expression {type(expr).__name__}"
        )

    def _eval_ident(self, expr: ast.Ident, scope) -> Value:
        name = expr.name
        self._tick(self.costs.interp_name_lookup)
        if name in scope:
            return scope[name]
        if name in CONSTANT_VALUES:
            return CONSTANT_VALUES[name]
        if name in ("i", "j"):
            return MArray.from_scalar(1j)
        if name in self.program.functions:
            return self._call_user(name, [], 1)[0]
        if name in BUILTIN_NAMES:
            return call_builtin_unboxed(self.ctx, name, [], 1)[0]
        raise MatlabRuntimeError(f"undefined name {name!r}")

    def _eval_binop(self, expr: ast.BinaryOp, scope) -> Value:
        if expr.op == "&&":
            left = self._eval(expr.left, scope)
            if not is_true(left):
                return False
            return is_true(self._eval(expr.right, scope))
        if expr.op == "||":
            left = self._eval(expr.left, scope)
            if is_true(left):
                return True
            return is_true(self._eval(expr.right, scope))
        left = self._eval(expr.left, scope)
        right = self._eval(expr.right, scope)
        result = _BINOPS[expr.op](left, right)
        per_element = 150.0 if expr.op in ("^", ".^") else 1.0
        size = byte_size(result)
        self._tick(
            self.costs.library_call
            + self.costs.type_check * 2
            + self.costs.element_op * per_element * numel(result),
            heap_delta=size,
        )
        self._tick(0.0, heap_delta=-size * 0.5)
        return result

    def _eval_matrix(self, expr: ast.MatrixLit, scope) -> Value:
        if not expr.rows:
            return MArray.empty()
        rows = []
        for row in expr.rows:
            parts = [self._eval(e, scope) for e in row]
            rows.append(
                boxed_call(lambda *p: ops.horzcat(p), parts)
                if len(parts) > 1 else parts[0]
            )
        result = (
            boxed_call(lambda *r: ops.vertcat(r), rows)
            if len(rows) > 1 else rows[0]
        )
        self._tick(self.costs.library_call + numel(result))
        return result

    def _eval_apply(self, expr: ast.Apply, scope, statement: bool):
        assert isinstance(expr.func, ast.Ident)
        name = expr.func.name
        if name in scope:
            base = scope[name]
            subs = self._eval_subscripts(expr.args, base, scope)
            result = subsref_unboxed(base, subs)
            self._tick(
                self.costs.library_call
                + self.costs.type_check
                + numel(result),
                heap_delta=byte_size(result) * 0.5,
            )
            return result
        args = [self._eval(a, scope) for a in expr.args]
        self._tick(self.costs.library_call + self.costs.type_check)
        if name in self.program.functions:
            results = self._call_user(name, args, 1)
            return results[0] if results else None
        if name in BUILTIN_NAMES:
            results = call_builtin_unboxed(self.ctx, name, args, 1)
            result = results[0] if results else None
            elems = max(
                (numel(a) for a in args), default=1
            )
            if result is not None:
                elems = max(elems, numel(result))
            per_element = 150.0 if name in _TRANSCENDENTALS else 1.0
            self._tick(
                self.costs.element_op * per_element * elems,
                heap_delta=(byte_size(result) if result is not None else 0),
            )
            return result
        raise MatlabRuntimeError(f"unknown function {name!r}")

    def _eval_subscripts(self, arg_exprs, base, scope) -> list:
        subs = []
        count = len(arg_exprs)
        outer_end = self._end
        for position, arg in enumerate(arg_exprs, start=1):
            if isinstance(arg, ast.ColonAll):
                subs.append(COLON)
            else:
                self._end = (base, position, count)
                subs.append(self._eval_subscript(arg, scope))
        self._end = outer_end
        return subs

    def _eval_subscript(self, expr, scope):
        """Evaluate a subscript.  Its spine of ranges and of unary and
        binary operators other than ``&&``/``||`` costs nothing; every
        other node goes through :meth:`_eval`."""
        if isinstance(expr, ast.BinaryOp) and expr.op in _BINOPS:
            left = self._eval_subscript(expr.left, scope)
            right = self._eval_subscript(expr.right, scope)
            return _BINOPS[expr.op](left, right)
        if isinstance(expr, ast.UnaryOp):
            operand = self._eval_subscript(expr.operand, scope)
            return boxed_call(
                ops.neg if expr.op == "-" else ops.not_, (operand,)
            )
        if isinstance(expr, ast.Range):
            start = self._eval_subscript(expr.start, scope)
            step = (
                self._eval_subscript(expr.step, scope)
                if expr.step is not None
                else 1.0
            )
            stop = self._eval_subscript(expr.stop, scope)
            return boxed_call(ops.make_range, (start, step, stop))
        return self._eval(expr, scope)

    def _end_value(self) -> float:
        """``end``: the extent of the subscripted array in the
        subscript's position, or its element count for one subscript."""
        if self._end is None:
            raise InterpreterError("'end' used outside indexing")
        base, position, count = self._end
        if count == 1:
            return float(numel(base))
        shape = box(base).shape
        extent = shape[position - 1] if position <= len(shape) else 1
        return float(extent)


def interpret(
    program: ast.Program,
    ctx: RuntimeContext | None = None,
    max_steps: int = 20_000_000,
) -> InterpResult:
    """Run a parsed program under the tree-walking interpreter."""
    return Interpreter(program, ctx, max_steps=max_steps).run()
