"""A MATLAB interpreter over the AST (the MATLAB 6.1 stand-in).

Evaluates the *AST* directly — independent of the IR pipeline — so it
doubles as the semantic oracle for differential testing: interpreter
output must equal both executors' output and the compiled C's output.

Timing follows an interpretive cost model: per-node dispatch and
name-table lookups on top of the same library-call costs mcc pays
(MATLAB's built-in operations and mcc's library are the same code, as
the paper notes).  Memory is modelled like mcc's boxes but with the
interpreter process's much larger image.

Each :meth:`Interpreter.run` first compiles every function body into
nested closures (:class:`_Compiler`): a node's kind, operator, cost
constants and whether a subscript holds an ``end`` are fixed once, and
the hot ticks are inlined on the interpreter's clock fields.  The
closures charge exactly the ticks a walk of the tree charges, in the
same order, so steps and every modelled figure are those of a tree
walk.  Names still resolve at run time (``a(i)`` indexes when ``a`` is
in scope and calls otherwise), and a node that cannot run raises only
when it is reached.  The closures live for one run.

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
from repro.runtime.names import BUILTIN_NAMES, BUILTINS, CONSTANT_VALUES

#: a -nojvm MATLAB 6.1 process image
INTERP_IMAGE_BYTES = 11 * 1024 * 1024


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

_STEP_LIMIT = "interpreter step limit exceeded"


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
        #: function name → its compiled body, during :meth:`run`
        self._code = None

    # ------------------------------------------------------------------

    def run(self) -> InterpResult:
        entry = self.program.entry_function()
        self._code = _Compiler(self).compile_functions()
        try:
            self._call_function(entry, [])
        finally:
            self._code = None  # the closures hold self: no cycle outlives run
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
        """One step: ``cycles`` on the clock, weighted by the live heap
        before ``heap_delta`` applies.  The compiled code inlines this
        on its hot paths, operation for operation."""
        self._heap_weighted += self._heap_live * cycles
        self.clock += cycles
        self._heap_live = max(0.0, self._heap_live + heap_delta)
        self.steps += 1
        if self.steps > self.max_steps:
            raise InterpreterError(_STEP_LIMIT)

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
            self._code[func.name](scope)
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

    def _display(self, name: str, value: Value) -> None:
        self.ctx.write(f"{name} =\n")
        call_builtin(self.ctx, "disp", [box(value)])

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


def _fail(error: type, message: str):
    """Code that raises ``error(message)`` when it runs."""

    def fail(*_):
        raise error(message)

    return fail


def _colon(scope):
    return COLON


class _Compiler:
    """Turns one interpreter's function bodies into closures.

    A statement compiles to ``f(scope)``, an expression to
    ``f(scope) → value``, and a statement list to a runner that charges
    each statement's dispatch tick before running it.  Where a closure
    inlines :meth:`Interpreter._tick`, it performs the same float
    operations in the same order; a tick of zero cycles leaves the
    clock and the weighted heap as they are, so only its heap change
    and its step are written.
    """

    def __init__(self, interp: Interpreter) -> None:
        self.interp = interp
        self.user_functions = interp.program.functions
        costs = interp.costs
        self.dispatch = costs.interp_dispatch
        self.expr_dispatch = costs.interp_dispatch * 0.1
        self.lookup = costs.interp_name_lookup
        self.library_call = costs.library_call
        self.type_check = costs.type_check
        self.element_op = costs.element_op
        #: ``end`` markers compiled so far: a subscript holds one when
        #: compiling it moved the count
        self.ends = 0
        #: the loops around the statement being compiled
        self.loops = 0
        #: the names the function being compiled assigns, which a
        #: call-or-index reads as variables
        self.assigned: set[str] = set()

    def compile_functions(self) -> dict:
        code = {}
        for name, func in self.user_functions.items():
            self.assigned = func.assigned_names()
            code[name] = self.block(func.body)
        return code

    # -- statements ------------------------------------------------------

    def block(self, stmts: list[ast.Stmt]):
        code = tuple(self.stmt(stmt) for stmt in stmts)
        interp = self.interp
        cycles = self.dispatch
        max_steps = interp.max_steps

        def run(scope):
            for stmt in code:
                interp._heap_weighted += interp._heap_live * cycles
                interp.clock += cycles
                interp.steps += 1
                if interp.steps > max_steps:
                    raise InterpreterError(_STEP_LIMIT)
                stmt(scope)

        return run

    def stmt(self, stmt: ast.Stmt):
        return _STMTS[stmt.__class__](self, stmt)

    def assign(self, stmt: ast.Assign):
        value = self.expr(stmt.value)
        target = stmt.target
        display = stmt.display
        interp = self.interp
        if target.__class__ is ast.Ident:
            name = target.name
            cycles = self.lookup
            max_steps = interp.max_steps

            def assign_name(scope):
                result = value(scope)
                scope[name] = result
                interp._heap_weighted += interp._heap_live * cycles
                interp.clock += cycles
                live = interp._heap_live + byte_size(result)
                interp._heap_live = live if live > 0.0 else 0.0
                interp.steps += 1
                if interp.steps > max_steps:
                    raise InterpreterError(_STEP_LIMIT)
                if display:
                    interp._display(name, result)

            return assign_name
        if (
            target.__class__ is not ast.Apply
            or target.func.__class__ is not ast.Ident
        ):
            def malformed(scope):
                value(scope)
                raise AssertionError("assignment to an unnamed target")

            return malformed
        name = target.func.name
        ends = self.ends
        subscripts = self.subscripts(
            [self.operand(arg)[0] for arg in target.args], self.ends != ends
        )
        cycles = self.library_call
        tick = interp._tick

        def assign_element(scope):
            result = value(scope)
            base = scope[name] if name in scope else MArray.empty()
            updated = subsasgn_unboxed(base, result, subscripts(base, scope))
            scope[name] = updated
            tick(cycles, byte_size(updated) - byte_size(base))
            if display:
                interp._display(name, updated)

        return assign_element

    def multi_assign(self, stmt: ast.MultiAssign):
        call = stmt.value
        if (
            call.__class__ is not ast.Apply
            or call.func.__class__ is not ast.Ident
        ):
            return _fail(AssertionError, "multiple values from a non-call")
        fname = call.func.name
        args = tuple(self.expr(arg) for arg in call.args)
        names = [
            target.name if target.__class__ is ast.Ident else None
            for target in stmt.targets
        ]
        nargout = len(names)
        self.check_outputs(fname, nargout, stmt.location)
        user = fname in self.user_functions
        cycles = self.library_call * max(1, nargout)
        display = stmt.display
        interp = self.interp

        def multi_assign(scope):
            values = [arg(scope) for arg in args]
            if user:
                results = interp._call_user(fname, values, nargout)
            else:
                results = call_builtin_unboxed(
                    interp.ctx, fname, values, nargout
                )
            interp._tick(cycles)
            for name, result in zip(names, results):
                if name is None:
                    raise AssertionError("multiple values to a non-name")
                scope[name] = result
                if display:
                    interp._display(name, result)

        return multi_assign

    def expr_stmt(self, stmt: ast.ExprStmt):
        # a call as a statement asks for no value
        value = stmt.value
        if value.__class__ is ast.Apply:
            value = self.apply(value, nargout=0)
        elif value.__class__ is ast.Ident:
            value = self.ident(value, nargout=0)
        else:
            value = self.expr(value)
        display = stmt.display
        interp = self.interp

        def expr_stmt(scope):
            result = value(scope)
            if result is not None:
                scope["ans"] = result
                if display:
                    interp._display("ans", result)

        return expr_stmt

    def if_(self, stmt: ast.If):
        branches = tuple(
            (self.expr(cond), self.block(body))
            for cond, body in stmt.branches
        )
        orelse = self.block(stmt.orelse)

        def if_(scope):
            for cond, body in branches:
                if is_true(cond(scope)):
                    body(scope)
                    return
            orelse(scope)

        return if_

    def loop_body(self, body: list[ast.Stmt]):
        self.loops += 1
        try:
            return self.block(body)
        finally:
            self.loops -= 1

    def while_(self, stmt: ast.While):
        cond = self.expr(stmt.condition)
        body = self.loop_body(stmt.body)

        def while_(scope):
            while is_true(cond(scope)):
                try:
                    body(scope)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue

        return while_

    def for_(self, stmt: ast.For):
        iterable = self.expr(stmt.iterable)
        body = self.loop_body(stmt.body)
        var = stmt.var

        def for_(scope):
            for value in box(iterable(scope)).flat().tolist():
                if value.__class__ is not float:  # a complex element
                    value = unbox(MArray.from_scalar(value))
                scope[var] = value
                try:
                    body(scope)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue

        return for_

    def signal(self, stmt: ast.Stmt):
        """``break``, ``continue`` or ``return``; lowering's refusal of
        the first two outside a loop is made here too."""
        if not self.loops and stmt.__class__ is not ast.Return:
            keyword = "break" if stmt.__class__ is ast.Break else "continue"
            raise InterpreterError(f"{keyword!r} outside a loop")
        signal = _SIGNALS[stmt.__class__]

        def raise_signal(scope):
            raise signal()

        return raise_signal

    # -- expressions ----------------------------------------------------

    def expr(self, expr: ast.Expr):
        compile_expr = _EXPRS.get(expr.__class__)
        if compile_expr is None:
            return self.unsupported(expr)
        return compile_expr(self, expr)

    def unsupported(self, expr: ast.Expr):
        tick = self.interp._tick
        cycles = self.expr_dispatch
        message = f"unsupported expression {type(expr).__name__}"

        def unsupported(scope):
            tick(cycles)
            raise InterpreterError(message)

        return unsupported

    def end(self, expr: ast.EndMarker):
        self.ends += 1
        end_value = self.interp._end_value
        return lambda scope: end_value()  # free, like a subscript's spine

    def num(self, expr: ast.Num):
        interp = self.interp
        cycles = self.expr_dispatch
        max_steps = interp.max_steps
        if expr.is_imag:
            imag = 1j * expr.value
            tick = interp._tick

            def imaginary(scope):
                tick(cycles)
                return unbox(MArray.from_scalar(imag))

            return imaginary
        value = float(expr.value)

        def num(scope):
            interp._heap_weighted += interp._heap_live * cycles
            interp.clock += cycles
            interp.steps += 1
            if interp.steps > max_steps:
                raise InterpreterError(_STEP_LIMIT)
            return value

        return num

    def str_(self, expr: ast.Str):
        tick = self.interp._tick
        cycles = self.expr_dispatch
        text = expr.value

        def string(scope):
            tick(cycles)
            return MArray.from_string(text)

        return string

    def ident(self, expr: ast.Ident, nargout: int = 1):
        interp = self.interp
        name = expr.name
        if name not in self.assigned:
            self.check_outputs(name, nargout, expr.location)
        unbound = self.unbound(name)
        dispatch = self.expr_dispatch
        lookup = self.lookup
        max_steps = interp.max_steps

        def ident(scope):
            live = interp._heap_live
            interp._heap_weighted += live * dispatch
            interp.clock += dispatch
            interp.steps += 1
            if interp.steps > max_steps:
                raise InterpreterError(_STEP_LIMIT)
            interp._heap_weighted += live * lookup
            interp.clock += lookup
            interp.steps += 1
            if interp.steps > max_steps:
                raise InterpreterError(_STEP_LIMIT)
            if name in scope:
                return scope[name]
            return unbound()

        return ident

    def unbound(self, name: str):
        """A name's value when no variable holds it: a constant, the
        imaginary unit, or a call without arguments."""
        interp = self.interp
        if name in CONSTANT_VALUES:
            value = CONSTANT_VALUES[name]
            return lambda: value
        if name in ("i", "j"):
            return lambda: MArray.from_scalar(1j)
        if name in self.user_functions:
            return lambda: interp._call_user(name, [], 1)[0]
        if name in BUILTIN_NAMES:
            return lambda: (
                call_builtin_unboxed(interp.ctx, name, [], 1) or [None]
            )[0]
        return _fail(MatlabRuntimeError, f"undefined name {name!r}")

    def unary(self, expr: ast.UnaryOp):
        return self.operator(_unary_fn(expr.op), self.expr(expr.operand))

    def transpose(self, expr: ast.Transpose):
        conjugate = expr.conjugate
        return self.operator(
            lambda a: ops.transpose(a, conjugate), self.expr(expr.operand)
        )

    def operator(self, fn, operand):
        """A one-operand runtime operation: ``fn`` on the boxed operand,
        priced a library call plus one cycle per operand element."""
        tick = self.interp._tick
        dispatch = self.expr_dispatch
        cycles = self.library_call

        def operator(scope):
            tick(dispatch)
            value = operand(scope)
            tick(cycles + numel(value))
            return boxed_call(fn, (value,))

        return operator

    def binop(self, expr: ast.BinaryOp):
        left = self.expr(expr.left)
        right = self.expr(expr.right)
        tick = self.interp._tick
        dispatch = self.expr_dispatch
        if expr.op == "&&":

            def and_(scope):
                tick(dispatch)
                if not is_true(left(scope)):
                    return False
                return is_true(right(scope))

            return and_
        if expr.op == "||":

            def or_(scope):
                tick(dispatch)
                if is_true(left(scope)):
                    return True
                return is_true(right(scope))

            return or_
        return self.binop_code(expr.op, left, right)

    def binop_code(self, op: str, left, right):
        interp = self.interp
        dispatch = self.expr_dispatch
        max_steps = interp.max_steps
        compute = _BINOPS[op]
        fixed = self.library_call + self.type_check * 2
        per_element = self.element_op * (150.0 if op in ("^", ".^") else 1.0)

        def binop(scope):
            interp._heap_weighted += interp._heap_live * dispatch
            interp.clock += dispatch
            interp.steps += 1
            if interp.steps > max_steps:
                raise InterpreterError(_STEP_LIMIT)
            result = compute(left(scope), right(scope))
            size = byte_size(result)
            cycles = fixed + per_element * numel(result)
            interp._heap_weighted += interp._heap_live * cycles
            interp.clock += cycles
            live = interp._heap_live + size
            interp._heap_live = live if live > 0.0 else 0.0
            interp.steps += 1
            if interp.steps > max_steps:
                raise InterpreterError(_STEP_LIMIT)
            # half the result's bytes freed again, in a tick of no cycles
            live = interp._heap_live + -size * 0.5
            interp._heap_live = live if live > 0.0 else 0.0
            interp.steps += 1
            if interp.steps > max_steps:
                raise InterpreterError(_STEP_LIMIT)
            return result

        return binop

    def range_(self, expr: ast.Range):
        return self.range_code(
            self.expr(expr.start),
            None if expr.step is None else self.expr(expr.step),
            self.expr(expr.stop),
        )

    def range_code(self, start, step, stop):
        tick = self.interp._tick
        dispatch = self.expr_dispatch
        cycles = self.library_call

        def range_(scope):
            tick(dispatch)
            first = start(scope)
            by = 1.0 if step is None else step(scope)
            result = boxed_call(ops.make_range, (first, by, stop(scope)))
            tick(cycles + numel(result))
            return result

        return range_

    def matrix(self, expr: ast.MatrixLit):
        rows = tuple(tuple(self.expr(e) for e in row) for row in expr.rows)
        tick = self.interp._tick
        dispatch = self.expr_dispatch
        cycles = self.library_call

        def matrix(scope):
            tick(dispatch)
            if not rows:
                return MArray.empty()
            values = []
            for row in rows:
                parts = [part(scope) for part in row]
                values.append(
                    boxed_call(_horzcat, parts)
                    if len(parts) > 1 else parts[0]
                )
            result = (
                boxed_call(_vertcat, values)
                if len(values) > 1 else values[0]
            )
            tick(cycles + numel(result))
            return result

        return matrix

    def apply(self, expr: ast.Apply, nargout: int = 1):
        interp = self.interp
        dispatch = self.expr_dispatch
        if expr.func.__class__ is not ast.Ident:
            tick = interp._tick

            def malformed(scope):
                tick(dispatch)
                raise AssertionError("call of an unnamed function")

            return malformed
        name = expr.func.name
        if name not in self.assigned:
            self.check_outputs(name, nargout, expr.location)
        ends = self.ends
        operands = [self.operand(arg) for arg in expr.args]
        subscripts = self.subscripts(
            [index for index, _ in operands], self.ends != ends
        )
        call = self.call(name, tuple(argument for _, argument in operands))
        fixed = self.library_call + self.type_check
        max_steps = interp.max_steps

        def apply(scope):
            interp._heap_weighted += interp._heap_live * dispatch
            interp.clock += dispatch
            interp.steps += 1
            if interp.steps > max_steps:
                raise InterpreterError(_STEP_LIMIT)
            if name not in scope:
                return call(scope)
            base = scope[name]
            result = subsref_unboxed(base, subscripts(base, scope))
            cycles = fixed + numel(result)
            interp._heap_weighted += interp._heap_live * cycles
            interp.clock += cycles
            live = interp._heap_live + byte_size(result) * 0.5
            interp._heap_live = live if live > 0.0 else 0.0
            interp.steps += 1
            if interp.steps > max_steps:
                raise InterpreterError(_STEP_LIMIT)
            return result

        return apply

    def check_outputs(self, name: str, count: int, location) -> None:
        """Refuse at compile time, as lowering does, a call of ``name``
        for more results than it returns."""
        if name in self.user_functions:
            most = max(1, len(self.user_functions[name].outputs))
        else:
            most = BUILTINS[name].nargout if name in BUILTINS else None
        if most is not None and count > most:
            raise InterpreterError(
                f"{location}: too many outputs requested from {name!r}"
            )

    def call(self, name: str, args: tuple):
        """``name(args)`` when no variable ``name`` is in scope."""
        interp = self.interp
        tick = interp._tick
        cycles = self.library_call + self.type_check
        if name in self.user_functions:
            def call_user(scope):
                values = [arg(scope) for arg in args]
                tick(cycles)
                results = interp._call_user(name, values, 1)
                return results[0] if results else None

            return call_user
        if name not in BUILTIN_NAMES:
            message = f"unknown function {name!r}"

            def call_unknown(scope):
                [arg(scope) for arg in args]
                tick(cycles)
                raise MatlabRuntimeError(message)

            return call_unknown
        spec = BUILTINS.get(name)
        per_element = self.element_op * (
            150.0 if spec is not None and spec.work == "transcendental"
            else 1.0
        )

        def call_builtin(scope):
            values = [arg(scope) for arg in args]
            tick(cycles)
            results = call_builtin_unboxed(interp.ctx, name, values, 1)
            result = results[0] if results else None
            elems = max((numel(a) for a in values), default=1)
            if result is not None:
                elems = max(elems, numel(result))
            tick(
                per_element * elems,
                byte_size(result) if result is not None else 0,
            )
            return result

        return call_builtin

    # -- subscripts -----------------------------------------------------

    def subscripts(self, parts: list, holds_end: bool):
        """``(base, scope) → subscripts`` from each subscript's code.
        Where an ``end`` occurs, the ``(base, position, count)`` context
        is set for each subscript and the outer one restored after the
        last; elsewhere nothing reads it, so it is left alone."""
        if not holds_end:
            if len(parts) == 1:
                (first,) = parts
                return lambda base, scope: [first(scope)]
            if len(parts) == 2:
                first, second = parts
                return lambda base, scope: [first(scope), second(scope)]
            return lambda base, scope: [part(scope) for part in parts]
        interp = self.interp
        count = len(parts)
        positions = tuple(enumerate(parts, start=1))

        def with_end(base, scope):
            subs = []
            outer_end = interp._end
            for position, part in positions:
                interp._end = (base, position, count)
                subs.append(part(scope))
            interp._end = outer_end
            return subs

        return with_end

    def operand(self, expr: ast.Expr) -> tuple:
        """The code of one argument of ``name(...)`` as a subscript and
        as a call argument.  As a subscript, its spine of ranges and of
        unary and binary operators other than ``&&``/``||`` costs
        nothing; below the spine the two are the same code."""
        cls = expr.__class__
        if cls is ast.ColonAll:
            return _colon, self.expr(expr)
        if cls is ast.BinaryOp and expr.op in _BINOPS:
            compute = _BINOPS[expr.op]
            left, left_arg = self.operand(expr.left)
            right, right_arg = self.operand(expr.right)
            return (
                lambda scope: compute(left(scope), right(scope)),
                self.binop_code(expr.op, left_arg, right_arg),
            )
        if cls is ast.UnaryOp:
            fn = _unary_fn(expr.op)
            operand, operand_arg = self.operand(expr.operand)
            return (
                lambda scope: boxed_call(fn, (operand(scope),)),
                self.operator(fn, operand_arg),
            )
        if cls is ast.Range:
            start, start_arg = self.operand(expr.start)
            step, step_arg = (
                (None, None) if expr.step is None
                else self.operand(expr.step)
            )
            stop, stop_arg = self.operand(expr.stop)

            def range_(scope):
                first = start(scope)
                by = 1.0 if step is None else step(scope)
                return boxed_call(ops.make_range, (first, by, stop(scope)))

            return range_, self.range_code(start_arg, step_arg, stop_arg)
        code = self.expr(expr)
        return code, code


def _unary_fn(op: str):
    return ops.neg if op == "-" else ops.not_


def _horzcat(*parts):
    return ops.horzcat(parts)


def _vertcat(*rows):
    return ops.vertcat(rows)


_SIGNALS = {
    ast.Break: _BreakSignal,
    ast.Continue: _ContinueSignal,
    ast.Return: _ReturnSignal,
}

#: statement class → its compiler
_STMTS = {
    ast.Assign: _Compiler.assign,
    ast.MultiAssign: _Compiler.multi_assign,
    ast.ExprStmt: _Compiler.expr_stmt,
    ast.If: _Compiler.if_,
    ast.While: _Compiler.while_,
    ast.For: _Compiler.for_,
    **dict.fromkeys(_SIGNALS, _Compiler.signal),
}

#: expression class → its compiler
_EXPRS = {
    ast.EndMarker: _Compiler.end,
    ast.Num: _Compiler.num,
    ast.Str: _Compiler.str_,
    ast.Ident: _Compiler.ident,
    ast.UnaryOp: _Compiler.unary,
    ast.BinaryOp: _Compiler.binop,
    ast.Transpose: _Compiler.transpose,
    ast.Range: _Compiler.range_,
    ast.MatrixLit: _Compiler.matrix,
    ast.Apply: _Compiler.apply,
}


def interpret(
    program: ast.Program,
    ctx: RuntimeContext | None = None,
    max_steps: int = 20_000_000,
) -> InterpResult:
    """Run a parsed program under the interpreter."""
    return Interpreter(program, ctx, max_steps=max_steps).run()
