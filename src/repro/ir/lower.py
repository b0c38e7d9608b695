"""AST → SO-form IR lowering.

Responsibilities:

* break compound expressions into Single-Operator assignments through
  fresh temporaries (paper §2.3) — these temporaries are the main fuel
  for GCTD's storage coalescing;
* build the CFG for ``if``/``while``/``for``/``break``/``continue``;
* resolve MATLAB's call-versus-index ambiguity (``a(i)``) using the set
  of assigned names;
* desugar ``end`` subscripts to ``numel``/``size`` calls, ranges in
  ``for`` headers to counted loops, and matrix literals to
  ``horzcat``/``vertcat`` chains;
* inline user-defined function calls (the analysis in the paper is
  per-function; our whole-program IR corresponds to the fully inlined
  driver, which matches how the benchmark drivers invoke their main
  routine).  Recursion is rejected.

Short-circuit ``&&``/``||`` are lowered to the eager ``and``/``or`` —
the supported subset evaluates scalar, side-effect-free conditions, so
the meaning is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.frontend import ast_nodes as ast
from repro.frontend.source import Location, MatlabError, UNKNOWN_LOCATION
from repro.ir.cfg import Block, IRFunction, remove_unreachable_blocks
from repro.ir.instr import (
    AST_BINOP_TO_IR,
    Branch,
    Const,
    Instr,
    Jump,
    Operand,
    Ret,
    StrConst,
    Var,
)
from repro.runtime.names import BUILTIN_NAMES, CONSTANT_VALUES

_MAX_INLINE_DEPTH = 64


class LoweringError(MatlabError):
    pass


def _assigned_names(func: ast.FunctionDef) -> set[str]:
    """All names that appear as assignment targets (or loop/input vars)."""
    names = set(func.inputs)

    def scan_target(target: ast.Expr) -> None:
        if isinstance(target, ast.Ident):
            names.add(target.name)
        elif isinstance(target, ast.Apply) and isinstance(
            target.func, ast.Ident
        ):
            names.add(target.func.name)

    def scan(stmts: list[ast.Stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                scan_target(stmt.target)
            elif isinstance(stmt, ast.MultiAssign):
                for t in stmt.targets:
                    scan_target(t)
            elif isinstance(stmt, ast.If):
                for _, body in stmt.branches:
                    scan(body)
                scan(stmt.orelse)
            elif isinstance(stmt, ast.While):
                scan(stmt.body)
            elif isinstance(stmt, ast.For):
                names.add(stmt.var)
                scan(stmt.body)

    scan(func.body)
    return names


@dataclass(slots=True)
class _Scope:
    """Per-(inlined-)function lowering state."""

    func: ast.FunctionDef
    rename: dict[str, str]
    assigned: set[str]
    exit_block: Block | None = None  # target of `return`


@dataclass(slots=True)
class _LoopContext:
    continue_target: int
    break_target: int


class Lowerer:
    """Lowers a parsed :class:`Program` to one inlined IR function."""

    def __init__(self, program: ast.Program):
        self._program = program
        self._ir: IRFunction = None  # type: ignore[assignment]
        self._current: Block = None  # type: ignore[assignment]
        self._scopes: list[_Scope] = []
        self._loops: list[_LoopContext] = []
        self._inline_stack: list[str] = []
        self._inline_count = 0
        # (array operand, subscript position, subscript count) for `end`
        self._end_context: list[tuple[Operand, int, int]] = []

    # -- public entry ------------------------------------------------------

    def lower(self) -> IRFunction:
        entry = self._program.entry_function()
        if entry.inputs:
            raise LoweringError(
                f"entry function {entry.name!r} must take no arguments"
            )
        self._ir = IRFunction(entry.name)
        self._current = self._ir.entry_block()
        scope = _Scope(
            func=entry,
            rename={},
            assigned=_assigned_names(entry),
        )
        self._scopes.append(scope)
        self._lower_body(entry.body)
        if self._current.terminator is None:
            self._current.terminator = Ret()
        # `return` in the top-level function lowers directly to Ret, so
        # no exit block is needed for the entry scope.
        self._scopes.pop()
        remove_unreachable_blocks(self._ir)
        self._ir.verify()
        return self._ir

    # -- helpers -------------------------------------------------------------

    @property
    def _scope(self) -> _Scope:
        return self._scopes[-1]

    def _emit(
        self,
        op: str,
        results: list[str],
        args: list[Operand],
        location: Location = UNKNOWN_LOCATION,
    ) -> Instr:
        instr = Instr(op=op, results=results, args=args, location=location)
        self._current.append(instr)
        return instr

    def _fresh(self) -> str:
        return self._ir.new_temp()

    def _local(self, name: str) -> str:
        """Map a source name to its IR name in the current scope."""
        return self._scope.rename.get(name, name)

    def _goto(self, block: Block) -> None:
        if self._current.terminator is None:
            self._current.terminator = Jump(block.id)
        self._current = block

    # -- statements ------------------------------------------------------

    def _lower_body(self, stmts: list[ast.Stmt]) -> None:
        for stmt in stmts:
            if self._current.terminator is not None:
                break  # unreachable code after break/continue/return
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.MultiAssign):
            self._lower_multi_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._lower_expr_stmt(stmt)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Break):
            if not self._loops:
                raise LoweringError("'break' outside a loop")
            self._current.terminator = Jump(self._loops[-1].break_target)
        elif isinstance(stmt, ast.Continue):
            if not self._loops:
                raise LoweringError("'continue' outside a loop")
            self._current.terminator = Jump(self._loops[-1].continue_target)
        elif isinstance(stmt, ast.Return):
            exit_block = self._scope.exit_block
            if exit_block is None:
                self._current.terminator = Ret()
            else:
                self._current.terminator = Jump(exit_block.id)
        else:
            raise LoweringError(f"unsupported statement {type(stmt).__name__}")

    def _display(self, name: str, source_name: str, loc: Location) -> None:
        self._emit(
            "display", [], [Var(name), StrConst(source_name)], loc
        )

    def _lower_assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if isinstance(target, ast.Ident):
            name = self._local(target.name)
            value = self._lower_expr_into(stmt.value, name, stmt.location)
            if stmt.display:
                self._display(value, target.name, stmt.location)
            return
        if isinstance(target, ast.Apply) and isinstance(
            target.func, ast.Ident
        ):
            # L-indexing: a(l1, ..., lm) = r  ⇒  a = subsasgn(a, r, l...)
            name = self._local(target.func.name)
            rhs = self._lower_expr(stmt.value)
            base: Operand = Var(name)
            subs = self._lower_subscripts(base, target.args)
            self._emit(
                "subsasgn", [name], [base, rhs, *subs], stmt.location
            )
            if stmt.display:
                self._display(name, target.func.name, stmt.location)
            return
        raise LoweringError("unsupported assignment target")

    def _lower_multi_assign(self, stmt: ast.MultiAssign) -> None:
        value = stmt.value
        if not (
            isinstance(value, ast.Apply)
            and isinstance(value.func, ast.Ident)
        ):
            raise LoweringError(
                "multi-assignment requires a function call on the right"
            )
        names: list[str] = []
        for t in stmt.targets:
            if not isinstance(t, ast.Ident):
                raise LoweringError(
                    "multi-assignment targets must be plain variables"
                )
            names.append(self._local(t.name))
        fname = value.func.name
        if self._is_user_function(fname):
            self._inline_call(fname, value.args, names, stmt.location)
        else:
            args = [self._lower_expr(a) for a in value.args]
            self._emit(f"call:{fname}", names, args, stmt.location)
        if stmt.display:
            for name, t in zip(names, stmt.targets):
                self._display(name, t.name, stmt.location)  # type: ignore[union-attr]

    def _lower_expr_stmt(self, stmt: ast.ExprStmt) -> None:
        value = stmt.value
        # Effect-only builtin calls (disp/fprintf/...) produce no value.
        if isinstance(value, ast.Apply) and isinstance(value.func, ast.Ident):
            fname = value.func.name
            local_vars = self._scope.assigned
            if fname not in local_vars and not self._is_user_function(fname):
                args = [self._lower_expr(a) for a in value.args]
                self._emit(f"call:{fname}", [], args, stmt.location)
                return
        name = self._lower_expr(value)
        if isinstance(name, Var):
            ans = self._local("ans")
            self._scope.assigned.add("ans")
            self._emit("copy", [ans], [name], stmt.location)
            if stmt.display:
                self._display(ans, "ans", stmt.location)

    def _lower_if(self, stmt: ast.If) -> None:
        join = self._ir.new_block()
        for cond_expr, body in stmt.branches:
            cond = self._lower_expr(cond_expr)
            then_block = self._ir.new_block()
            else_block = self._ir.new_block()
            self._current.terminator = Branch(
                cond, then_block.id, else_block.id
            )
            self._current = then_block
            self._lower_body(body)
            if self._current.terminator is None:
                self._current.terminator = Jump(join.id)
            self._current = else_block
        self._lower_body(stmt.orelse)
        if self._current.terminator is None:
            self._current.terminator = Jump(join.id)
        self._current = join

    def _lower_while(self, stmt: ast.While) -> None:
        header = self._ir.new_block()
        self._goto(header)
        cond = self._lower_expr(stmt.condition)
        body_block = self._ir.new_block()
        exit_block = self._ir.new_block()
        self._current.terminator = Branch(
            cond, body_block.id, exit_block.id
        )
        self._loops.append(_LoopContext(header.id, exit_block.id))
        self._current = body_block
        self._lower_body(stmt.body)
        if self._current.terminator is None:
            self._current.terminator = Jump(header.id)
        self._loops.pop()
        self._current = exit_block

    def _lower_for(self, stmt: ast.For) -> None:
        """Counted lowering of ``for var = start:step:stop``.

        trip = floor((stop - start) / step); k = 0;
        while k <= trip: var = start + k * step; body; k = k + 1

        A non-range iterable is iterated by element index (vectors).
        """
        loc = stmt.location
        var = self._local(stmt.var)
        if isinstance(stmt.iterable, ast.Range):
            rng = stmt.iterable
            start = self._lower_expr(rng.start)
            step = (
                self._lower_expr(rng.step)
                if rng.step is not None
                else Const(1.0)
            )
            stop = self._lower_expr(rng.stop)
            span = self._fresh()
            self._emit("sub", [span], [stop, start], loc)
            ratio = self._fresh()
            self._emit("div", [ratio], [Var(span), step], loc)
            trip = self._fresh()
            self._emit("call:floor", [trip], [Var(ratio)], loc)

            counter = self._fresh()
            self._emit("copy", [counter], [Const(0.0)], loc)

            header = self._ir.new_block()
            self._goto(header)
            cond = self._fresh()
            self._emit("le", [cond], [Var(counter), Var(trip)], loc)
            body_block = self._ir.new_block()
            exit_block = self._ir.new_block()
            self._current.terminator = Branch(
                Var(cond), body_block.id, exit_block.id
            )
            # `continue` must still run the increment: give it its own block.
            incr_block = self._ir.new_block()
            self._loops.append(
                _LoopContext(incr_block.id, exit_block.id)
            )
            self._current = body_block
            # `forindex` = start + counter*step, but carries the loop
            # bounds so range inference can bound the loop variable
            # (needed to prove subscripts in-bounds, §3.1).
            self._emit(
                "forindex", [var], [start, step, stop, Var(counter)], loc
            )
            self._lower_body(stmt.body)
            if self._current.terminator is None:
                self._current.terminator = Jump(incr_block.id)
            self._current = incr_block
            self._emit("add", [counter], [Var(counter), Const(1.0)], loc)
            self._current.terminator = Jump(header.id)
            self._loops.pop()
            self._current = exit_block
            return

        # General iterable: iterate elements of a vector.
        vec = self._lower_expr(stmt.iterable)
        count = self._fresh()
        self._emit("call:numel", [count], [vec], loc)
        counter = self._fresh()
        self._emit("copy", [counter], [Const(1.0)], loc)
        header = self._ir.new_block()
        self._goto(header)
        cond = self._fresh()
        self._emit("le", [cond], [Var(counter), Var(count)], loc)
        body_block = self._ir.new_block()
        exit_block = self._ir.new_block()
        self._current.terminator = Branch(
            Var(cond), body_block.id, exit_block.id
        )
        incr_block = self._ir.new_block()
        self._loops.append(_LoopContext(incr_block.id, exit_block.id))
        self._current = body_block
        self._emit("subsref", [var], [vec, Var(counter)], loc)
        self._lower_body(stmt.body)
        if self._current.terminator is None:
            self._current.terminator = Jump(incr_block.id)
        self._current = incr_block
        self._emit("add", [counter], [Var(counter), Const(1.0)], loc)
        self._current.terminator = Jump(header.id)
        self._loops.pop()
        self._current = exit_block

    # -- expressions ----------------------------------------------------

    def _lower_expr(self, expr: ast.Expr) -> Operand:
        """Lower to an operand (constants stay immediate)."""
        if isinstance(expr, ast.Num):
            value = complex(0.0, expr.value) if expr.is_imag else complex(
                expr.value, 0.0
            )
            return Const(value)
        if isinstance(expr, ast.Str):
            return StrConst(expr.value)
        if isinstance(expr, ast.Ident):
            return self._lower_ident(expr)
        name = self._lower_expr_into(expr, None, expr.location)
        return Var(name)

    def _lower_ident(self, expr: ast.Ident) -> Operand:
        name = expr.name
        if name in self._scope.assigned:
            return Var(self._local(name))
        if name in CONSTANT_VALUES:
            return Const(complex(CONSTANT_VALUES[name], 0.0))
        if name in ("i", "j"):
            return Const(complex(0.0, 1.0))
        if self._is_user_function(name) or name in BUILTIN_NAMES:
            # Zero-argument call written without parens (e.g. `toc`).
            out = self._fresh()
            self._apply_call(name, [], [out], expr.location)
            return Var(out)
        raise LoweringError(
            f"{expr.location}: undefined name {name!r}"
        )

    def _lower_expr_into(
        self, expr: ast.Expr, target: str | None, loc: Location
    ) -> str:
        """Lower ``expr``, writing its value into ``target`` (or a temp)."""

        def out() -> str:
            return target if target is not None else self._fresh()

        if isinstance(expr, (ast.Num, ast.Str)):
            result = out()
            self._emit("const", [result], [self._lower_expr(expr)], loc)
            return result
        if isinstance(expr, ast.Ident):
            operand = self._lower_ident(expr)
            if isinstance(operand, Var) and target is None:
                return operand.name
            result = out()
            op = "copy" if isinstance(operand, Var) else "const"
            self._emit(op, [result], [operand], loc)
            return result
        if isinstance(expr, ast.UnaryOp):
            operand = self._lower_expr(expr.operand)
            result = out()
            opcode = {"-": "neg", "~": "not"}[expr.op]
            self._emit(opcode, [result], [operand], expr.location)
            return result
        if isinstance(expr, ast.BinaryOp):
            left = self._lower_expr(expr.left)
            right = self._lower_expr(expr.right)
            result = out()
            self._emit(
                AST_BINOP_TO_IR[expr.op], [result], [left, right],
                expr.location,
            )
            return result
        if isinstance(expr, ast.Transpose):
            operand = self._lower_expr(expr.operand)
            result = out()
            opcode = "ctranspose" if expr.conjugate else "transpose"
            self._emit(opcode, [result], [operand], expr.location)
            return result
        if isinstance(expr, ast.Range):
            start = self._lower_expr(expr.start)
            step = (
                self._lower_expr(expr.step)
                if expr.step is not None
                else Const(1.0)
            )
            stop = self._lower_expr(expr.stop)
            result = out()
            self._emit("range", [result], [start, step, stop], expr.location)
            return result
        if isinstance(expr, ast.MatrixLit):
            return self._lower_matrix(expr, target, loc)
        if isinstance(expr, ast.Apply):
            return self._lower_apply(expr, target)
        if isinstance(expr, ast.EndMarker):
            return self._lower_end_marker(expr, target)
        if isinstance(expr, ast.ColonAll):
            raise LoweringError(f"{expr.location}: ':' outside a subscript")
        raise LoweringError(f"unsupported expression {type(expr).__name__}")

    def _lower_end_marker(
        self, expr: ast.EndMarker, target: str | None
    ) -> str:
        if not self._end_context:
            raise LoweringError(
                f"{expr.location}: 'end' used outside indexing"
            )
        array, position, count = self._end_context[-1]
        result = target if target is not None else self._fresh()
        if count == 1:
            self._emit("call:numel", [result], [array], expr.location)
        else:
            self._emit(
                "call:size",
                [result],
                [array, Const(float(position))],
                expr.location,
            )
        return result

    def _lower_matrix(
        self, expr: ast.MatrixLit, target: str | None, loc: Location
    ) -> str:
        result = target if target is not None else self._fresh()
        if not expr.rows:
            self._emit("empty", [result], [], loc)
            return result
        if len(expr.rows) == 1 and len(expr.rows[0]) > 1:
            elems = [self._lower_expr(e) for e in expr.rows[0]]
            self._emit("horzcat", [result], elems, loc)
            return result
        row_vars: list[Operand] = []
        for row in expr.rows:
            elems = [self._lower_expr(e) for e in row]
            if len(elems) == 1:
                row_vars.append(elems[0])
            else:
                rv = self._fresh()
                self._emit("horzcat", [rv], elems, loc)
                row_vars.append(Var(rv))
        if len(row_vars) == 1:
            # Bind the single row to the result (copy if already a var).
            only = row_vars[0]
            if isinstance(only, Var) and target is None and only.name.endswith("$"):
                return only.name
            op = "copy" if isinstance(only, Var) else "const"
            self._emit(op, [result], [only], loc)
            return result
        self._emit("vertcat", [result], row_vars, loc)
        return result

    # -- calls / indexing --------------------------------------------------

    def _is_user_function(self, name: str) -> bool:
        return name in self._program.functions

    def _lower_apply(self, expr: ast.Apply, target: str | None) -> str:
        if not isinstance(expr.func, ast.Ident):
            raise LoweringError(
                f"{expr.location}: only named calls/indexing supported"
            )
        name = expr.func.name
        if name in self._scope.assigned:
            # Array indexing: subsref.
            base = Var(self._local(name))
            subs = self._lower_subscripts(base, expr.args)
            result = target if target is not None else self._fresh()
            self._emit(
                "subsref", [result], [base, *subs], expr.location
            )
            return result
        result = target if target is not None else self._fresh()
        self._apply_call(name, expr.args, [result], expr.location)
        return result

    def _apply_call(
        self,
        name: str,
        arg_exprs: list[ast.Expr],
        results: list[str],
        loc: Location,
    ) -> None:
        if self._is_user_function(name):
            self._inline_call(name, arg_exprs, results, loc)
            return
        if name not in BUILTIN_NAMES:
            raise LoweringError(f"{loc}: unknown function {name!r}")
        args = [self._lower_expr(a) for a in arg_exprs]
        self._emit(f"call:{name}", results, args, loc)

    def _lower_subscripts(
        self, base: Operand, arg_exprs: list[ast.Expr]
    ) -> list[Operand]:
        subs: list[Operand] = []
        count = len(arg_exprs)
        for position, arg in enumerate(arg_exprs, start=1):
            if isinstance(arg, ast.ColonAll):
                subs.append(StrConst(":"))
                continue
            self._end_context.append((base, position, count))
            try:
                subs.append(self._lower_expr(arg))
            finally:
                self._end_context.pop()
        return subs

    # -- user-function inlining -------------------------------------------

    def _inline_call(
        self,
        name: str,
        arg_exprs: list[ast.Expr],
        results: list[str],
        loc: Location,
    ) -> None:
        if name in self._inline_stack:
            raise LoweringError(
                f"{loc}: recursive call to {name!r} is not supported "
                "(the paper's translator compiles non-recursive MATLAB)"
            )
        if len(self._inline_stack) >= _MAX_INLINE_DEPTH:
            raise LoweringError(f"{loc}: inlining depth limit exceeded")
        callee = self._program.functions[name]
        if len(arg_exprs) > len(callee.inputs):
            raise LoweringError(
                f"{loc}: too many arguments to {name!r}"
            )
        if len(results) > max(1, len(callee.outputs)):
            raise LoweringError(
                f"{loc}: too many outputs requested from {name!r}"
            )

        args = [self._lower_expr(a) for a in arg_exprs]

        self._inline_count += 1
        suffix = f"@{self._inline_count}"
        rename = {
            local: f"{local}{suffix}"
            for local in _assigned_names(callee) | set(callee.outputs)
        }
        # Bind arguments to renamed parameters.
        for param, arg in zip(callee.inputs, args):
            op = "copy" if isinstance(arg, Var) else "const"
            self._emit(op, [rename[param]], [arg], loc)

        exit_block = self._ir.new_block()
        scope = _Scope(
            func=callee,
            rename=rename,
            assigned=_assigned_names(callee),
            exit_block=exit_block,
        )
        self._scopes.append(scope)
        self._inline_stack.append(name)
        saved_loops = self._loops
        self._loops = []
        try:
            self._lower_body(callee.body)
        finally:
            self._loops = saved_loops
            self._inline_stack.pop()
            self._scopes.pop()
        if self._current.terminator is None:
            self._current.terminator = Jump(exit_block.id)
        self._current = exit_block

        # Copy the callee outputs into the requested result names.
        for res, outname in zip(results, callee.outputs):
            self._emit("copy", [res], [Var(rename[outname])], loc)
        if results and not callee.outputs:
            raise LoweringError(
                f"{loc}: function {name!r} returns no value"
            )


def lower_program(program: ast.Program) -> IRFunction:
    """Lower a parsed program to a single inlined SO-form IR function."""
    return Lowerer(program).lower()
