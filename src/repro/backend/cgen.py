"""C code generation from GCTD-allocated IR.

Reproduces the paper's translation scheme:

* one fixed-size C buffer per **stack** group (§3.2.1), declared in the
  activation's frame at the maximal member size;
* one growable heap buffer per **heap** group with on-the-fly resizing
  (§3.2.2);
* inlined operations with the run-time scalar/array dispatch of the
  paper's Figure 1 — scalar operands are read into C locals first, so
  in-place evaluation over the group buffer is safe;
* per-variable shape scalars (the ``___STC`` fields of Figure 1).

Demo-backend limitations (documented in DESIGN.md): rank ≤ 3, real
data in C ``double`` and COMPLEX data in C99 ``double complex``;
features outside the subset raise :class:`CodegenError` (or trap with
a diagnostic at run time) and are exercised through the VM instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.allocation import StorageClass
from repro.core.opsem import scalars_read_first
from repro.frontend.source import MatlabError
from repro.ir.instr import (
    Branch,
    Const,
    ELEMENTWISE_BINARY,
    Instr,
    Jump,
    Operand,
    Ret,
    StrConst,
    Var,
)

from repro.backend.runtime_c import RUNTIME_PREAMBLE


class CodegenError(MatlabError):
    """Program uses a feature outside the demo C back end's subset."""


_ELEMENTWISE_EXPR = {
    "add": "({x} + {y})",
    "sub": "({x} - {y})",
    "elmul": "({x} * {y})",
    "eldiv": "({x} / {y})",
    "elldiv": "({y} / {x})",
    "elpow": "pow({x}, {y})",
    "lt": "(({x} < {y}) ? 1.0 : 0.0)",
    "le": "(({x} <= {y}) ? 1.0 : 0.0)",
    "gt": "(({x} > {y}) ? 1.0 : 0.0)",
    "ge": "(({x} >= {y}) ? 1.0 : 0.0)",
    "eq": "(({x} == {y}) ? 1.0 : 0.0)",
    "ne": "(({x} != {y}) ? 1.0 : 0.0)",
    "and": "((({x} != 0.0) && ({y} != 0.0)) ? 1.0 : 0.0)",
    "or": "((({x} != 0.0) || ({y} != 0.0)) ? 1.0 : 0.0)",
}

_UNARY_CALLS = {
    "abs": "fabs({x})",
    "sqrt": "sqrt({x})",
    "exp": "exp({x})",
    "log": "log({x})",
    "sin": "sin({x})",
    "cos": "cos({x})",
    "tan": "tan({x})",
    "floor": "floor({x})",
    "ceil": "ceil({x})",
    "round": "floor({x} + 0.5)",
    "fix": "trunc({x})",
    "sign": "(({x} > 0.0) ? 1.0 : (({x} < 0.0) ? -1.0 : 0.0))",
}

#: complex-typed variants (C99 <complex.h>)
_COMPLEX_UNARY = {
    "abs": "cabs({x})",
    "sqrt": "csqrt({x})",
    "exp": "cexp({x})",
    "log": "clog({x})",
    "sin": "csin({x})",
    "cos": "ccos({x})",
    "tan": "ctan({x})",
    "real": "creal({x})",
    "imag": "cimag({x})",
    "conj": "conj({x})",
}

_REDUCERS = {"sum": "rt_sum", "prod": "rt_prod", "min": "rt_min",
             "max": "rt_max"}


@dataclass(slots=True)
class _SubscriptDesc:
    """How to iterate one subscript in emitted C."""

    count: str                 # element count expression
    _value_template: str       # with {i} placeholder, yields a double

    def value(self, ivar: str) -> str:
        return self._value_template.format(i=ivar)


@dataclass(slots=True)
class _COperand:
    """How to read one operand in emitted C."""

    elem: str        # expression for element i (uses variable `i0`)
    first: str       # expression for element 0
    rows: str
    cols: str
    is_const: bool
    is_complex: bool = False


class CEmitter:
    def __init__(self, compilation) -> None:
        self.compilation = compilation
        self.func = compilation.exec_func
        self.plan = compilation.plan
        self.lines: list[str] = []
        self._names: dict[str, str] = {}
        self._dim_decls: set[str] = set()
        self._next_id = 0
        #: scalar operand → C local holding its value, read before an
        #: out-of-place subsasgn's base copy (see _emit_subsasgn)
        self._preloaded: dict[str, str] = {}

    # -- naming -------------------------------------------------------------

    def _cname(self, name: str) -> str:
        if name not in self._names:
            safe = (
                name.replace("#", "_v")
                .replace("$", "_t")
                .replace("@", "_i")
                .replace(".", "_")
            )
            self._names[name] = f"m_{safe}_{len(self._names)}"
        return self._names[name]

    def _group_buf(self, name: str) -> str:
        gid = self.plan.group_of.get(name)
        if gid is None:
            # inversion-introduced temp: give it a private static buffer
            return f"loose_{self._cname(name)}"
        return f"g{gid}_buf"

    def _dims(self, name: str) -> tuple[str, str]:
        """(rows, flattened-cols) — rank-3 arrays store cols·pages in
        the column slot so every linear code path stays rank-agnostic."""
        c = self._cname(name)
        self._dim_decls.add(c)
        return f"{c}_r", f"{c}_c"

    def _qdim(self, name: str) -> str:
        """True column count for rank-3 arrays (0 ⇒ rank ≤ 2, use _c)."""
        c = self._cname(name)
        self._dim_decls.add(c)
        return f"{c}_q"

    def _is_complex(self, name: str) -> bool:
        from repro.typing.intrinsic import Intrinsic

        gid = self.plan.group_of.get(name)
        if gid is not None:
            return self.plan.groups[gid].intrinsic is Intrinsic.COMPLEX
        return (
            self.compilation.env.of(name).intrinsic is Intrinsic.COMPLEX
        )

    def _operand(self, op: Operand) -> _COperand:
        if isinstance(op, Const):
            if op.value.imag != 0:
                lit = f"({op.value.real!r} + {op.value.imag!r} * I)"
                return _COperand(lit, lit, "1", "1", True, True)
            lit = repr(op.value.real)
            return _COperand(lit, lit, "1", "1", True)
        if isinstance(op, StrConst):
            raise CodegenError("string operand where array expected")
        buf = self._group_buf(op.name)
        r, c = self._dims(op.name)
        return _COperand(
            f"{buf}[i0]", f"{buf}[0]", r, c, False,
            self._is_complex(op.name),
        )

    # -- driver ---------------------------------------------------------------

    def emit(self) -> str:
        out: list[str] = [RUNTIME_PREAMBLE]
        self._check_supported()

        heap_groups = [
            g for g in self.plan.groups
            if g.storage is StorageClass.HEAP
        ]
        from repro.typing.intrinsic import Intrinsic

        for g in heap_groups:
            ctype = (
                "double complex"
                if g.intrinsic is Intrinsic.COMPLEX
                else "double"
            )
            out.append(
                f"static {ctype} *g{g.gid}_buf = NULL; "
                f"static long g{g.gid}_cap = 0;"
            )
        out.append("")
        out.append("int main(void) {")

        body: list[str] = []
        self.lines = body
        for bid in sorted(self.func.blocks):
            block = self.func.blocks[bid]
            body.append(f"B{bid}: ;")
            for instr in block.instrs:
                self._emit_instr(instr)
            self._emit_terminator(block.terminator)

        # declarations, gathered while emitting the body
        decls: list[str] = []
        from repro.typing.intrinsic import Intrinsic, scalar_size

        for g in self.plan.groups:
            if g.storage is StorageClass.STACK:
                per_elem = max(1, scalar_size(g.intrinsic))
                elems = max(1, (g.static_size or per_elem) // per_elem)
                ctype = (
                    "double complex"
                    if g.intrinsic is Intrinsic.COMPLEX
                    else "double"
                )
                decls.append(
                    f"    static {ctype} g{g.gid}_buf[{elems}];"
                )
        for name in sorted(self._loose_names):
            decls.append(f"    static double loose_{name}[1];")
        for c in sorted(self._dim_decls):
            decls.append(f"    long {c}_r = 1, {c}_c = 1, {c}_q = 0;")
            decls.append(f"    (void){c}_q;")
        decls.append(
            "    long i0 = 0, i1 = 0, i2 = 0, i3 = 0, "
            "n0 = 0, n1 = 0, n2 = 0;"
        )
        decls.append("    double s0 = 0.0, s1 = 0.0;")
        decls.append("    double complex z0 = 0.0, z1 = 0.0;")
        decls.append("    (void)z0; (void)z1;")
        decls.append("    (void)i0; (void)i1; (void)i2; (void)i3;")
        decls.append("    (void)n0; (void)n1; (void)n2;")
        decls.append("    (void)s0; (void)s1;")

        out.extend(decls)
        out.extend("    " + line for line in body)
        out.append("    return 0;")
        out.append("}")
        return "\n".join(out) + "\n"

    @property
    def _loose_names(self) -> set[str]:
        loose = set()
        for instr in self.func.instructions():
            for res in instr.results:
                if res not in self.plan.group_of:
                    loose.add(self._cname(res))
            for arg in instr.args:
                if isinstance(arg, Var) and arg.name not in self.plan.group_of:
                    loose.add(self._cname(arg.name))
        return loose

    def _check_supported(self) -> None:
        from repro.typing.intrinsic import Intrinsic

        for name in self.func.defined_vars():
            vt = self.compilation.env.of(name)
            if vt.shape.rank > 3:
                raise CodegenError(
                    f"{name}: rank-{vt.shape.rank} arrays unsupported in "
                    "the C demo backend"
                )

    # -- statements ------------------------------------------------------

    def _L(self, text: str) -> None:
        self.lines.append(text)

    def _resize_for(self, name: str, n_expr: str) -> None:
        """Ensure the destination buffer can hold ``n_expr`` elements."""
        gid = self.plan.group_of.get(name)
        if gid is None:
            return
        group = self.plan.groups[gid]
        if group.storage is StorageClass.HEAP:
            fn = "rt_resize_z" if self._is_complex(name) else "rt_resize"
            self._L(
                f"g{gid}_buf = {fn}(g{gid}_buf, &g{gid}_cap, "
                f"{n_expr});"
            )

    def _emit_terminator(self, term) -> None:
        if isinstance(term, Jump):
            self._L(f"goto B{term.target};")
        elif isinstance(term, Branch):
            cond = term.condition
            if isinstance(cond, Const):
                expr = "1" if cond.value != 0 else "0"
            else:
                if self._is_complex(cond.name):
                    raise CodegenError(
                        "branching on complex values unsupported in C demo"
                    )
                buf = self._group_buf(cond.name)
                r, c = self._dims(cond.name)
                expr = f"rt_istrue({buf}, {r}, {c})"
            self._L(
                f"if ({expr}) goto B{term.true_target}; "
                f"else goto B{term.false_target};"
            )
        elif isinstance(term, Ret):
            self._L("return 0;")

    # -- instructions ----------------------------------------------------

    def _emit_instr(self, instr: Instr) -> None:
        op = instr.op
        if op == "const":
            self._emit_const(instr)
        elif op == "copy":
            self._emit_copy(instr)
        elif op in _ELEMENTWISE_EXPR:
            self._emit_elementwise(instr)
        elif op == "mul":
            self._emit_mul(instr)
        elif op in ("div", "ldiv", "pow"):
            self._emit_scalar_matrix_op(instr)
        elif op == "neg":
            self._emit_unary(instr, "(-({x}))")
        elif op == "not":
            self._emit_unary(instr, "(({x} == 0.0) ? 1.0 : 0.0)")
        elif op in ("transpose", "ctranspose"):
            self._emit_transpose(instr)
        elif op == "range":
            self._emit_range(instr)
        elif op == "forindex":
            v = instr.results[0]
            vbuf = self._group_buf(v)
            vr, vc = self._dims(v)
            start = self._scalar_expr(instr.args[0])
            step = self._scalar_expr(instr.args[1])
            counter = self._scalar_expr(instr.args[3])
            self._resize_for(v, "1")
            self._L(f"{vbuf}[0] = {start} + {counter} * {step};")
            self._L(f"{vr} = 1; {vc} = 1;")
        elif op == "subsref":
            self._emit_subsref(instr)
        elif op == "subsasgn":
            self._emit_subsasgn(instr)
        elif op in ("horzcat", "vertcat"):
            self._emit_concat(instr, horizontal=(op == "horzcat"))
        elif op == "empty":
            v = instr.results[0]
            r, c = self._dims(v)
            self._L(f"{r} = 0; {c} = 0;")
        elif op == "undef":
            v = instr.results[0]
            r, c = self._dims(v)
            self._L(f"{r} = 0; {c} = 0;")
        elif op == "display":
            self._emit_display(instr)
        elif instr.is_call:
            self._emit_call(instr)
        else:
            raise CodegenError(f"IR op {op!r} unsupported in C demo backend")

    def _emit_const(self, instr: Instr) -> None:
        v = instr.results[0]
        operand = instr.args[0]
        buf = self._group_buf(v)
        r, c = self._dims(v)
        if isinstance(operand, StrConst):
            # char arrays are code-point vectors; display of strings is
            # outside the demo subset, but comparisons/lengths work
            text = operand.value
            self._resize_for(v, str(max(1, len(text))))
            for i, ch in enumerate(text):
                self._L(f"{buf}[{i}] = {float(ord(ch))!r};")
            self._L(f"{r} = 1; {c} = {len(text)};")
            return
        if operand.value.imag != 0:  # type: ignore[union-attr]
            raise CodegenError("complex literal unsupported in C demo")
        self._resize_for(v, "1")
        self._L(f"{buf}[0] = {operand.value.real!r};")  # type: ignore[union-attr]
        self._L(f"{r} = 1; {c} = 1;")

    def _emit_copy(self, instr: Instr) -> None:
        v = instr.results[0]
        src = instr.args[0]
        vbuf = self._group_buf(v)
        vr, vc = self._dims(v)
        if isinstance(src, Const):
            self._resize_for(v, "1")
            self._L(f"{vbuf}[0] = {src.value.real!r};")
            self._L(f"{vr} = 1; {vc} = 1;")
            return
        assert isinstance(src, Var)
        sbuf = self._group_buf(src.name)
        sr, sc = self._dims(src.name)
        vq, sq = self._qdim(v), self._qdim(src.name)
        if self.plan.same_storage(v, src.name):
            # identity assignment: no data movement (paper §2.2.1)
            self._L(f"{vr} = {sr}; {vc} = {sc}; {vq} = {sq};")
            return
        self._resize_for(v, f"{sr} * {sc}")
        v_z, s_z = self._is_complex(v), self._is_complex(src.name)
        if v_z == s_z:
            elem_type = "double complex" if v_z else "double"
            self._L(
                f"memcpy({vbuf}, {sbuf}, "
                f"(size_t)({sr} * {sc}) * sizeof({elem_type}));"
            )
        else:
            # converting copy (real ↔ complex buffers)
            self._L(
                f"for (i0 = 0; i0 < {sr} * {sc}; i0++) "
                f"{vbuf}[i0] = {sbuf}[i0];"
            )
        self._L(f"{vr} = {sr}; {vc} = {sc}; {vq} = {sq};")

    def _emit_elementwise(self, instr: Instr) -> None:
        """The Figure-1 pattern: scalar/scalar/array dispatch."""
        expr = _ELEMENTWISE_EXPR[instr.op]
        if instr.op == "elpow" and self._any_complex(instr):
            expr = "cpow({x}, {y})"
        if instr.op in ("eq", "ne") and self._any_complex(instr):
            expr = expr  # C99 ==/!= work on complex values
        elif instr.op in ("lt", "le", "gt", "ge") and self._any_complex(
            instr
        ):
            raise CodegenError(
                "ordered comparison of complex values unsupported"
            )
        self._emit_elementwise_generic(instr, expr)

    def _any_complex(self, instr: Instr) -> bool:
        for operand in instr.args:
            if isinstance(operand, Var) and self._is_complex(operand.name):
                return True
            if isinstance(operand, Const) and operand.value.imag != 0:
                return True
        return any(self._is_complex(r) for r in instr.results)

    def _emit_elementwise_generic(self, instr: Instr, expr: str) -> None:
        v = instr.results[0]
        x = self._operand(instr.args[0])
        y = self._operand(instr.args[1])
        vbuf = self._group_buf(v)
        vr, vc = self._dims(v)

        def loop(n_expr, x_elem, y_elem, rr, cc):
            self._resize_for(v, n_expr)
            body = expr.format(x=x_elem, y=y_elem)
            self._L(f"n0 = {n_expr};")
            self._L(f"for (i0 = 0; i0 < n0; i0++) {vbuf}[i0] = {body};")
            self._L(f"{vr} = {rr}; {vc} = {cc};")

        # scalar snapshots go to complex scratch vars when the value
        # may carry an imaginary part
        sx = "z0" if x.is_complex else "s0"
        sy = "z1" if y.is_complex else "s1"
        if x.is_const and y.is_const:
            self._resize_for(v, "1")
            self._L(f"{vbuf}[0] = {expr.format(x=x.first, y=y.first)};")
            self._L(f"{vr} = 1; {vc} = 1;")
            return
        if x.is_const:
            self._L(f"{sx} = {x.first};")
            loop(f"{y.rows} * {y.cols}", sx, y.elem, y.rows, y.cols)
            return
        if y.is_const:
            self._L(f"{sy} = {y.first};")
            loop(f"{x.rows} * {x.cols}", x.elem, sy, x.rows, x.cols)
            return
        # full run-time dispatch (Figure 1); scalar operands are read
        # into locals before the loop so in-place evaluation is safe
        self._L(f"if ({x.rows} == 1 && {x.cols} == 1) {{")
        self._L(f"    {sx} = {x.first};")
        self._indent(loop, f"{y.rows} * {y.cols}", sx, y.elem,
                     y.rows, y.cols)
        self._L(f"}} else if ({y.rows} == 1 && {y.cols} == 1) {{")
        self._L(f"    {sy} = {y.first};")
        self._indent(loop, f"{x.rows} * {x.cols}", x.elem, sy,
                     x.rows, x.cols)
        self._L("} else {")
        self._indent(loop, f"{x.rows} * {x.cols}", x.elem, y.elem,
                     x.rows, x.cols)
        self._L("}")

    def _indent(self, fn, *args) -> None:
        saved = self.lines
        inner: list[str] = []
        self.lines = inner
        fn(*args)
        self.lines = saved
        self.lines.extend("    " + line for line in inner)

    def _emit_unary(self, instr: Instr, expr: str) -> None:
        v = instr.results[0]
        x = self._operand(instr.args[0])
        vbuf = self._group_buf(v)
        vr, vc = self._dims(v)
        n = f"{x.rows} * {x.cols}"
        self._resize_for(v, n)
        self._L(f"n0 = {n};")
        self._L(
            f"for (i0 = 0; i0 < n0; i0++) "
            f"{vbuf}[i0] = {expr.format(x=x.elem)};"
        )
        self._L(f"{vr} = {x.rows}; {vc} = {x.cols};")

    def _emit_mul(self, instr: Instr) -> None:
        v = instr.results[0]
        x = self._operand(instr.args[0])
        y = self._operand(instr.args[1])
        if x.is_const or y.is_const:
            self._emit_elementwise(
                Instr(op="elmul", results=instr.results, args=instr.args)
            )
            return
        vbuf = self._group_buf(v)
        vr, vc = self._dims(v)
        xbuf = x.elem.split("[")[0]
        ybuf = y.elem.split("[")[0]
        # run-time dispatch: scalar cases are elementwise
        self._L(f"if (({x.rows} == 1 && {x.cols} == 1) || "
                f"({y.rows} == 1 && {y.cols} == 1)) {{")
        saved = self.lines
        inner: list[str] = []
        self.lines = inner
        self._emit_elementwise(
            Instr(op="elmul", results=instr.results, args=instr.args)
        )
        self.lines = saved
        self.lines.extend("    " + line for line in inner)
        self._L("} else {")
        self._resize_for(v, f"{x.rows} * {y.cols}")
        self._L(f"    for (i0 = 0; i0 < {x.rows}; i0++)")
        self._L(f"      for (i1 = 0; i1 < {y.cols}; i1++) {{")
        self._L("        s0 = 0.0;")
        self._L(f"        for (i2 = 0; i2 < {x.cols}; i2++)")
        self._L(
            f"          s0 += {xbuf}[i2 * {x.rows} + i0] * "
            f"{ybuf}[i1 * {y.rows} + i2];"
        )
        self._L(f"        {vbuf}[i1 * {x.rows} + i0] = s0;")
        self._L("      }")
        self._L(f"    {vr} = {x.rows}; {vc} = {y.cols};")
        self._L("}")

    def _emit_scalar_matrix_op(self, instr: Instr) -> None:
        """div/ldiv/pow — scalar forms only in the demo backend."""
        op = instr.op
        x = self._operand(instr.args[0])
        y = self._operand(instr.args[1])
        mapping = {"div": "eldiv", "ldiv": "elldiv", "pow": "elpow"}
        self._emit_elementwise(
            Instr(
                op=mapping[op], results=instr.results, args=instr.args
            )
        )

    def _emit_transpose(self, instr: Instr) -> None:
        v = instr.results[0]
        x = self._operand(instr.args[0])
        vbuf = self._group_buf(v)
        vr, vc = self._dims(v)
        xbuf = x.elem.split("[")[0]
        source = f"{xbuf}[i1 * {x.rows} + i0]"
        if instr.op == "ctranspose" and x.is_complex:
            source = f"conj({source})"
        self._resize_for(v, f"{x.rows} * {x.cols}")
        self._L(f"for (i0 = 0; i0 < {x.rows}; i0++)")
        self._L(f"  for (i1 = 0; i1 < {x.cols}; i1++)")
        self._L(
            f"    {vbuf}[i0 * {x.cols} + i1] = {source};"
        )
        self._L(f"{vr} = {x.cols}; {vc} = {x.rows};")

    def _emit_range(self, instr: Instr) -> None:
        v = instr.results[0]
        start = self._scalar_expr(instr.args[0])
        step = self._scalar_expr(instr.args[1])
        stop = self._scalar_expr(instr.args[2])
        vbuf = self._group_buf(v)
        vr, vc = self._dims(v)
        self._L(f"s0 = {start}; s1 = {step};")
        self._L(f"n0 = (long)floor(({stop} - s0) / s1 + 1e-10) + 1;")
        self._L("if (n0 < 0) n0 = 0;")
        self._resize_for(v, "n0")
        self._L(f"for (i0 = 0; i0 < n0; i0++) {vbuf}[i0] = s0 + s1 * i0;")
        self._L(f"{vr} = 1; {vc} = n0;")

    def _scalar_expr(self, operand: Operand) -> str:
        if isinstance(operand, Const):
            return repr(operand.value.real)
        if isinstance(operand, Var):
            if operand.name in self._preloaded:
                return self._preloaded[operand.name]
            vartype = self.compilation.env.of(operand.name)
            if vartype.shape.is_scalar:
                buf = f"{self._group_buf(operand.name)}[0]"
                if self._is_complex(operand.name):
                    return f"creal({buf})"
                return buf
            if not vartype.shape.maybe_scalar:
                raise CodegenError(
                    f"{operand.name}: non-scalar value (shape "
                    f"{vartype.shape}) where the C demo backend needs "
                    "a scalar (e.g. a vector subscript)"
                )
            if self._is_complex(operand.name):
                raise CodegenError(
                    f"{operand.name}: complex where a real scalar is "
                    "needed in the C demo backend"
                )
            # dynamically checked: traps with exit(3) if not 1×1
            buf = self._group_buf(operand.name)
            r, c = self._dims(operand.name)
            return f"rt_scalar({buf}, {r}, {c})"
        raise CodegenError("string where scalar expected")

    def _emit_subsref(self, instr: Instr) -> None:
        v = instr.results[0]
        base = instr.args[0]
        subs = instr.args[1:]
        assert isinstance(base, Var)
        bbuf = self._group_buf(base.name)
        br, bc = self._dims(base.name)
        vbuf = self._group_buf(v)
        vr, vc = self._dims(v)
        def provably_scalar(sub) -> bool:
            if isinstance(sub, StrConst):
                return False
            if isinstance(sub, Const):
                return True
            return self.compilation.env.of(sub.name).shape.is_scalar

        if len(subs) == 1 and provably_scalar(subs[0]):
            idx = self._scalar_expr(subs[0])
            self._resize_for(v, "1")
            self._L(f"{vbuf}[0] = {bbuf}[(long){idx} - 1];")
            self._L(f"{vr} = 1; {vc} = 1;")
            return
        if len(subs) == 2:
            s1, s2 = subs
            if provably_scalar(s1) and provably_scalar(s2):
                i = self._scalar_expr(s1)
                j = self._scalar_expr(s2)
                self._resize_for(v, "1")
                self._L(
                    f"{vbuf}[0] = {bbuf}[((long){j} - 1) * {br} + "
                    f"(long){i} - 1];"
                )
                self._L(f"{vr} = 1; {vc} = 1;")
                return
            if isinstance(s1, StrConst) and provably_scalar(s2):
                j = self._scalar_expr(s2)
                self._resize_for(v, br)
                self._L(f"n0 = {br};")
                self._L(
                    f"for (i0 = 0; i0 < n0; i0++) {vbuf}[i0] = "
                    f"{bbuf}[((long){j} - 1) * {br} + i0];"
                )
                self._L(f"{vr} = {br}; {vc} = 1;")
                return
            if provably_scalar(s1) and isinstance(s2, StrConst):
                i = self._scalar_expr(s1)
                self._resize_for(v, bc)
                self._L(f"n0 = {bc};")
                self._L(
                    f"for (i0 = 0; i0 < n0; i0++) {vbuf}[i0] = "
                    f"{bbuf}[i0 * {br} + (long){i} - 1];"
                )
                self._L(f"{vr} = 1; {vc} = {bc};")
                return
        if len(subs) == 1:
            # single vector subscript: gather, source orientation
            desc = self._subscript_desc(subs[0], f"{br} * {bc}")
            self._L(f"n0 = {desc.count};")
            self._resize_for(v, "n0")
            self._L(
                f"for (i0 = 0; i0 < n0; i0++) {vbuf}[i0] = "
                f"{bbuf}[rt_idx({desc.value('i0')}, {br} * {bc})];"
            )
            self._L(f"if ({br} == 1) {{ {vr} = 1; {vc} = n0; }}")
            self._L(f"else {{ {vr} = n0; {vc} = 1; }}")
            return
        if len(subs) == 2:
            # general (scalar | vector | colon) × 2 gather
            d1 = self._subscript_desc(subs[0], br)
            d2 = self._subscript_desc(subs[1], bc)
            self._L(f"n0 = {d1.count}; n1 = {d2.count};")
            self._resize_for(v, "n0 * n1")
            self._L("for (i0 = 0; i0 < n0; i0++)")
            self._L("  for (i1 = 0; i1 < n1; i1++)")
            self._L(
                f"    {vbuf}[i1 * n0 + i0] = "
                f"{bbuf}[rt_idx({d2.value('i1')}, {bc}) * {br} + "
                f"rt_idx({d1.value('i0')}, {br})];"
            )
            self._L(f"{vr} = n0; {vc} = n1;")
            return
        if len(subs) == 3:
            bq = self._qdim(base.name)
            true_c = f"({bq} ? {bq} : {bc})"
            pages = f"({bc} / {true_c})"
            d1 = self._subscript_desc(subs[0], br)
            d2 = self._subscript_desc(subs[1], true_c)
            d3 = self._subscript_desc(subs[2], pages)
            self._L(
                f"n0 = {d1.count}; n1 = {d2.count}; n2 = {d3.count};"
            )
            self._resize_for(v, "n0 * n1 * n2")
            self._L("for (i0 = 0; i0 < n0; i0++)")
            self._L("  for (i1 = 0; i1 < n1; i1++)")
            self._L("    for (i2 = 0; i2 < n2; i2++)")
            self._L(
                f"      {vbuf}[(i2 * n1 + i1) * n0 + i0] = "
                f"{bbuf}[(rt_idx({d3.value('i2')}, {pages}) * {true_c} + "
                f"rt_idx({d2.value('i1')}, {true_c})) * {br} + "
                f"rt_idx({d1.value('i0')}, {br})];"
            )
            vq = self._qdim(v)
            self._L(f"{vr} = n0; {vc} = n1 * n2; {vq} = n1;")
            return
        raise CodegenError(
            "subsref form unsupported in C demo backend "
            "(rank ≤ 3 subscript lists only)"
        )

    def _subscript_desc(self, sub: Operand, extent: str) -> _SubscriptDesc:
        """Describe a (scalar | vector | ':') subscript for C loops."""
        if isinstance(sub, StrConst):  # ':'
            return _SubscriptDesc(str(extent), "(double)({i} + 1)")
        if isinstance(sub, Const):
            return _SubscriptDesc("1", repr(sub.value.real))
        assert isinstance(sub, Var)
        if sub.name in self._preloaded:
            return _SubscriptDesc("1", self._preloaded[sub.name])
        vartype = self.compilation.env.of(sub.name)
        buf = self._group_buf(sub.name)
        if vartype.shape.is_scalar:
            return _SubscriptDesc("1", f"{buf}[0]")
        r, c = self._dims(sub.name)
        return _SubscriptDesc(f"({r} * {c})", f"{buf}[{{i}}]")

    def _emit_subsasgn(self, instr: Instr) -> None:
        """Indexed store; an out-of-place one first copies the base.

        That copy overwrites the result's group, which may also hold a
        provably scalar RHS or subscript (core/opsem.py exempts those
        from interfering with the result, on the premise that scalar
        operands are read first).  Such scalars are loaded into C
        locals, in a block of their own, before the copy.
        """
        shared = scalars_read_first(instr, self.plan, self.compilation.env)
        if not shared:
            self._emit_subsasgn_store(instr)
            return
        self._L("{")
        for k, arg in enumerate(shared):
            self._L(f"    double p{k} = {self._scalar_expr(arg)};")
        self._preloaded = {arg.name: f"p{k}" for k, arg in enumerate(shared)}
        try:
            self._indent(self._emit_subsasgn_store, instr)
        finally:
            self._preloaded = {}
        self._L("}")

    def _emit_subsasgn_store(self, instr: Instr) -> None:
        v = instr.results[0]
        base = instr.args[0]
        rhs = instr.args[1]
        subs = instr.args[2:]
        assert isinstance(base, Var)
        if not self.plan.same_storage(v, base.name):
            # materialize the base copy first, then update in place
            self._emit_copy(
                Instr(op="copy", results=[v], args=[base])
            )
            br, bc = self._dims(v)
        else:
            sr, sc = self._dims(base.name)
            vr, vc = self._dims(v)
            self._L(
                f"{vr} = {sr}; {vc} = {sc}; "
                f"{self._qdim(v)} = {self._qdim(base.name)};"
            )
            br, bc = vr, vc
        vbuf = self._group_buf(v)
        if isinstance(rhs, StrConst):
            raise CodegenError("string subsasgn rhs unsupported in C demo")
        rhs_scalar = isinstance(rhs, Const) or (
            isinstance(rhs, Var)
            and self.compilation.env.of(rhs.name).shape.is_scalar
        )
        scalar_subs = all(
            not isinstance(s, StrConst)
            and (
                isinstance(s, Const)
                or self.compilation.env.of(s.name).shape.is_scalar
            )
            for s in subs
        )
        if not (rhs_scalar and scalar_subs) or len(subs) == 3:
            self._emit_subsasgn_general(instr, br, bc)
            return
        value = self._scalar_expr(rhs)
        if len(subs) == 1 and not isinstance(subs[0], StrConst):
            idx = self._scalar_expr(subs[0])
            self._L(f"n0 = (long){idx};")
            self._L(f"if (n0 > {br} * {bc}) {{")
            gid = self.plan.group_of.get(v)
            if gid is not None and self.plan.groups[gid].storage is (
                StorageClass.HEAP
            ):
                self._L(
                    f"    g{gid}_buf = rt_resize(g{gid}_buf, "
                    f"&g{gid}_cap, n0);"
                )
            self._L(
                f"    for (i0 = {br} * {bc}; i0 < n0; i0++) "
                f"{vbuf}[i0] = 0.0;"
            )
            self._L(f"    if ({br} == 1) {bc} = n0; else {br} = n0;")
            self._L("}")
            self._L(f"{vbuf}[n0 - 1] = {value};")
            return
        if len(subs) == 2 and all(
            not isinstance(s, StrConst) for s in subs
        ):
            i = self._scalar_expr(subs[0])
            j = self._scalar_expr(subs[1])
            self._L(
                f"{vbuf}[((long){j} - 1) * {br} + (long){i} - 1] "
                f"= {value};"
            )
            return
        raise CodegenError(
            "subsasgn form unsupported in C demo backend"
        )

    def _emit_subsasgn_general(self, instr: Instr, br, bc) -> None:
        """(scalar | vector | ':') × ≤2 scatter, in-bounds only.

        Out-of-range indices trap via rt_idx — expansion through
        vector subscripts is outside the demo subset.
        """
        v = instr.results[0]
        rhs = instr.args[1]
        subs = instr.args[2:]
        if len(subs) > 3:
            raise CodegenError(
                "rank>3 subsasgn unsupported in C demo backend"
            )
        vbuf = self._group_buf(v)
        vq = self._qdim(v)
        true_c = f"({vq} ? {vq} : {bc})"
        pages = f"({bc} / {true_c})"
        d1 = self._subscript_desc(subs[0], br)
        if len(subs) >= 2:
            extent2 = true_c if len(subs) == 3 else bc
            d2 = self._subscript_desc(subs[1], extent2)
        else:
            d2 = _SubscriptDesc("1", "1.0")
        if len(subs) == 3:
            d3 = self._subscript_desc(subs[2], pages)
        else:
            d3 = _SubscriptDesc("1", "1.0")
        self._L(
            f"n0 = {d1.count}; n1 = {d2.count}; n2 = {d3.count};"
        )
        rhs_is_scalar = isinstance(rhs, Const) or (
            isinstance(rhs, Var)
            and self.compilation.env.of(rhs.name).shape.is_scalar
        )
        if rhs_is_scalar:
            self._L(f"s0 = {self._scalar_expr(rhs)};")
            elem = "s0"
        else:
            assert isinstance(rhs, Var)
            rbuf = self._group_buf(rhs.name)
            rr, rc = self._dims(rhs.name)
            self._L(f"if ({rr} * {rc} != n0 * n1 * n2) {{")
            self._L(
                '    fprintf(stderr, "runtime error: subscripted '
                'assignment dimension mismatch\\n"); exit(5);'
            )
            self._L("}")
            elem = f"{rbuf}[(i2 * n1 + i1) * n0 + i0]"
        if len(subs) == 3:
            target = (
                f"{vbuf}[(rt_idx({d3.value('i2')}, {pages}) * {true_c} "
                f"+ rt_idx({d2.value('i1')}, {true_c})) * {br} + "
                f"rt_idx({d1.value('i0')}, {br})]"
            )
        elif len(subs) == 2:
            target = (
                f"{vbuf}[rt_idx({d2.value('i1')}, {bc}) * {br} + "
                f"rt_idx({d1.value('i0')}, {br})]"
            )
        else:
            target = f"{vbuf}[rt_idx({d1.value('i0')}, {br} * {bc})]"
        self._L("for (i0 = 0; i0 < n0; i0++)")
        self._L("  for (i1 = 0; i1 < n1; i1++)")
        self._L("    for (i2 = 0; i2 < n2; i2++)")
        self._L(f"      {target} = {elem};")

    def _emit_concat(self, instr: Instr, horizontal: bool) -> None:
        v = instr.results[0]
        vbuf = self._group_buf(v)
        vr, vc = self._dims(v)
        parts = [self._operand(a) for a in instr.args]
        total = " + ".join(
            f"({p.rows} * {p.cols})" for p in parts
        )
        self._resize_for(v, total)
        if horizontal:
            self._L("n0 = 0;")
            for p, arg in zip(parts, instr.args):
                if p.is_const:
                    self._L(f"{vbuf}[n0] = {p.first}; n0 += 1;")
                else:
                    buf = p.elem.split("[")[0]
                    self._L(
                        f"for (i0 = 0; i0 < {p.rows} * {p.cols}; i0++) "
                        f"{vbuf}[n0 + i0] = {buf}[i0];"
                    )
                    self._L(f"n0 += {p.rows} * {p.cols};")
            self._L(f"{vr} = {parts[0].rows}; {vc} = 0;")
            cols = " + ".join(p.cols for p in parts)
            self._L(f"{vc} = {cols};")
            return
        # vertical: column-major interleave
        rows_total = " + ".join(p.rows for p in parts)
        cols = parts[0].cols
        self._L(f"n0 = {rows_total};")
        offset = "0"
        for p in parts:
            if p.is_const:
                self._L(f"{vbuf}[{offset}] = {p.first};")
            else:
                buf = p.elem.split("[")[0]
                self._L(f"for (i1 = 0; i1 < {p.cols}; i1++)")
                self._L(f"  for (i0 = 0; i0 < {p.rows}; i0++)")
                self._L(
                    f"    {vbuf}[i1 * n0 + ({offset}) + i0] = "
                    f"{buf}[i1 * {p.rows} + i0];"
                )
            offset = f"({offset}) + {p.rows}"
        self._L(f"{vr} = n0; {vc} = {cols};")

    def _emit_display(self, instr: Instr) -> None:
        value = instr.args[0]
        label = instr.args[1]
        assert isinstance(label, StrConst)
        self._L(f'printf("%s =\\n", "{label.value}");')
        if isinstance(value, Var):
            buf = self._group_buf(value.name)
            r, c = self._dims(value.name)
            fn = (
                "rt_print_matrix_z"
                if self._is_complex(value.name)
                else "rt_print_matrix"
            )
            self._L(f"{fn}({buf}, {r}, {c});")
        else:
            self._L(f"rt_print_scalar({self._scalar_expr(value)});")

    # -- builtin calls ----------------------------------------------------

    def _emit_call(self, instr: Instr) -> None:
        name = instr.callee
        if name == "disp":
            arg = instr.args[0]
            if isinstance(arg, StrConst):
                if arg.value:  # disp('') prints nothing
                    self._L(f'printf("%s\\n", "{arg.value}");')
                return
            if isinstance(arg, Const):
                self._L(f"rt_print_scalar({arg.value.real!r});")
                return
            x = self._operand(arg)
            buf = x.elem.split("[")[0]
            fn = "rt_print_matrix_z" if x.is_complex else "rt_print_matrix"
            self._L(f"{fn}({buf}, {x.rows}, {x.cols});")
            return
        if name == "fprintf":
            self._emit_fprintf(instr)
            return
        if not instr.results:
            if name in ("tic", "error"):
                if name == "error":
                    self._L('fprintf(stderr, "error\\n"); exit(1);')
                return
            raise CodegenError(f"effect builtin {name!r} unsupported in C")
        v = instr.results[0]
        vbuf = self._group_buf(v)
        vr, vc = self._dims(v)
        if name in ("zeros", "ones", "eye", "rand"):
            dims = [self._scalar_expr(a) for a in instr.args] or ["1"]
            if len(dims) > 3 or (len(dims) == 3 and name == "eye"):
                raise CodegenError(f"{name}: too many extents for C demo")
            rexp = f"(long){dims[0]}"
            cexp = f"(long){dims[1]}" if len(dims) > 1 else rexp
            if len(dims) == 3:
                vq = self._qdim(v)
                self._L(f"{vq} = (long){dims[1]};")
                cexp = f"((long){dims[1]} * (long){dims[2]})"
            fill = {
                "zeros": "0.0",
                "ones": "1.0",
                "eye": None,
                "rand": "rt_rand1()",
            }[name]
            self._L(f"{vr} = {rexp}; {vc} = {cexp};")
            self._resize_for(v, f"{vr} * {vc}")
            if name == "eye":
                self._L(
                    f"for (i0 = 0; i0 < {vr} * {vc}; i0++) "
                    f"{vbuf}[i0] = 0.0;"
                )
                self._L(
                    f"for (i0 = 0; i0 < (({vr} < {vc}) ? {vr} : {vc}); "
                    f"i0++) {vbuf}[i0 * {vr} + i0] = 1.0;"
                )
            else:
                self._L(
                    f"for (i0 = 0; i0 < {vr} * {vc}; i0++) "
                    f"{vbuf}[i0] = {fill};"
                )
            return
        if name in _UNARY_CALLS:
            arg = instr.args[0]
            arg_complex = (
                isinstance(arg, Var) and self._is_complex(arg.name)
            ) or (isinstance(arg, Const) and arg.value.imag != 0)
            if arg_complex:
                if name not in _COMPLEX_UNARY:
                    raise CodegenError(
                        f"{name}: complex argument unsupported in C demo"
                    )
                self._emit_unary(instr, _COMPLEX_UNARY[name])
                return
            self._emit_unary(
                instr, _UNARY_CALLS[name]
            )
            return
        if name == "mod":
            x = self._operand(instr.args[0])
            y = self._scalar_expr(instr.args[1])
            self._emit_unary(
                Instr(op="call:mod", results=instr.results,
                      args=[instr.args[0]]),
                f"({{x}} - floor({{x}} / {y}) * {y})",
            )
            return
        if name in ("min", "max") and len(instr.args) == 2:
            # elementwise two-argument form
            fn = "fmin" if name == "min" else "fmax"
            self._emit_elementwise_generic(
                instr, f"{fn}({{x}}, {{y}})"
            )
            return
        if name in _REDUCERS:
            x = self._operand(instr.args[0])
            if x.is_complex:
                raise CodegenError(
                    f"{name}: complex reductions unsupported in C demo"
                )
            if len(instr.args) > 1:
                raise CodegenError(
                    f"two-argument {name} unsupported in C demo"
                )
            buf = x.elem.split("[")[0]
            fn = _REDUCERS[name]
            self._L(f"if ({x.rows} == 1 || {x.cols} == 1) {{")
            self._resize_for(v, "1")
            self._L(
                f"    {vbuf}[0] = {fn}({buf}, {x.rows} * {x.cols});"
            )
            self._L(f"    {vr} = 1; {vc} = 1;")
            self._L("} else {")
            self._resize_for(v, x.cols)
            self._L(f"    for (i1 = 0; i1 < {x.cols}; i1++)")
            self._L(
                f"        {vbuf}[i1] = {fn}({buf} + i1 * {x.rows}, "
                f"{x.rows});"
            )
            self._L(f"    {vr} = 1; {vc} = {x.cols};")
            self._L("}")
            return
        if name == "norm":
            x = self._operand(instr.args[0])
            buf = x.elem.split("[")[0]
            self._resize_for(v, "1")
            self._L(f"{vbuf}[0] = rt_norm({buf}, {x.rows} * {x.cols});")
            self._L(f"{vr} = 1; {vc} = 1;")
            return
        if name in ("numel", "length"):
            x = self._operand(instr.args[0])
            self._resize_for(v, "1")
            expr = (
                f"(double)({x.rows} * {x.cols})"
                if name == "numel"
                else f"(double)(({x.rows} > {x.cols}) ? {x.rows} : {x.cols})"
            )
            self._L(f"{vbuf}[0] = {expr};")
            self._L(f"{vr} = 1; {vc} = 1;")
            return
        if name == "size":
            x = self._operand(instr.args[0])
            if len(instr.args) > 1:
                k = self._scalar_expr(instr.args[1])
                self._resize_for(v, "1")
                self._L(
                    f"{vbuf}[0] = ((long){k} == 1) ? (double){x.rows} "
                    f": (double){x.cols};"
                )
                self._L(f"{vr} = 1; {vc} = 1;")
                return
            if len(instr.results) == 2:
                v2 = instr.results[1]
                v2buf = self._group_buf(v2)
                v2r, v2c = self._dims(v2)
                self._resize_for(v, "1")
                self._resize_for(v2, "1")
                self._L(f"{vbuf}[0] = (double){x.rows};")
                self._L(f"{v2buf}[0] = (double){x.cols};")
                self._L(f"{vr} = 1; {vc} = 1; {v2r} = 1; {v2c} = 1;")
                return
            self._resize_for(v, "2")
            self._L(f"{vbuf}[0] = (double){x.rows};")
            self._L(f"{vbuf}[1] = (double){x.cols};")
            self._L(f"{vr} = 1; {vc} = 2;")
            return
        raise CodegenError(
            f"builtin {name!r} unsupported in the C demo backend"
        )

    def _emit_fprintf(self, instr: Instr) -> None:
        fmt = instr.args[0]
        if not isinstance(fmt, StrConst):
            raise CodegenError("fprintf needs a literal format in C demo")
        template = fmt.value.replace("\\n", "\\n").replace('"', '\\"')
        args = []
        casts = []
        i = 0
        arg_idx = 1
        text = fmt.value
        out = []
        while i < len(text):
            if text[i] == "%" and i + 1 < len(text):
                j = i + 1
                while j < len(text) and text[j] not in "diufgGeEsxc%":
                    j += 1
                kind = text[j] if j < len(text) else "%"
                if kind == "%":
                    out.append("%%")
                    i = j + 1
                    continue
                spec = text[i : j + 1]
                value = self._scalar_expr(instr.args[arg_idx])
                arg_idx += 1
                if kind in "diu":
                    out.append(spec.replace(kind, "ld"))
                    casts.append(f"(long)({value})")
                else:
                    out.append(spec)
                    casts.append(f"({value})")
                i = j + 1
                continue
            ch = text[i]
            out.append('\\"' if ch == '"' else ch)
            i += 1
        fmt_c = "".join(out)
        arg_list = (", " + ", ".join(casts)) if casts else ""
        self._L(f'printf("{fmt_c}"{arg_list});')


def generate_c(compilation) -> str:
    """Generate the C translation of a compiled program."""
    return CEmitter(compilation).emit()
