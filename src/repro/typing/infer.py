"""The type/shape inference engine (the paper's MAGICA stand-in, §3.1).

Forward abstract interpretation over SSA IR to a fixed point.  Per SSA
name the engine infers a :class:`VarType` — intrinsic type, (symbolic)
shape tuple, and value range.  φ nodes join; loop-carried ranges are
widened after a few iterations so the fixpoint terminates.

The symbolic-equivalence-reuse behaviour of MAGICA [18] falls out of
two decisions: shape extents name the SSA variables they depend on
(:class:`ValueDim`), and elementwise operators *reuse the operand's
shape object*, so two arrays with the same symbolic pedigree compare
structurally equal — exactly what Phase 2's Relation 1 consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.cfg import IRFunction
from repro.ir.instr import (
    Const,
    ELEMENTWISE_BINARY,
    Instr,
    MATRIX_BINARY,
    Operand,
    StrConst,
    Var,
)
from repro.typing.builtins_sigs import ArgView, lookup_handler
from repro.typing.intrinsic import (
    Intrinsic,
    arithmetic_result,
    comparison_result,
    division_result,
    intrinsic_of_literal,
)
from repro.typing.ranges import Interval
from repro.typing.shape import (
    ConstDim,
    FreshDims,
    Shape,
    dim_max,
    dim_rangelen,
    fresh_dim,
    pick_better_shape,
)
from repro.typing.types import VarType

_WIDEN_AFTER = 4
_MAX_PASSES = 40


def type_of_literal(value: complex) -> VarType:
    rng = (
        Interval.exact(value.real)
        if value.imag == 0
        else Interval.top()
    )
    return VarType(intrinsic_of_literal(value), Shape.scalar(), rng)


def _effective_intrinsic(vartype: VarType) -> Intrinsic:
    """Refine an intrinsic with value-range knowledge.

    Writing the literal ``1`` into a BOOLEAN array keeps it BOOLEAN
    (paper Example 2 relies on exactly this: eye(x, y) stays BOOLEAN
    through the subsasgn).
    """
    rng = vartype.range
    if vartype.intrinsic in (Intrinsic.INTEGER, Intrinsic.REAL):
        if rng.integral and rng.lo >= 0.0 and rng.hi <= 1.0:
            return Intrinsic.BOOLEAN
        if rng.integral and rng.lo >= 0.0 and rng.hi <= 255.0:
            return Intrinsic.BYTE
        if rng.integral and vartype.intrinsic is Intrinsic.REAL:
            return Intrinsic.INTEGER
    return vartype.intrinsic


def elementwise_shape(a: VarType, b: VarType) -> Shape:
    """Result shape of an elementwise binary op (paper §2.3.1 rules)."""
    if a.is_scalar and b.is_scalar:
        return Shape.scalar()
    if a.is_scalar:
        return b.shape
    if b.is_scalar:
        return a.shape
    if a.shape == b.shape:
        return a.shape
    # Legal MATLAB guarantees the operand shapes agree at run time;
    # keep the more informative description.
    return pick_better_shape(a.shape, b.shape)


@dataclass(slots=True)
class TypeEnvironment:
    """Inference results for one function."""

    types: dict[str, VarType] = field(default_factory=dict)

    def of(self, name: str) -> VarType:
        vartype = self.types.get(name)
        return VarType.unknown() if vartype is None else vartype

    def of_operand(self, operand: Operand) -> VarType:
        if isinstance(operand, Const):
            return type_of_literal(operand.value)
        if isinstance(operand, StrConst):
            return VarType(
                Intrinsic.BYTE,
                Shape.matrix(1, len(operand.value)),
                Interval(0.0, 255.0, integral=True),
            )
        return self.of(operand.name)

    def __contains__(self, name: str) -> bool:
        return name in self.types


class _ReadRecorder(TypeEnvironment):
    """The environment as a transfer sees it, noting each name read.

    It shares the engine's ``types`` dict; the engine returns the plain
    :class:`TypeEnvironment`, so none of this is pickled.
    """

    __slots__ = ("reads",)

    def of(self, name: str) -> VarType:
        self.reads.append(name)
        return TypeEnvironment.of(self, name)

    def __contains__(self, name: str) -> bool:
        self.reads.append(name)
        return name in self.types


class TypeInference:
    """Round-robin fixpoint over ``block_order()``, transferring only
    what may have changed.

    A transfer whose reads are unchanged yields the same types (its
    fresh dims are memoized), so its ``_update`` is a no-op unless the
    result it joins into moved.  An instruction is therefore transferred
    again only when a name one of its transfers read, or one of its own
    results, changed since its last transfer: the same changes in the
    same order as transferring everything every pass.
    """

    def __init__(self, func: IRFunction, fresh: FreshDims | None = None):
        self._func = func
        self._env = TypeEnvironment()
        #: what the per-op rules read through
        self._view = _ReadRecorder(self._env.types)
        self._change_counts: dict[str, int] = {}
        #: the compile's fresh-dimension source, and this run's memo of
        #: the dims each transfer function drew (see FreshDims.memo)
        self._fresh = fresh if fresh is not None else FreshDims()
        self._fresh_memo: dict = {}
        #: the instructions in pass order, and which must be transferred
        self._instrs = [
            instr
            for bid in func.block_order()
            for instr in func.blocks[bid].instrs
        ]
        self._dirty = [True] * len(self._instrs)
        #: name → positions of the instructions whose transfers read it
        self._readers: dict[str, set[int]] = {}

    def run(self) -> TypeEnvironment:
        with self._fresh.active():
            for param in self._func.params:
                self._env.types[param] = VarType.unknown()
            dirty = self._dirty
            for _ in range(_MAX_PASSES):
                changed = False
                for index, instr in enumerate(self._instrs):
                    if dirty[index]:
                        dirty[index] = False
                        if self._transfer(index, instr):
                            changed = True
                if not changed:
                    break
        return self._env

    # ------------------------------------------------------------------

    def _update(self, name: str, new: VarType) -> bool:
        old = self._env.types.get(name)
        if old is not None:
            count = self._change_counts.get(name, 0)
            if new != old:
                if count >= _WIDEN_AFTER:
                    with self._fresh.memo(self._fresh_memo, ("widen", name)):
                        new = self._widen(old, new)
            merged = old.join(new) if new != old else old
            if merged == old:
                return False
            self._change_counts[name] = count + 1
            self._env.types[name] = merged
            return True
        self._env.types[name] = new
        self._change_counts[name] = 0
        return True

    def _widen(self, old: VarType, new: VarType) -> VarType:
        widened_range = new.range.widen(old.range)
        shape = new.shape
        if shape != old.shape:
            if shape.rank == old.shape.rank:
                shape = Shape(
                    tuple(fresh_dim() for _ in shape.dims),
                    exact=False,
                    rank_exact=shape.rank_exact and old.shape.rank_exact,
                )
            else:
                shape = Shape.unknown()
        return VarType(new.intrinsic, shape, widened_range)

    def _transfer(self, index: int, instr: Instr) -> bool:
        reads = self._view.reads = []
        with self._fresh.memo(self._fresh_memo, id(instr)):
            results = self._infer_instr(instr)
        for name in reads:
            self._readers.setdefault(name, set()).add(index)
        dirty = self._dirty
        changed = False
        for name, vartype in zip(instr.results, results):
            if self._update(name, vartype):
                changed = True
                for reader in self._readers.get(name, ()):
                    dirty[reader] = True
        if changed:
            # _update joins into (and may widen) the old value
            dirty[index] = True
        return changed

    # -- per-op inference ----------------------------------------------

    def _infer_instr(self, instr: Instr) -> list[VarType]:
        op = instr.op
        env = self._view
        if not instr.results:
            return []
        if op == "phi":
            known = [
                env.of_operand(a)
                for a in instr.args
                if not (isinstance(a, Var) and a.name not in env)
            ]
            if not known:
                return [VarType.unknown()]
            result = known[0]
            for other in known[1:]:
                result = result.join(other)
            return [result]
        if op in ("const", "copy"):
            return [env.of_operand(instr.args[0])]
        if op == "undef":
            return [VarType.unknown()]
        if op in ELEMENTWISE_BINARY:
            return [self._elementwise_binary(instr)]
        if op in MATRIX_BINARY:
            return [self._matrix_binary(instr)]
        if op == "neg":
            base = env.of_operand(instr.args[0])
            return [
                VarType(
                    arithmetic_result(base.intrinsic, Intrinsic.INTEGER),
                    base.shape,
                    -base.range,
                )
            ]
        if op == "not":
            base = env.of_operand(instr.args[0])
            return [
                VarType(
                    Intrinsic.BOOLEAN,
                    base.shape,
                    Interval.bounded(0.0, 1.0, integral=True),
                )
            ]
        if op in ("transpose", "ctranspose"):
            base = env.of_operand(instr.args[0])
            return [VarType(base.intrinsic, base.shape.transposed(), base.range)]
        if op == "range":
            return [self._range_op(instr)]
        if op == "forindex":
            return [self._forindex_op(instr)]
        if op == "subsref":
            return [self._subsref(instr)]
        if op == "subsasgn":
            return [self._subsasgn(instr)]
        if op == "horzcat":
            return [self._concat(instr, axis=2)]
        if op == "vertcat":
            return [self._concat(instr, axis=1)]
        if op == "empty":
            return [VarType(Intrinsic.REAL, Shape.empty(), Interval.top())]
        if instr.is_call:
            return self._call(instr)
        return [VarType.unknown() for _ in instr.results]

    def _elementwise_binary(self, instr: Instr) -> VarType:
        env = self._view
        a = env.of_operand(instr.args[0])
        b = env.of_operand(instr.args[1])
        shape = elementwise_shape(a, b)
        op = instr.op
        if op in ("lt", "le", "gt", "ge", "eq", "ne", "and", "or"):
            return VarType(
                comparison_result(a.intrinsic, b.intrinsic),
                shape,
                Interval.bounded(0.0, 1.0, integral=True),
            )
        if op == "add":
            return VarType(
                arithmetic_result(a.intrinsic, b.intrinsic),
                shape,
                a.range + b.range,
            )
        if op == "sub":
            return VarType(
                arithmetic_result(a.intrinsic, b.intrinsic),
                shape,
                a.range - b.range,
            )
        if op == "elmul":
            rng = a.range * b.range
            if self._is_square(instr):
                # x .* x is never negative (MAGICA-style refinement,
                # needed so sqrt(dx*dx + soft) stays REAL)
                rng = Interval.bounded(
                    max(0.0, rng.lo), rng.hi, integral=rng.integral
                )
            return VarType(
                arithmetic_result(a.intrinsic, b.intrinsic),
                shape,
                rng,
            )
        if op in ("eldiv", "elldiv"):
            num, den = (a, b) if op == "eldiv" else (b, a)
            return VarType(
                division_result(a.intrinsic, b.intrinsic),
                shape,
                num.range.divide(den.range),
            )
        if op == "elpow":
            intrinsic = division_result(a.intrinsic, b.intrinsic)
            if (
                a.intrinsic is not Intrinsic.COMPLEX
                and b.range.integral
                and a.range.is_nonnegative
            ):
                intrinsic = Intrinsic.REAL
            elif a.intrinsic is not Intrinsic.COMPLEX and not a.range.is_nonnegative:
                # negative base to fractional power may go complex
                intrinsic = (
                    Intrinsic.REAL if b.range.integral else Intrinsic.COMPLEX
                )
            return VarType(intrinsic, shape, Interval.top())
        raise AssertionError(op)

    def _matrix_binary(self, instr: Instr) -> VarType:
        env = self._view
        a = env.of_operand(instr.args[0])
        b = env.of_operand(instr.args[1])
        op = instr.op
        if a.is_scalar or b.is_scalar:
            shape = elementwise_shape(a, b)
        elif op == "mul":
            shape = Shape(
                (a.shape.extent(1), b.shape.extent(2)),
                exact=a.shape.exact and b.shape.exact,
            )
        elif op == "div":  # A/B ~ A·B⁻¹ : (m,n)/(p,n) → (m,p)
            shape = Shape(
                (a.shape.extent(1), b.shape.extent(1)),
                exact=a.shape.exact and b.shape.exact,
            )
        elif op == "ldiv":  # A\B : (m,n)\(m,p) → (n,p)
            shape = Shape(
                (a.shape.extent(2), b.shape.extent(2)),
                exact=a.shape.exact and b.shape.exact,
            )
        else:  # pow with matrix base
            shape = a.shape
        if op == "mul":
            intrinsic = arithmetic_result(a.intrinsic, b.intrinsic)
            rng = (
                a.range * b.range
                if a.is_scalar or b.is_scalar
                else Interval.top()
            )
            if self._is_square(instr):
                rng = Interval.bounded(
                    max(0.0, rng.lo), rng.hi, integral=rng.integral
                )
            return VarType(intrinsic, shape, rng)
        if op in ("div", "ldiv"):
            return VarType(
                division_result(a.intrinsic, b.intrinsic),
                shape,
                (
                    a.range.divide(b.range)
                    if (a.is_scalar or b.is_scalar) and op == "div"
                    else Interval.top()
                ),
            )
        # pow
        intrinsic = division_result(a.intrinsic, b.intrinsic)
        if (
            a.intrinsic is not Intrinsic.COMPLEX
            and b.range.integral
        ):
            intrinsic = Intrinsic.REAL
        return VarType(intrinsic, shape, Interval.top())

    def _range_op(self, instr: Instr) -> VarType:
        env = self._view
        start = env.of_operand(instr.args[0])
        step = env.of_operand(instr.args[1])
        stop = env.of_operand(instr.args[2])

        # All-constant bounds (integral or not): the length is exact.
        if (
            start.range.is_exact
            and step.range.is_exact
            and stop.range.is_exact
            and step.range.exact_value != 0
        ):
            import math

            span = stop.range.exact_value - start.range.exact_value
            n = int(math.floor(span / step.range.exact_value + 1e-10)) + 1
            length: "ConstDim | object" = ConstDim(max(0, n))
            integral = start.range.integral and step.range.integral
            lo = min(start.range.lo, stop.range.lo)
            hi = max(start.range.hi, stop.range.hi)
            return VarType(
                Intrinsic.INTEGER if integral else Intrinsic.REAL,
                Shape.row_vector(length),
                Interval.bounded(lo, hi, integral=integral),
            )

        def as_dim(operand, vartype):
            if isinstance(operand, Const) and operand.is_integer:
                return ConstDim(int(operand.value.real))
            if vartype.range.is_exact and vartype.range.integral:
                return ConstDim(int(vartype.range.exact_value))
            if isinstance(operand, Var):
                from repro.typing.shape import ValueDim

                return ValueDim(operand.name)
            return fresh_dim()

        length = dim_rangelen(
            as_dim(instr.args[0], start),
            as_dim(instr.args[1], step),
            as_dim(instr.args[2], stop),
        )
        integral = (
            start.range.integral and step.range.integral
        )
        lo = min(start.range.lo, stop.range.lo)
        hi = max(start.range.hi, stop.range.hi)
        intrinsic = Intrinsic.INTEGER if integral else Intrinsic.REAL
        return VarType(
            intrinsic,
            Shape.row_vector(length),
            Interval.bounded(lo, hi, integral=integral),
        )

    @staticmethod
    def _is_square(instr: Instr) -> bool:
        a, b = instr.args[0], instr.args[1]
        return (
            isinstance(a, Var)
            and isinstance(b, Var)
            and a.name == b.name
        )

    def _forindex_op(self, instr: Instr) -> VarType:
        """Loop variable of ``for v = start:step:stop``: its value stays
        within [min(start, stop), max(start, stop)]."""
        env = self._view
        start = env.of_operand(instr.args[0])
        step = env.of_operand(instr.args[1])
        stop = env.of_operand(instr.args[2])
        lo = min(start.range.lo, stop.range.lo)
        hi = max(start.range.hi, stop.range.hi)
        integral = start.range.integral and step.range.integral
        intrinsic = Intrinsic.INTEGER if integral else Intrinsic.REAL
        # ascending loops are bounded above by their stop variable
        sym_hi = None
        step_pos = step.range.is_positive
        if step_pos and isinstance(instr.args[2], Var):
            sym_hi = instr.args[2].name
        return VarType(
            intrinsic,
            Shape.scalar(),
            Interval.bounded(lo, hi, integral=integral),
            sym_hi,
        )

    def _subsref(self, instr: Instr) -> VarType:
        env = self._view
        base = env.of_operand(instr.args[0])
        subs = instr.args[1:]
        sub_types = [
            None if isinstance(s, StrConst) else env.of_operand(s)
            for s in subs
        ]
        # All-scalar subscripts select one element.
        if all(
            st is not None and st.is_scalar for st in sub_types
        ):
            return VarType(base.intrinsic, Shape.scalar(), base.range)
        if len(subs) == 1:
            sub = subs[0]
            if isinstance(sub, StrConst) and sub.value == ":":
                # a(:) — column vector of all elements
                return VarType(
                    base.intrinsic,
                    Shape.column_vector(base.shape.numel()),
                    base.range,
                )
            st = sub_types[0]
            assert st is not None
            # a(v): result has v's shape (MATLAB rule for non-vector a
            # differs in orientation only; sizes agree).
            return VarType(base.intrinsic, st.shape, base.range)
        dims = []
        exact = base.shape.exact
        for position, (sub, st) in enumerate(
            zip(subs, sub_types), start=1
        ):
            if isinstance(sub, StrConst) and sub.value == ":":
                dims.append(base.shape.extent(position))
            elif st is not None and st.is_scalar:
                dims.append(ConstDim(1))
            elif st is not None:
                dims.append(st.shape.numel())
                exact = exact and st.shape.exact
            else:
                dims.append(fresh_dim())
                exact = False
        return VarType(
            base.intrinsic, Shape(tuple(dims), exact=exact), base.range
        )

    def _subsasgn(self, instr: Instr) -> VarType:
        """b = subsasgn(a, r, l1..lm): per-dim growth via max (§2.3.3)."""
        env = self._view
        base = env.of_operand(instr.args[0])
        rhs = env.of_operand(instr.args[1])
        subs = instr.args[2:]
        intrinsic = base.intrinsic.join(_effective_intrinsic(rhs))
        dims = list(base.shape.dims)
        exact = base.shape.exact
        grew = False
        for position, sub in enumerate(subs, start=1):
            if isinstance(sub, StrConst) and sub.value == ":":
                continue  # ':' never expands
            st = env.of_operand(sub)
            extent = base.shape.extent(position)
            hi = st.range.hi
            extent_floor = self._extent_lower_bound(extent)
            if (
                extent_floor is not None
                and hi <= extent_floor
                and st.range.is_positive
            ):
                continue  # provably in bounds: no growth in this dim
            from repro.typing.shape import ValueDim

            if (
                isinstance(extent, ValueDim)
                and st.sym_hi == extent.var
                and st.range.is_positive
            ):
                continue  # loop index bounded by the extent's variable
            import math

            index_dim = (
                ConstDim(int(hi))
                if st.range.integral and math.isfinite(hi) and hi > 0
                and hi == int(hi)
                else fresh_dim()
            )
            while len(dims) < position:
                dims.append(ConstDim(1))
            new_extent = dim_max(dims[position - 1], index_dim)
            if new_extent != dims[position - 1]:
                grew = True
                exact = False
            dims[position - 1] = new_extent
        shape = Shape(
            tuple(dims), exact=exact and not grew,
            rank_exact=base.shape.rank_exact,
        )
        return VarType(intrinsic, shape, base.range.join(rhs.range))

    def _extent_lower_bound(self, extent) -> float | None:
        """A provable lower bound on an extent expression, if any."""
        from repro.typing.shape import ValueDim

        if isinstance(extent, ConstDim):
            return float(extent.value)
        if isinstance(extent, ValueDim):
            rng = self._view.of(extent.var).range
            if rng.lo > float("-inf"):
                import math

                return float(math.floor(rng.lo))
        return None

    def _concat(self, instr: Instr, axis: int) -> VarType:
        env = self._view
        parts = [env.of_operand(a) for a in instr.args]
        intrinsic = parts[0].intrinsic
        rng = parts[0].range
        for p in parts[1:]:
            intrinsic = intrinsic.join(p.intrinsic)
            rng = rng.join(p.range)
        intrinsic = Intrinsic(
            max(intrinsic.value, Intrinsic.INTEGER.value)
        ) if intrinsic is not Intrinsic.COMPLEX else intrinsic
        from repro.typing.shape import dim_add

        if axis == 2:
            rows = parts[0].shape.extent(1)
            cols = parts[0].shape.extent(2)
            for p in parts[1:]:
                cols = dim_add(cols, p.shape.extent(2))
        else:
            cols = parts[0].shape.extent(2)
            rows = parts[0].shape.extent(1)
            for p in parts[1:]:
                rows = dim_add(rows, p.shape.extent(1))
        exact = all(p.shape.exact for p in parts)
        return VarType(intrinsic, Shape((rows, cols), exact=exact), rng)

    def _call(self, instr: Instr) -> list[VarType]:
        env = self._view
        name = instr.callee
        views = [
            ArgView(
                a,
                None
                if isinstance(a, StrConst)
                else env.of_operand(a),
            )
            for a in instr.args
        ]
        fn = lookup_handler(name)
        nresults = len(instr.results)
        if fn is None:
            return [VarType.unknown() for _ in range(nresults)]
        out = fn(views, nresults)
        while len(out) < nresults:
            out.append(VarType.unknown())
        return out[:nresults]


def infer_types(
    func: IRFunction, fresh: FreshDims | None = None
) -> TypeEnvironment:
    """Run inference on an SSA function, returning name → VarType.

    ``fresh`` is the compile's fresh-dimension source; the inference
    rounds of one compile share it.  Without one, the run gets its own.
    """
    return TypeInference(func, fresh).run()
