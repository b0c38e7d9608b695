"""Transfer functions for MATLAB builtins (the engine's "signatures").

Each handler receives the instruction's operand abstractions and
returns the abstraction(s) of the result(s).  Handlers are registered
by builtin name; unknown builtins fall back to a conservative
COMPLEX/unknown-shape result, which is always sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ir.instr import Const, Instr, Operand, StrConst, Var
from repro.runtime.names import BUILTINS
from repro.typing.intrinsic import Intrinsic
from repro.typing.ranges import Interval
from repro.typing.shape import (
    ConstDim,
    Dim,
    Shape,
    ValueDim,
    dim_mul,
    fresh_dim,
)
from repro.typing.types import VarType


@dataclass(slots=True)
class ArgView:
    """An operand together with its abstraction (None for strings)."""

    operand: Operand
    vartype: VarType | None

    @property
    def is_const(self) -> bool:
        return isinstance(self.operand, Const)

    @property
    def const_value(self) -> complex:
        assert isinstance(self.operand, Const)
        return self.operand.value

    def as_dim(self) -> Dim:
        """Interpret a size argument as an extent expression."""
        if isinstance(self.operand, Const) and self.operand.is_integer:
            return ConstDim(int(self.operand.value.real))
        if isinstance(self.operand, Var):
            vt = self.vartype
            if vt is not None and vt.range.is_exact and vt.range.integral:
                return ConstDim(int(vt.range.exact_value))
            return ValueDim(self.operand.name)
        return fresh_dim()

    def vt(self) -> VarType:
        if self.vartype is not None:
            return self.vartype
        if isinstance(self.operand, Const):
            from repro.typing.infer import type_of_literal

            return type_of_literal(self.operand.value)
        return VarType.unknown()


Handler = "callable[[list[ArgView], int], list[VarType]]"

_HANDLERS: dict[str, object] = {}


def handler(name: str):
    """Register the decorated function as the type rule of ``name``, a
    builtin that returns a value (nonzero ``nargout`` in
    :data:`~repro.runtime.names.BUILTINS`)."""
    spec = BUILTINS.get(name)
    if spec is None or spec.nargout == 0:
        raise ValueError(f"{name!r} is not a builtin that returns a value")

    def register(fn):
        _HANDLERS[name] = fn
        return fn

    return register


def lookup_handler(name: str):
    return _HANDLERS.get(name)


# --------------------------------------------------------------------------
# Array constructors
# --------------------------------------------------------------------------


def _constructor_shape(args: list[ArgView]) -> Shape:
    if not args:
        return Shape.scalar()
    if len(args) == 1:
        d = _extent(args[0])
        return Shape((d, d))
    return Shape(tuple(_extent(a) for a in args))


def _extent(arg: ArgView) -> Dim:
    """A constructor's extent argument; a negative one makes an empty
    dimension, as in MATLAB, so a value that may be negative gives an
    unknown extent."""
    d = arg.as_dim()
    if isinstance(d, ConstDim) and d.value < 0:
        return ConstDim(0)
    if isinstance(d, ValueDim) and not arg.vt().range.is_nonnegative:
        return fresh_dim()
    return d


@handler("zeros")
def _zeros(args, nresults):
    return [VarType(Intrinsic.REAL, _constructor_shape(args), Interval.exact(0.0))]


@handler("ones")
def _ones(args, nresults):
    return [VarType(Intrinsic.REAL, _constructor_shape(args), Interval.exact(1.0))]


@handler("eye")
def _eye(args, nresults):
    # MAGICA infers BOOLEAN for identity matrices (paper Example 2).
    return [
        VarType(
            Intrinsic.BOOLEAN,
            _constructor_shape(args),
            Interval.bounded(0.0, 1.0, integral=True),
        )
    ]


@handler("rand")
def _rand(args, nresults):
    rng = Interval.bounded(0.0, 1.0)
    return [VarType(Intrinsic.REAL, _constructor_shape(args), rng)]


@handler("randn")
def _randn(args, nresults):
    return [
        VarType(Intrinsic.REAL, _constructor_shape(args), Interval.top())
    ]


@handler("linspace")
def _linspace(args, nresults):
    n = args[2].as_dim() if len(args) >= 3 else ConstDim(100)
    return [VarType(Intrinsic.REAL, Shape.row_vector(n), Interval.top())]


@handler("repmat")
def _repmat(args, nresults):
    base = args[0].vt()
    if len(args) >= 3:
        m, n = args[1].as_dim(), args[2].as_dim()
        dims = (
            dim_mul(base.shape.extent(1), m),
            dim_mul(base.shape.extent(2), n),
        )
        return [
            VarType(
                base.intrinsic,
                Shape(dims, exact=base.shape.exact),
                base.range,
            )
        ]
    return [VarType(base.intrinsic, Shape.unknown(), base.range)]


@handler("reshape")
def _reshape(args, nresults):
    base = args[0].vt()
    dims = tuple(a.as_dim() for a in args[1:])
    if dims:
        return [VarType(base.intrinsic, Shape(dims), base.range)]
    return [VarType(base.intrinsic, Shape.unknown(), base.range)]


# --------------------------------------------------------------------------
# Shape observers
# --------------------------------------------------------------------------


@handler("size")
def _size(args, nresults):
    base = args[0].vt()
    if len(args) >= 2:
        rng = Interval(1.0, math.inf, integral=True)
        dim_arg = args[1]
        if dim_arg.is_const:
            extent = base.shape.extent(int(dim_arg.const_value.real))
            if isinstance(extent, ConstDim) and base.shape.exact:
                rng = Interval.exact(float(extent.value))
        return [VarType(Intrinsic.INTEGER, Shape.scalar(), rng)]
    if nresults <= 1:
        return [
            VarType(
                Intrinsic.INTEGER,
                Shape.row_vector(ConstDim(base.shape.rank)),
                Interval(0.0, math.inf, integral=True),
            )
        ]
    out = []
    for i in range(nresults):
        extent = base.shape.extent(i + 1)
        if isinstance(extent, ConstDim) and base.shape.exact:
            rng = Interval.exact(float(extent.value))
        else:
            rng = Interval(0.0, math.inf, integral=True)
        out.append(VarType(Intrinsic.INTEGER, Shape.scalar(), rng))
    return out


@handler("numel")
@handler("length")
def _numel(args, nresults):
    base = args[0].vt()
    n = base.shape.static_numel()
    if n is not None and base.shape.exact:
        rng = Interval.exact(float(n))
    else:
        rng = Interval(0.0, math.inf, integral=True)
    return [VarType(Intrinsic.INTEGER, Shape.scalar(), rng)]


@handler("ndims")
def _ndims(args, nresults):
    base = args[0].vt()
    if base.shape.rank_exact:
        rng = Interval.exact(float(base.shape.rank))
    else:
        rng = Interval(2.0, math.inf, integral=True)
    return [VarType(Intrinsic.INTEGER, Shape.scalar(), rng)]


@handler("isempty")
@handler("isreal")
def _predicate(args, nresults):
    return [
        VarType(
            Intrinsic.BOOLEAN,
            Shape.scalar(),
            Interval.bounded(0.0, 1.0, integral=True),
        )
    ]


# --------------------------------------------------------------------------
# Elementwise math
# --------------------------------------------------------------------------


def _elementwise(intrinsic_fn, range_fn=None):
    def apply(args, nresults):
        base = args[0].vt()
        rng = range_fn(base.range) if range_fn else Interval.top()
        return [VarType(intrinsic_fn(base), base.shape, rng)]

    return apply


def _real_preserving(base: VarType) -> Intrinsic:
    if base.intrinsic is Intrinsic.COMPLEX:
        return Intrinsic.COMPLEX
    return Intrinsic.REAL


handler("exp")(_elementwise(_real_preserving))
handler("sin")(_elementwise(
    _real_preserving, lambda r: Interval.bounded(-1.0, 1.0)
))
handler("cos")(_elementwise(
    _real_preserving, lambda r: Interval.bounded(-1.0, 1.0)
))
handler("tan")(_elementwise(_real_preserving))
handler("asin")(_elementwise(_real_preserving))
handler("acos")(_elementwise(_real_preserving))
handler("atan")(_elementwise(
    _real_preserving, lambda r: Interval.bounded(-math.pi / 2, math.pi / 2)
))
handler("sinh")(_elementwise(_real_preserving))
handler("cosh")(_elementwise(_real_preserving))
handler("tanh")(_elementwise(
    _real_preserving, lambda r: Interval.bounded(-1.0, 1.0)
))


@handler("sqrt")
def _sqrt(args, nresults):
    base = args[0].vt()
    if base.intrinsic is not Intrinsic.COMPLEX and base.range.is_nonnegative:
        out = Intrinsic.REAL
    else:
        out = Intrinsic.COMPLEX
    return [VarType(out, base.shape, Interval.top())]


@handler("log")
@handler("log2")
@handler("log10")
def _log(args, nresults):
    base = args[0].vt()
    if base.intrinsic is not Intrinsic.COMPLEX and base.range.is_positive:
        out = Intrinsic.REAL
    else:
        out = Intrinsic.COMPLEX
    return [VarType(out, base.shape, Interval.top())]


@handler("abs")
def _abs(args, nresults):
    base = args[0].vt()
    out = (
        Intrinsic.REAL
        if base.intrinsic is Intrinsic.COMPLEX
        else base.intrinsic
    )
    return [VarType(out, base.shape, base.range.absolute())]


@handler("real")
@handler("imag")
def _realpart(args, nresults):
    base = args[0].vt()
    return [VarType(Intrinsic.REAL, base.shape, Interval.top())]


@handler("conj")
def _conj(args, nresults):
    base = args[0].vt()
    return [base]


@handler("angle")
def _angle(args, nresults):
    base = args[0].vt()
    return [
        VarType(
            Intrinsic.REAL, base.shape, Interval.bounded(-math.pi, math.pi)
        )
    ]


@handler("floor")
@handler("ceil")
@handler("round")
@handler("fix")
def _integerize(args, nresults):
    base = args[0].vt()
    out = (
        Intrinsic.COMPLEX
        if base.intrinsic is Intrinsic.COMPLEX
        else Intrinsic.INTEGER
    )
    return [VarType(out, base.shape, base.range.floor())]


@handler("sign")
def _sign(args, nresults):
    base = args[0].vt()
    return [
        VarType(
            Intrinsic.INTEGER,
            base.shape,
            Interval.bounded(-1.0, 1.0, integral=True),
        )
    ]


@handler("mod")
@handler("rem")
def _mod(args, nresults):
    a, b = args[0].vt(), args[1].vt()
    from repro.typing.infer import elementwise_shape

    shape = elementwise_shape(a, b)
    integral = a.range.integral and b.range.integral
    if a.range.is_nonnegative and b.range.is_positive and math.isfinite(
        b.range.hi
    ):
        # mod(x, m) ∈ [0, m) for x ≥ 0, m > 0 — tight enough to prove
        # subscripts like mod(k, n) + 1 in bounds
        hi = b.range.hi - 1.0 if integral else b.range.hi
        rng = Interval.bounded(0.0, hi, integral=integral)
    else:
        hi = abs(b.range.hi) if math.isfinite(b.range.hi) else math.inf
        rng = Interval.bounded(-hi, hi, integral=integral)
    return [
        VarType(
            Intrinsic.REAL if not integral else Intrinsic.INTEGER,
            shape,
            rng,
        )
    ]


@handler("atan2")
def _atan2(args, nresults):
    a, b = args[0].vt(), args[1].vt()
    from repro.typing.infer import elementwise_shape

    return [
        VarType(
            Intrinsic.REAL,
            elementwise_shape(a, b),
            Interval.bounded(-math.pi, math.pi),
        )
    ]


# --------------------------------------------------------------------------
# Reductions and orderings
# --------------------------------------------------------------------------


def _reduction_shape(base: VarType) -> Shape:
    """sum/prod/any/all reduce the first non-singleton dimension."""
    shape = base.shape
    if shape.is_scalar:
        return Shape.scalar()
    rows = shape.extent(1)
    if isinstance(rows, ConstDim) and rows.value == 1 and shape.exact:
        return Shape.scalar()  # row vector reduces to a scalar
    cols = shape.extent(2)
    if isinstance(cols, ConstDim) and cols.value == 1 and shape.exact:
        return Shape.scalar()  # column vector too
    if isinstance(rows, ConstDim) and rows.value > 1:
        # definitely a matrix reduction: (1, cols), exactness inherited
        return Shape((ConstDim(1), cols), exact=shape.exact)
    # rows unknown: could be a row vector (⇒ scalar) or a matrix
    return Shape((ConstDim(1), cols), exact=False)


def _accumulation_intrinsic(base: VarType) -> Intrinsic:
    if base.intrinsic is Intrinsic.COMPLEX:
        return Intrinsic.COMPLEX
    return Intrinsic(max(base.intrinsic.value, Intrinsic.INTEGER.value))


@handler("sum")
@handler("prod")
def _sum(args, nresults):
    base = args[0].vt()
    return [
        VarType(
            _accumulation_intrinsic(base),
            _reduction_shape(base),
            Interval.top(),
        )
    ]


@handler("cumsum")
def _cumsum(args, nresults):
    base = args[0].vt()
    return [
        VarType(_accumulation_intrinsic(base), base.shape, Interval.top())
    ]


@handler("any")
@handler("all")
def _anyall(args, nresults):
    base = args[0].vt()
    return [
        VarType(
            Intrinsic.BOOLEAN,
            _reduction_shape(base),
            Interval.bounded(0.0, 1.0, integral=True),
        )
    ]


@handler("min")
@handler("max")
def _minmax(args, nresults):
    if len(args) >= 2:
        a, b = args[0].vt(), args[1].vt()
        from repro.typing.infer import elementwise_shape

        return [
            VarType(
                a.intrinsic.join(b.intrinsic),
                elementwise_shape(a, b),
                a.range.join(b.range),
            )
        ][:nresults] + [
            VarType.scalar(Intrinsic.INTEGER)
        ] * max(0, nresults - 1)
    base = args[0].vt()
    first = VarType(base.intrinsic, _reduction_shape(base), base.range)
    rest = [
        VarType.scalar(Intrinsic.INTEGER) for _ in range(nresults - 1)
    ]
    return [first, *rest]


@handler("sort")
def _sort(args, nresults):
    base = args[0].vt()
    out = [base]
    if nresults > 1:
        out.append(
            VarType(
                Intrinsic.INTEGER,
                base.shape,
                Interval(1.0, math.inf, integral=True),
            )
        )
    return out


@handler("find")
def _find(args, nresults):
    return [
        VarType(
            Intrinsic.INTEGER,
            Shape((fresh_dim(), ConstDim(1)), exact=False),
            Interval(1.0, math.inf, integral=True),
        )
    ]


# --------------------------------------------------------------------------
# Linear algebra and structure
# --------------------------------------------------------------------------


@handler("norm")
@handler("dot")
@handler("trace")
def _scalar_real(args, nresults):
    return [VarType.scalar(Intrinsic.REAL)]


@handler("fliplr")
@handler("flipud")
def _flip(args, nresults):
    return [args[0].vt()]


@handler("diag")
def _diag(args, nresults):
    base = args[0].vt()
    return [VarType(base.intrinsic, Shape.unknown(), base.range)]


@handler("kron")
def _kron(args, nresults):
    a, b = args[0].vt(), args[1].vt()
    dims = (
        dim_mul(a.shape.extent(1), b.shape.extent(1)),
        dim_mul(a.shape.extent(2), b.shape.extent(2)),
    )
    return [
        VarType(
            a.intrinsic.join(b.intrinsic),
            Shape(dims, exact=a.shape.exact and b.shape.exact),
            Interval.top(),
        )
    ]


# --------------------------------------------------------------------------
# Strings / misc
# --------------------------------------------------------------------------


@handler("num2str")
@handler("int2str")
def _tostring(args, nresults):
    return [
        VarType(
            Intrinsic.BYTE,
            Shape((ConstDim(1), fresh_dim()), exact=False),
            Interval(0.0, 255.0, integral=True),
        )
    ]


@handler("toc")
def _toc(args, nresults):
    return [VarType.scalar(Intrinsic.REAL, Interval.nonnegative())]
