"""MATLAB operator semantics over :class:`MArray`.

MATLAB 6 rules: elementwise binary operators accept equal shapes or a
scalar operand (no general broadcasting); ``*``/``/``/``\\``/``^`` have
matrix semantics unless an operand is scalar; comparisons yield logical
arrays.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.runtime.errors import MatlabRuntimeError, ShapeConformanceError
from repro.runtime.marray import MArray, boxed_call


def _conform(a: MArray, b: MArray, op: str) -> None:
    if a.is_scalar or b.is_scalar:
        return
    if a.shape != b.shape:
        raise ShapeConformanceError(
            f"operands of '{op}' must have equal shapes "
            f"({a.shape} vs {b.shape})"
        )


def _wrap(result: np.ndarray, logical: bool = False) -> MArray:
    return MArray.from_numpy(result, is_logical=logical)


def _elementwise(a: MArray, b: MArray, fn, op: str) -> MArray:
    """``fn`` elementwise; a scalar operand broadcasts."""
    _conform(a, b, op)
    if a.is_scalar and not b.is_scalar:
        return _wrap(fn(a.scalar() if a.is_complex else a.scalar_real(),
                        b.data))
    if b.is_scalar and not a.is_scalar:
        return _wrap(fn(a.data,
                        b.scalar() if b.is_complex else b.scalar_real()))
    return _wrap(fn(a.data, b.data))


def add(a: MArray, b: MArray) -> MArray:
    return _elementwise(a, b, lambda x, y: x + y, "+")


def sub(a: MArray, b: MArray) -> MArray:
    return _elementwise(a, b, lambda x, y: x - y, "-")


def elmul(a: MArray, b: MArray) -> MArray:
    return _elementwise(a, b, lambda x, y: x * y, ".*")


def eldiv(a: MArray, b: MArray) -> MArray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return _elementwise(a, b, lambda x, y: x / y, "./")


def elldiv(a: MArray, b: MArray) -> MArray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return _elementwise(a, b, lambda x, y: y / x, ".\\")


def elpow(a: MArray, b: MArray) -> MArray:
    def fn(x, y):
        result = np.power(x.astype(complex) if _needs_complex(x, y) else x, y)
        return result

    return _elementwise(a, b, fn, ".^")


def _needs_complex(x, y) -> bool:
    if np.iscomplexobj(x) or np.iscomplexobj(y):
        return False  # already complex; numpy handles it
    return bool(np.any(np.asarray(x) < 0) and np.any(np.asarray(y) % 1 != 0))


def mul(a: MArray, b: MArray) -> MArray:
    if a.is_scalar or b.is_scalar:
        return elmul(a, b)
    if a.shape[-1] != b.shape[0] or a.data.ndim > 2 or b.data.ndim > 2:
        raise ShapeConformanceError(
            f"inner matrix dimensions must agree ({a.shape} * {b.shape})"
        )
    return _wrap(a.data @ b.data)


def div(a: MArray, b: MArray) -> MArray:
    """A/B — right matrix divide (A·B⁻¹); elementwise for scalars."""
    if b.is_scalar or a.is_scalar:
        return eldiv(a, b)
    return _wrap(np.linalg.lstsq(b.data.T, a.data.T, rcond=None)[0].T)


def ldiv(a: MArray, b: MArray) -> MArray:
    """A\\B — left matrix divide (A⁻¹·B); elementwise for scalars."""
    if a.is_scalar:
        return elldiv(a, b)
    if a.shape[0] == a.shape[1] == b.shape[0]:
        return _wrap(np.linalg.solve(a.data, b.data))
    return _wrap(np.linalg.lstsq(a.data, b.data, rcond=None)[0])


def pow_(a: MArray, b: MArray) -> MArray:
    if a.is_scalar and b.is_scalar:
        return elpow(a, b)
    if b.is_scalar:
        exponent = b.scalar_real()
        if exponent != int(exponent):
            raise MatlabRuntimeError("matrix power requires integer exponent")
        return _wrap(np.linalg.matrix_power(a.data, int(exponent)))
    raise MatlabRuntimeError("unsupported matrix power form")


def neg(a: MArray) -> MArray:
    return _wrap(-a.data)


def not_(a: MArray) -> MArray:
    return _wrap(a.data == 0, logical=True)


def transpose(a: MArray, conjugate: bool) -> MArray:
    if a.data.ndim > 2:
        raise MatlabRuntimeError("transpose of N-D array is undefined")
    data = a.data.T
    if conjugate and a.is_complex:
        data = data.conj()
    return MArray.from_numpy(
        data, is_logical=a.is_logical, is_char=a.is_char
    )


def _compare(a: MArray, b: MArray, fn, op: str) -> MArray:
    _conform(a, b, op)
    x = a.data.real if a.is_complex else a.data
    y = b.data.real if b.is_complex else b.data
    if a.is_scalar and not b.is_scalar:
        x = x.flat[0]
    if b.is_scalar and not a.is_scalar:
        y = y.flat[0]
    return _wrap(fn(x, y), logical=True)


def lt(a, b):
    return _compare(a, b, lambda x, y: x < y, "<")


def le(a, b):
    return _compare(a, b, lambda x, y: x <= y, "<=")


def gt(a, b):
    return _compare(a, b, lambda x, y: x > y, ">")


def ge(a, b):
    return _compare(a, b, lambda x, y: x >= y, ">=")


def eq(a, b):
    _conform(a, b, "==")
    if a.is_scalar and not b.is_scalar:
        return _wrap(b.data == a.scalar(), logical=True)
    if b.is_scalar and not a.is_scalar:
        return _wrap(a.data == b.scalar(), logical=True)
    return _wrap(a.data == b.data, logical=True)


def ne(a, b):
    _conform(a, b, "~=")
    if a.is_scalar and not b.is_scalar:
        return _wrap(b.data != a.scalar(), logical=True)
    if b.is_scalar and not a.is_scalar:
        return _wrap(a.data != b.scalar(), logical=True)
    return _wrap(a.data != b.data, logical=True)


def and_(a, b):
    return _compare(
        a, b, lambda x, y: (x != 0) & (y != 0), "&"
    )


def or_(a, b):
    return _compare(
        a, b, lambda x, y: (x != 0) | (y != 0), "|"
    )


def make_range(start: MArray, step: MArray, stop: MArray) -> MArray:
    """``start:step:stop`` as a row vector (empty when degenerate)."""
    s0 = start.scalar_real()
    d = step.scalar_real()
    s1 = stop.scalar_real()
    if d == 0:
        raise MatlabRuntimeError("range step must be nonzero")
    n = int(np.floor((s1 - s0) / d + 1e-10)) + 1
    if n <= 0:
        return MArray.from_numpy(np.zeros((1, 0))[:, :0].reshape(1, 0))
    values = s0 + d * np.arange(n, dtype=float)
    return MArray.from_numpy(values.reshape(1, n))


def horzcat(parts: list[MArray]) -> MArray:
    parts = [p for p in parts if not p.is_empty]
    if not parts:
        return MArray.empty()
    rows = parts[0].shape[0]
    for p in parts:
        if p.shape[0] != rows:
            raise ShapeConformanceError(
                "horizontal concatenation: row counts differ"
            )
    is_char = all(p.is_char for p in parts)
    return MArray.from_numpy(
        np.hstack([p.data for p in parts]), is_char=is_char
    )


def vertcat(parts: list[MArray]) -> MArray:
    parts = [p for p in parts if not p.is_empty]
    if not parts:
        return MArray.empty()
    cols = parts[0].shape[1]
    for p in parts:
        if p.shape[1] != cols:
            raise ShapeConformanceError(
                "vertical concatenation: column counts differ"
            )
    is_char = all(p.is_char for p in parts)
    return MArray.from_numpy(
        np.vstack([p.data for p in parts]), is_char=is_char
    )


# -- unboxed operands ------------------------------------------------------

#: binary IR op → its operation on two arrays
BINOPS = {
    "add": add,
    "sub": sub,
    "elmul": elmul,
    "eldiv": eldiv,
    "elldiv": elldiv,
    "elpow": elpow,
    "mul": mul,
    "div": div,
    "ldiv": ldiv,
    "pow": pow_,
    "lt": lt,
    "le": le,
    "gt": gt,
    "ge": ge,
    "eq": eq,
    "ne": ne,
    "and": and_,
    "or": or_,
}

#: the binary IR ops whose two unboxed float operands (see
#: :func:`~repro.runtime.marray.unbox`) compute as Python floats:
#: Python's ``+ - * /`` and comparisons are the IEEE operations numpy
#: applies to two 1×1 REAL arrays, so the result has the boxed op's bits.
FLOAT_BINOPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "elmul": operator.mul,
    "div": operator.truediv,
    "eldiv": operator.truediv,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "eq": operator.eq,
    "ne": operator.ne,
}


def unboxed_binop(op: str):
    """``(a, b) → value``: the binary IR op ``op`` on unboxed operands,
    with an unboxed result.  Two floats compute by ``FLOAT_BINOPS``;
    anything else, and a division by zero (where Python raises and
    numpy gives inf or nan), takes the boxed op from ``BINOPS``."""
    boxed = BINOPS[op]
    fast = FLOAT_BINOPS.get(op)

    def compute(a, b):
        if fast is not None and a.__class__ is float and b.__class__ is float:
            try:
                return fast(a, b)
            except ZeroDivisionError:
                pass
        return boxed_call(boxed, (a, b))

    return compute
