"""Executable MATLAB builtins over :class:`MArray`.

Each builtin takes ``(ctx, args, nargout)`` and returns a list of
results.  ``ctx`` is a :class:`RuntimeContext` carrying the output
sink, a seeded RNG (so every executor — interpreter, mcc model, mat2c
VM — sees identical data), and the tic/toc clock.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.runtime.errors import MatlabRuntimeError
from repro.runtime.marray import MArray, box, unbox
from repro.runtime.names import BUILTINS


@dataclass(slots=True)
class RuntimeContext:
    output: list[str] = field(default_factory=list)
    seed: int = 20030609  # PLDI'03's date, for luck and determinism
    rng: np.random.Generator = None  # type: ignore[assignment]
    tic_time: float = 0.0

    def __post_init__(self) -> None:
        if self.rng is None:
            self.rng = np.random.default_rng(self.seed)

    def write(self, text: str) -> None:
        self.output.append(text)

    def captured(self) -> str:
        return "".join(self.output)


_BUILTINS: dict[str, object] = {}


def builtin(name: str):
    """Register the decorated function as the builtin ``name``, which
    must have a record in :data:`~repro.runtime.names.BUILTINS`."""
    if name not in BUILTINS:
        raise ValueError(f"builtin {name!r} has no record in BUILTINS")

    def register(fn):
        _BUILTINS[name] = fn
        return fn

    return register


def lookup_builtin(name: str):
    return _BUILTINS.get(name)


def call_builtin(ctx, name, args, nargout=1) -> list[MArray]:
    fn = _BUILTINS.get(name)
    if fn is None:
        raise MatlabRuntimeError(f"unknown builtin {name!r}")
    return fn(ctx, args, nargout)


def call_builtin_unboxed(ctx, name, args, nargout=1) -> list:
    """:func:`call_builtin` on unboxed arguments (see
    :func:`~repro.runtime.marray.unbox`), with unboxed results."""
    return [
        unbox(r)
        for r in call_builtin(ctx, name, [box(a) for a in args], nargout)
    ]


def _dims_from_args(args: list[MArray]) -> tuple[int, ...]:
    """The extents a constructor's arguments ask for; a negative one
    makes an empty dimension, as in MATLAB."""
    if not args:
        return (1, 1)
    if len(args) == 1:
        n = max(args[0].scalar_int(), 0)
        return (n, n)
    return tuple(max(a.scalar_int(), 0) for a in args)


# -- constructors -------------------------------------------------------


@builtin("zeros")
def _zeros(ctx, args, nargout):
    return [MArray.from_numpy(np.zeros(_dims_from_args(args), order="F"))]


@builtin("ones")
def _ones(ctx, args, nargout):
    return [MArray.from_numpy(np.ones(_dims_from_args(args), order="F"))]


@builtin("eye")
def _eye(ctx, args, nargout):
    dims = _dims_from_args(args)
    if len(dims) != 2:
        raise MatlabRuntimeError("eye expects at most two extents")
    return [
        MArray.from_numpy(np.eye(dims[0], dims[1], order="F"),
                          is_logical=True)
    ]


@builtin("rand")
def _rand(ctx, args, nargout):
    dims = _dims_from_args(args)
    return [MArray.from_numpy(
        np.asfortranarray(ctx.rng.random(dims))
    )]


@builtin("randn")
def _randn(ctx, args, nargout):
    dims = _dims_from_args(args)
    return [MArray.from_numpy(
        np.asfortranarray(ctx.rng.standard_normal(dims))
    )]


@builtin("linspace")
def _linspace(ctx, args, nargout):
    n = args[2].scalar_int() if len(args) > 2 else 100
    return [MArray.from_numpy(np.linspace(
        args[0].scalar_real(), args[1].scalar_real(), n
    ).reshape(1, -1))]


@builtin("repmat")
def _repmat(ctx, args, nargout):
    reps = tuple(a.scalar_int() for a in args[1:])
    if len(reps) == 1:
        reps = (reps[0], reps[0])
    return [MArray.from_numpy(np.tile(args[0].data, reps))]


@builtin("reshape")
def _reshape(ctx, args, nargout):
    dims = tuple(a.scalar_int() for a in args[1:])
    return [MArray.from_numpy(
        args[0].data.reshape(dims, order="F"),
        is_logical=args[0].is_logical,
        is_char=args[0].is_char,
    )]


# -- shape observers -----------------------------------------------------


@builtin("size")
def _size(ctx, args, nargout):
    shape = args[0].shape
    if len(args) > 1:
        k = args[1].scalar_int()
        extent = shape[k - 1] if 1 <= k <= len(shape) else 1
        return [MArray.from_scalar(extent)]
    if nargout <= 1:
        return [MArray.from_numpy(
            np.array([list(shape)], dtype=float)
        )]
    out = []
    for i in range(nargout):
        out.append(MArray.from_scalar(shape[i] if i < len(shape) else 1))
    return out


@builtin("numel")
def _numel(ctx, args, nargout):
    return [MArray.from_scalar(args[0].numel)]


@builtin("length")
def _length(ctx, args, nargout):
    a = args[0]
    return [MArray.from_scalar(0 if a.is_empty else max(a.shape))]


@builtin("ndims")
def _ndims(ctx, args, nargout):
    return [MArray.from_scalar(args[0].data.ndim)]


@builtin("isempty")
def _isempty(ctx, args, nargout):
    return [MArray.from_scalar(bool(args[0].is_empty))]


@builtin("isreal")
def _isreal(ctx, args, nargout):
    return [MArray.from_scalar(not args[0].is_complex)]


# -- elementwise math -----------------------------------------------------


def _unary(fn, preserve_flags=False):
    def apply(ctx, args, nargout):
        a = args[0]
        result = fn(a.data)
        if preserve_flags:
            return [MArray.from_numpy(
                result, is_logical=a.is_logical, is_char=a.is_char
            )]
        return [MArray.from_numpy(result)]

    return apply


builtin("abs")(_unary(np.abs))
builtin("exp")(_unary(np.exp))
builtin("sin")(_unary(np.sin))
builtin("cos")(_unary(np.cos))
builtin("tan")(_unary(np.tan))
builtin("asin")(_unary(np.arcsin))
builtin("acos")(_unary(np.arccos))
builtin("atan")(_unary(np.arctan))
builtin("sinh")(_unary(np.sinh))
builtin("cosh")(_unary(np.cosh))
builtin("tanh")(_unary(np.tanh))
builtin("floor")(_unary(np.floor))
builtin("ceil")(_unary(np.ceil))
builtin("round")(_unary(np.round))
builtin("fix")(_unary(np.trunc))
builtin("sign")(_unary(np.sign))
builtin("real")(_unary(np.real))
builtin("imag")(_unary(np.imag))
builtin("conj")(_unary(np.conj))
builtin("angle")(_unary(np.angle))


@builtin("sqrt")
def _sqrt(ctx, args, nargout):
    data = args[0].data
    if not np.iscomplexobj(data) and np.any(data < 0):
        data = data.astype(complex)
    return [MArray.from_numpy(np.sqrt(data))]


@builtin("log")
def _log(ctx, args, nargout):
    data = args[0].data
    if not np.iscomplexobj(data) and np.any(data < 0):
        data = data.astype(complex)
    with np.errstate(divide="ignore"):
        return [MArray.from_numpy(np.log(data))]


builtin("log2")(_unary(np.log2))
builtin("log10")(_unary(np.log10))


@builtin("mod")
def _mod(ctx, args, nargout):
    a, b = args[0], args[1]
    return [MArray.from_numpy(np.mod(
        a.data if not a.is_scalar else a.scalar_real(),
        b.data if not b.is_scalar else b.scalar_real(),
    ) if not (a.is_scalar and b.is_scalar) else
        np.mod(a.scalar_real(), b.scalar_real()))]


@builtin("rem")
def _rem(ctx, args, nargout):
    a, b = args[0], args[1]
    return [MArray.from_numpy(np.fmod(a.data, b.data)
            if a.shape == b.shape else np.fmod(
                a.data if not a.is_scalar else a.scalar_real(),
                b.data if not b.is_scalar else b.scalar_real()))]


@builtin("atan2")
def _atan2(ctx, args, nargout):
    return [MArray.from_numpy(np.arctan2(args[0].data.real,
                                         args[1].data.real))]


# -- reductions -----------------------------------------------------------


def _reduce(np_fn):
    def apply(ctx, args, nargout):
        a = args[0]
        if a.is_empty:
            return [MArray.from_scalar(0.0)]
        if a.is_vector:
            return [MArray.from_scalar(complex(np_fn(a.flat())))]
        return [MArray.from_numpy(
            np.atleast_2d(np_fn(a.data, axis=0))
        )]

    return apply


builtin("sum")(_reduce(np.sum))
builtin("prod")(_reduce(np.prod))


@builtin("cumsum")
def _cumsum(ctx, args, nargout):
    a = args[0]
    axis = 1 if (a.shape[0] == 1 and a.data.ndim == 2) else 0
    return [MArray.from_numpy(np.cumsum(a.data, axis=axis))]


def _minmax(np_fn, np_arg_fn):
    def apply(ctx, args, nargout):
        if len(args) >= 2:
            a, b = args[0], args[1]
            x = a.data.real if a.is_complex else a.data
            y = b.data.real if b.is_complex else b.data
            if a.is_scalar and not b.is_scalar:
                x = x.flat[0]
            if b.is_scalar and not a.is_scalar:
                y = y.flat[0]
            fn = np.minimum if np_fn is np.min else np.maximum
            return [MArray.from_numpy(np.atleast_2d(fn(x, y)))]
        a = args[0]
        values = a.data.real if a.is_complex else a.data
        if a.is_vector:
            flat = values.flatten(order="F")
            out = [MArray.from_scalar(float(np_fn(flat)))]
            if nargout > 1:
                out.append(MArray.from_scalar(int(np_arg_fn(flat)) + 1))
            return out
        out = [MArray.from_numpy(np.atleast_2d(np_fn(values, axis=0)))]
        if nargout > 1:
            out.append(MArray.from_numpy(
                np.atleast_2d(np_arg_fn(values, axis=0) + 1).astype(float)
            ))
        return out

    return apply


builtin("min")(_minmax(np.min, np.argmin))
builtin("max")(_minmax(np.max, np.argmax))


@builtin("any")
def _any(ctx, args, nargout):
    a = args[0]
    if a.is_vector or a.is_scalar:
        return [MArray.from_scalar(bool(np.any(a.data != 0)))]
    return [MArray.from_numpy(np.any(a.data != 0, axis=0,
                                     keepdims=True), is_logical=True)]


@builtin("all")
def _all(ctx, args, nargout):
    a = args[0]
    if a.is_vector or a.is_scalar:
        return [MArray.from_scalar(bool(np.all(a.data != 0)))]
    return [MArray.from_numpy(np.all(a.data != 0, axis=0,
                                     keepdims=True), is_logical=True)]


@builtin("find")
def _find(ctx, args, nargout):
    a = args[0]
    flat = a.flat()
    positions = np.nonzero(flat != 0)[0] + 1
    if a.shape[0] == 1 and a.data.ndim == 2:
        result = positions.reshape(1, -1).astype(float)
    else:
        result = positions.reshape(-1, 1).astype(float)
    return [MArray.from_numpy(result)]


@builtin("sort")
def _sort(ctx, args, nargout):
    a = args[0]
    if a.is_vector:
        flat = a.flat()
        order = np.argsort(flat, kind="stable")
        values = flat[order]
        shape = a.shape
        out = [MArray.from_numpy(values.reshape(shape, order="F"))]
        if nargout > 1:
            out.append(MArray.from_numpy(
                (order + 1).astype(float).reshape(shape, order="F")
            ))
        return out
    order = np.argsort(a.data, axis=0, kind="stable")
    values = np.take_along_axis(a.data, order, axis=0)
    out = [MArray.from_numpy(values)]
    if nargout > 1:
        out.append(MArray.from_numpy((order + 1).astype(float)))
    return out


# -- linear algebra --------------------------------------------------------


@builtin("norm")
def _norm(ctx, args, nargout):
    a = args[0]
    if len(args) > 1 and not a.is_vector:
        raise MatlabRuntimeError("matrix norms with order unsupported")
    if a.is_vector:
        return [MArray.from_scalar(float(np.linalg.norm(a.flat())))]
    return [MArray.from_scalar(float(np.linalg.norm(a.data, 2)))]


@builtin("dot")
def _dot(ctx, args, nargout):
    return [MArray.from_scalar(complex(
        np.dot(args[0].flat().conj(), args[1].flat())
    ))]


@builtin("trace")
def _trace(ctx, args, nargout):
    return [MArray.from_scalar(complex(np.trace(args[0].data)))]


@builtin("diag")
def _diag(ctx, args, nargout):
    a = args[0]
    if a.is_vector:
        return [MArray.from_numpy(np.diag(a.flat()))]
    return [MArray.from_numpy(np.diag(a.data).reshape(-1, 1))]


@builtin("kron")
def _kron(ctx, args, nargout):
    return [MArray.from_numpy(np.kron(args[0].data, args[1].data))]


@builtin("fliplr")
def _fliplr(ctx, args, nargout):
    return [MArray.from_numpy(np.fliplr(args[0].data),
                              is_logical=args[0].is_logical,
                              is_char=args[0].is_char)]


@builtin("flipud")
def _flipud(ctx, args, nargout):
    return [MArray.from_numpy(np.flipud(args[0].data),
                              is_logical=args[0].is_logical)]


# -- output ----------------------------------------------------------------


def _format_value(a: MArray) -> str:
    if a.is_char:
        return a.as_string()
    if a.is_scalar:
        value = a.scalar()
        if value.imag == 0:
            real = value.real
            if real == int(real) and abs(real) < 1e15:
                return str(int(real))
            return f"{real:.4f}"
        return f"{value.real:.4f} + {value.imag:.4f}i"
    rows = []
    data = np.atleast_2d(a.data)
    if data.ndim > 2:
        return f"[{'x'.join(str(d) for d in a.shape)} array]"
    for r in range(data.shape[0]):
        cells = []
        for c in range(data.shape[1]):
            value = complex(data[r, c])
            if value.imag == 0:
                cells.append(
                    str(int(value.real))
                    if value.real == int(value.real)
                    and abs(value.real) < 1e15
                    else f"{value.real:.4f}"
                )
            else:
                cells.append(f"{value.real:.4f}+{value.imag:.4f}i")
        rows.append("  ".join(cells))
    return "\n".join(rows)


@builtin("disp")
def _disp(ctx, args, nargout):
    # like MATLAB and the generated C, an empty array prints nothing
    if args[0].data.size:
        ctx.write(_format_value(args[0]) + "\n")
    return []


@builtin("fprintf")
def _fprintf(ctx, args, nargout):
    if not args:
        return []
    template = args[0].as_string() if args[0].is_char else _format_value(
        args[0]
    )
    values: list[float] = []
    for a in args[1:]:
        values.extend(v.real for v in a.flat())
    text = _apply_format(template, values)
    ctx.write(text)
    return []


def _apply_format(template: str, values: list[float]) -> str:
    template = (
        template.replace("\\n", "\n")
        .replace("\\t", "\t")
    )
    out = []
    i = 0
    vi = 0
    while i < len(template):
        ch = template[i]
        if ch == "%" and i + 1 < len(template):
            j = i + 1
            while j < len(template) and template[j] not in "diufgGeEsxc%":
                j += 1
            if j < len(template):
                spec = template[i : j + 1]
                kind = template[j]
                if kind == "%":
                    out.append("%")
                elif vi < len(values):
                    value = values[vi]
                    vi += 1
                    if kind in "diu":
                        out.append(spec.replace(kind, "d") % int(value))
                    elif kind == "s":
                        out.append(spec % str(value))
                    else:
                        out.append(spec % value)
                i = j + 1
                continue
        out.append(ch)
        i += 1
    return "".join(out)


@builtin("error")
def _error(ctx, args, nargout):
    message = args[0].as_string() if args else "error"
    raise MatlabRuntimeError(message)


@builtin("num2str")
def _num2str(ctx, args, nargout):
    return [MArray.from_string(_format_value(args[0]))]


@builtin("int2str")
def _int2str(ctx, args, nargout):
    return [MArray.from_string(str(args[0].scalar_int()))]


@builtin("tic")
def _tic(ctx, args, nargout):
    ctx.tic_time = time.perf_counter()
    return []


@builtin("toc")
def _toc(ctx, args, nargout):
    return [MArray.from_scalar(time.perf_counter() - ctx.tic_time)]
