"""R-indexing (``subsref``) and L-indexing (``subsasgn``) semantics.

Implements the paper's §2.3.2–2.3.3 description: subscripts may be
arbitrary arrays; element sets are Cartesian products of the subscript
values; out-of-range L-indexing *expands* the array, zero-filling fresh
locations.  The shrinkage form ``a(i) = []`` is unsupported, exactly as
in the paper's translator.

``COLON`` is the marker object for a ``:`` subscript.
"""

from __future__ import annotations

import math

import numpy as np

from repro.runtime.errors import IndexError_, MatlabRuntimeError
from repro.runtime.marray import REAL, MArray, box, unbox

COLON = ":"


def _index_of(value: float) -> int:
    """A subscript value as a 0-based index (no range check here)."""
    if value < 1 or value % 1 != 0:
        raise IndexError_(
            "subscripts must be positive integers or logicals"
        )
    return int(value) - 1


def _checked_index(value: float, extent: int, k: int) -> int:
    """A subscript value as a 0-based index into dimension ``k`` of
    extent ``extent``."""
    i = _index_of(value)
    if i >= extent:
        raise _beyond_extent(i, extent, k)
    return i


def _beyond_extent(i: int, extent: int, k: int) -> IndexError_:
    return IndexError_(
        f"index {i + 1} exceeds extent {extent} in dimension {k + 1}"
    )


def _index_vector(sub, extent: int) -> np.ndarray:
    """A subscript as 0-based indices (no range check here)."""
    if sub is COLON:
        return np.arange(extent)
    assert isinstance(sub, MArray)
    if sub.is_logical:
        flat = sub.flat()
        return np.nonzero(flat != 0)[0]
    values = sub.flat().real
    with np.errstate(invalid="ignore"):  # inf % 1 is nan: not integral
        if values.size and (np.any(values < 1) or np.any(values % 1 != 0)):
            raise IndexError_(
                "subscripts must be positive integers or logicals"
            )
    return values.astype(int) - 1


def subsref(a: MArray, subs: list) -> MArray:
    """``a(s1, …, sm)``."""
    if not subs:
        return a
    if len(subs) == 1:
        return _subsref_linear(a, subs[0])
    return _subsref_nd(a, subs)


def subsref_unboxed(a, subs: list):
    """:func:`subsref` on unboxed operands, with an unboxed result.

    One or two float subscripts into a 2-D array of REAL, char or
    logical data read the element directly, with :func:`_subsref_linear`'s
    and :func:`_subsref_nd`'s checks and errors in their order; anything
    else is boxed.
    """
    if a.__class__ is MArray:
        data = a.data
        if data.ndim == 2 and data.dtype is REAL:
            if len(subs) == 2:
                s0, s1 = subs
                if s0.__class__ is float and s1.__class__ is float:
                    rows, cols = data.shape
                    x = data.item(
                        _checked_index(s0, rows, 0),
                        _checked_index(s1, cols, 1),
                    )
                    return _unboxed_element(a, x)
            elif len(subs) == 1 and subs[0].__class__ is float:
                i = _index_of(subs[0])
                if i >= data.size:
                    raise _beyond_numel(i, data.size)
                rows = data.shape[0]
                return _unboxed_element(a, data.item(i % rows, i // rows))
    return unbox(subsref(box(a), [box(sub) for sub in subs]))


def _unboxed_element(a: MArray, x: float):
    """The element ``x`` read from ``a``, unboxed: a char element, or a
    logical one that does not unbox, stays a 1×1 array of ``a``'s class."""
    if a.is_logical or a.is_char:
        return unbox(MArray(np.array(x, ndmin=2), a.is_logical, a.is_char))
    return x


def _beyond_numel(i: int, numel: int) -> IndexError_:
    return IndexError_(f"index {i + 1} exceeds array numel {numel}")


def _subsref_linear(a: MArray, sub) -> MArray:
    flat = a.flat()
    idx = _index_vector(sub, a.numel)
    if idx.size and idx.max() >= a.numel:
        raise _beyond_numel(idx.max(), a.numel)
    picked = flat[idx]
    if sub is COLON:
        result = picked.reshape(-1, 1)  # a(:) is a column vector
    elif isinstance(sub, MArray) and sub.is_logical:
        result = picked.reshape(-1, 1) if a.shape[0] > 1 else picked.reshape(1, -1)
    elif a.is_vector and not a.is_scalar:
        # vector source: result takes the source's orientation
        if a.shape[0] > 1:
            result = picked.reshape(-1, 1)
        else:
            result = picked.reshape(1, -1)
    else:
        # result has the subscript's shape
        result = picked.reshape(sub.shape, order="F")
    return MArray.from_numpy(
        result, is_logical=a.is_logical, is_char=a.is_char
    )


def _subsref_nd(a: MArray, subs: list) -> MArray:
    data = a.data
    m = len(subs)
    shape = _padded_shape(data.shape, m)
    data = data.reshape(shape, order="F")
    index_vectors = []
    for k, sub in enumerate(subs):
        iv = _index_vector(sub, shape[k])
        if iv.size and iv.max() >= shape[k]:
            raise _beyond_extent(iv.max(), shape[k], k)
        index_vectors.append(iv)
    result = data[np.ix_(*index_vectors)]
    if result.ndim < 2:
        result = np.atleast_2d(result)
    return MArray.from_numpy(
        result, is_logical=a.is_logical, is_char=a.is_char
    )


def _padded_shape(shape: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Reshape rule: using m subscripts on an n-D array folds trailing
    dimensions into the m-th and pads missing ones with 1."""
    if m == len(shape):
        return shape
    if m > len(shape):
        return shape + (1,) * (m - len(shape))
    head = shape[: m - 1]
    tail = int(np.prod(shape[m - 1 :]))
    return head + (tail,)


def subsasgn(a: MArray, rhs: MArray, subs: list) -> MArray:
    """``a(s1, …, sm) = rhs`` with zero-filled expansion."""
    if isinstance(rhs, MArray) and rhs.is_empty and not rhs.is_char:
        raise MatlabRuntimeError(
            "deletion via a(i) = [] (shrinkage) is not supported"
        )
    if len(subs) == 1:
        return _subsasgn_linear(a, rhs, subs[0])
    return _subsasgn_nd(a, rhs, subs)


def subsasgn_unboxed(a, rhs, subs: list):
    """:func:`subsasgn` on unboxed operands, with an unboxed result.

    A float stored at one or two float subscripts inside a 2-D REAL
    array copies the array and writes the element, after
    :func:`_subsasgn_linear`'s and :func:`_subsasgn_nd`'s checks in
    their order; anything else (an expansion too) is boxed.
    """
    if (
        rhs.__class__ is float
        and a.__class__ is MArray
        and not (a.is_logical or a.is_char)
    ):
        data = a.data
        if data.ndim == 2 and data.dtype is REAL:
            rows, cols = data.shape
            point = None
            if len(subs) == 2:
                s0, s1 = subs
                if s0.__class__ is float and s1.__class__ is float:
                    i, j = _index_of(s0), _index_of(s1)
                    if i < rows and j < cols:
                        point = i, j
            elif len(subs) == 1 and subs[0].__class__ is float:
                i = _index_of(subs[0])
                if i < data.size:
                    point = i % rows, i // rows
            if point is not None:
                data = data.copy(order="F")
                data[point] = rhs
                return unbox(MArray(data))
    return unbox(subsasgn(box(a), box(rhs), [box(sub) for sub in subs]))


def _result_flags(a: MArray, rhs: MArray) -> dict:
    return {
        "is_logical": a.is_logical and rhs.is_logical,
        "is_char": a.is_char and rhs.is_char,
    }


def _subsasgn_linear(a: MArray, rhs: MArray, sub) -> MArray:
    idx = _index_vector(sub, a.numel)
    if idx.size == 0:
        return a
    needed = int(idx.max()) + 1
    flat = a.flat()
    shape = a.shape
    if needed > a.numel:
        if a.is_empty:
            shape = (1, needed)
        elif a.is_vector:
            shape = (
                (needed, 1) if a.shape[0] > 1 else (1, needed)
            )
        else:
            raise IndexError_(
                "linear index out of range for a non-vector array"
            )
        grown = np.zeros(needed, dtype=flat.dtype)
        grown[: flat.size] = flat
        flat = grown
    if rhs.is_scalar:
        values = np.full(idx.size, rhs.scalar() if rhs.is_complex
                         else rhs.scalar_real())
    else:
        if rhs.numel != idx.size:
            raise MatlabRuntimeError(
                "subscripted assignment dimension mismatch"
            )
        values = rhs.flat()
    if np.iscomplexobj(values) and not np.iscomplexobj(flat):
        flat = flat.astype(complex)
    flat[idx] = values
    result = flat.reshape(shape, order="F")
    return MArray.from_numpy(result, **_result_flags(a, rhs))


def _subsasgn_nd(a: MArray, rhs: MArray, subs: list) -> MArray:
    m = len(subs)
    old_shape = _padded_shape(a.shape, m)
    index_vectors = []
    new_shape = list(old_shape)
    for k, sub in enumerate(subs):
        iv = _index_vector(sub, old_shape[k])
        index_vectors.append(iv)
        if iv.size:
            new_shape[k] = max(new_shape[k], int(iv.max()) + 1)
    target = np.ix_(*index_vectors)
    expected = tuple(iv.size for iv in index_vectors)
    dtype = complex if (a.is_complex or rhs.is_complex) else float
    if tuple(new_shape) != old_shape or dtype != a.data.dtype:
        expanded = np.zeros(tuple(new_shape), dtype=dtype, order="F")
        if a.numel:
            expanded[tuple(slice(0, e) for e in old_shape)] = (
                a.data.reshape(old_shape, order="F")
            )
        data = expanded
    else:
        data = a.data.reshape(old_shape, order="F").copy(order="F")
    if rhs.is_scalar:
        data[target] = (
            rhs.scalar() if rhs.is_complex else rhs.scalar_real()
        )
    else:
        if rhs.numel != math.prod(expected):
            raise MatlabRuntimeError(
                "subscripted assignment dimension mismatch "
                f"(need {expected}, rhs has {rhs.numel} elements)"
            )
        data[target] = rhs.flat().reshape(expected, order="F")
    return MArray.from_numpy(data, **_result_flags(a, rhs))
