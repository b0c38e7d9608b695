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


def _scalar_index(sub) -> int | None:
    """A 1×1 numeric or float subscript as a 0-based index; None for
    ``:``, a logical or a non-scalar subscript (no range check here)."""
    if sub.__class__ is float:
        return _index_of(sub)
    if sub is COLON or sub.is_logical or sub.data.size != 1:
        return None
    return _index_of(sub.data.item().real)


def _scalar_point(subs: list, extents=None) -> tuple[int, ...] | None:
    """Every subscript as a 0-based index when all are scalars, else
    None.  With ``extents`` each index is range-checked in turn."""
    point = []
    for k, sub in enumerate(subs):
        i = _scalar_index(sub)
        if i is None:
            return None
        if extents is not None and i >= extents[k]:
            raise IndexError_(
                f"index {i + 1} exceeds extent {extents[k]} in "
                f"dimension {k + 1}"
            )
        point.append(i)
    return tuple(point)


def _index_vector(sub, extent: int) -> np.ndarray:
    """A subscript as 0-based indices (no range check here)."""
    if sub is COLON:
        return np.arange(extent)
    assert isinstance(sub, MArray)
    i = _scalar_index(sub)
    if i is not None:
        return np.array([i])
    if sub.is_logical:
        flat = sub.flat()
        return np.nonzero(flat != 0)[0]
    values = sub.flat().real
    if values.size and (np.any(values < 1) or np.any(values % 1 != 0)):
        raise IndexError_(
            "subscripts must be positive integers or logicals"
        )
    return values.astype(int) - 1


def _element(data: np.ndarray, offset: int, rank: int) -> np.ndarray:
    """The element at column-major ``offset`` as a (1,)*rank array."""
    # data.T in row-major order is data in column-major order
    return np.array(data.T.item(offset), ndmin=rank)


def subsref(a: MArray, subs: list) -> MArray:
    """``a(s1, …, sm)``."""
    if not subs:
        return a
    if len(subs) == 1:
        return _subsref_linear(a, subs[0])
    return _subsref_nd(a, subs)


def subsref_unboxed(a, subs: list):
    """:func:`subsref` on unboxed operands, with an unboxed result.

    One or two float subscripts into a 2-D REAL array read the element
    directly, with :func:`_subsref_linear`'s and :func:`_subsref_nd`'s
    checks and errors in their order; anything else is boxed.
    """
    if a.__class__ is MArray and not (a.is_logical or a.is_char):
        data = a.data
        if data.ndim == 2 and data.dtype is REAL:
            if len(subs) == 2:
                s0, s1 = subs
                if s0.__class__ is float and s1.__class__ is float:
                    return data.item(_scalar_point(subs, data.shape))
            elif len(subs) == 1 and subs[0].__class__ is float:
                i = _index_of(subs[0])
                if i >= data.size:
                    raise _beyond_numel(i, data.size)
                rows = data.shape[0]
                return data.item(i % rows, i // rows)
    return unbox(subsref(box(a), [box(sub) for sub in subs]))


def _beyond_numel(i: int, numel: int) -> IndexError_:
    return IndexError_(f"index {i + 1} exceeds array numel {numel}")


def _subsref_linear(a: MArray, sub) -> MArray:
    i = _scalar_index(sub)
    if i is not None:
        if i >= a.numel:
            raise _beyond_numel(i, a.numel)
        # one element: 1×1 from a vector, else the subscript's shape
        rank = 2 if a.is_vector and not a.is_scalar else sub.data.ndim
        return MArray.from_numpy(
            _element(a.data, i, rank),
            is_logical=a.is_logical, is_char=a.is_char,
        )
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
    point = _scalar_point(subs, shape)
    if point is not None:
        offset = 0
        for i, extent in zip(reversed(point), reversed(shape)):
            offset = offset * extent + i
        return MArray.from_numpy(
            _element(data, offset, m),
            is_logical=a.is_logical, is_char=a.is_char,
        )
    data = data.reshape(shape, order="F")
    index_vectors = []
    for k, sub in enumerate(subs):
        iv = _index_vector(sub, shape[k])
        if iv.size and iv.max() >= shape[k]:
            raise IndexError_(
                f"index {iv.max() + 1} exceeds extent {shape[k]} in "
                f"dimension {k + 1}"
            )
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

    A float stored at two float subscripts inside a 2-D REAL array
    copies the array and writes the element, after
    :func:`_subsasgn_nd`'s checks in their order; anything else (an
    expansion too) is boxed.
    """
    if (
        rhs.__class__ is float
        and a.__class__ is MArray
        and len(subs) == 2
        and not (a.is_logical or a.is_char)
    ):
        data = a.data
        s0, s1 = subs
        if (
            data.ndim == 2
            and data.dtype is REAL
            and s0.__class__ is float
            and s1.__class__ is float
        ):
            i, j = _index_of(s0), _index_of(s1)
            rows, cols = data.shape
            if i < rows and j < cols:
                data = data.copy(order="F")
                data[i, j] = rhs
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
    point = _scalar_point(subs)
    if point is not None:
        # every subscript a scalar: store one element, no np.ix_
        new_shape = [max(e, i + 1) for e, i in zip(old_shape, point)]
        target, expected = point, (1,) * m
    else:
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
