"""MATLAB array values.

An :class:`MArray` is a column-major (Fortran-order) numpy array plus a
MATLAB *class* tag (``double``/``logical``/``char``); MATLAB 6's data
model, which is all the benchmark suite needs.  Arrays are at least
2-D; scalars are 1×1.  Complex data is carried in a complex128 buffer,
real data in float64 — mirroring how the paper's C translation picks a
representation from the inferred intrinsic type.

The executors keep a rank-2 1×1 REAL value *unboxed*, as a Python
``float``, and a rank-2 1×1 logical as a ``bool`` (:func:`unbox`); a
runtime operation takes :class:`MArray` operands, so a value is boxed
again (:func:`box`) where it reaches one.  :func:`numel`,
:func:`byte_size` and :func:`is_true` read either representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.runtime.errors import MatlabRuntimeError

#: the dtype of REAL data; numpy keeps one instance per builtin dtype
REAL = np.dtype(np.float64)


@dataclass(slots=True)
class MArray:
    data: np.ndarray          # ≥2-D, Fortran order
    is_logical: bool = False
    is_char: bool = False

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_scalar(value: complex | float | int | bool) -> "MArray":
        if isinstance(value, bool):
            return MArray(np.array(float(value), ndmin=2), is_logical=True)
        value = complex(value)
        if value.imag == 0:
            return MArray(np.array(value.real, ndmin=2))
        return MArray(np.array(value, ndmin=2))

    @staticmethod
    def from_numpy(array: np.ndarray, is_logical: bool = False,
                   is_char: bool = False) -> "MArray":
        if (
            array.__class__ is np.ndarray
            and array.dtype is REAL
            and array.ndim >= 2
            and array.flags.f_contiguous
        ):
            return MArray(array, is_logical, is_char)  # already canonical
        array = np.atleast_2d(np.asarray(array))
        if array.dtype == bool:
            array = array.astype(float)
            is_logical = True
        elif array.dtype.kind in "iu":
            array = array.astype(float)
        if np.iscomplexobj(array) and np.all(array.imag == 0):
            array = array.real.copy(order="F")
        return MArray(
            np.asfortranarray(array), is_logical=is_logical, is_char=is_char
        )

    @staticmethod
    def from_string(text: str) -> "MArray":
        codes = np.array([[float(ord(c)) for c in text]])
        if not text:
            codes = np.zeros((0, 0))
        return MArray(np.asfortranarray(codes), is_char=True)

    @staticmethod
    def empty() -> "MArray":
        return MArray(np.asfortranarray(np.zeros((0, 0))))

    # -- queries ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def numel(self) -> int:
        return int(self.data.size)

    @property
    def is_scalar(self) -> bool:
        return self.data.size == 1

    @property
    def is_empty(self) -> bool:
        return self.data.size == 0

    @property
    def is_vector(self) -> bool:
        shape = self.data.shape
        return sum(1 for d in shape if d > 1) <= 1

    @property
    def is_complex(self) -> bool:
        return self.data.dtype.kind == "c"

    def scalar(self) -> complex:
        if not self.is_scalar:
            raise MatlabRuntimeError(
                f"expected a scalar, got shape {self.shape}"
            )
        return complex(self.data.flat[0])

    def scalar_real(self) -> float:
        value = self.scalar()
        return value.real

    def scalar_int(self) -> int:
        return int(self.scalar_real())

    def is_true(self) -> bool:
        """MATLAB truthiness: nonempty and all elements nonzero."""
        if self.data.size == 1:
            return self.data.item() != 0
        if self.is_empty:
            return False
        return bool(np.all(self.data != 0))

    def flat(self) -> np.ndarray:
        """Elements in column-major order."""
        return self.data.flatten(order="F")

    def byte_size(self) -> int:
        """Payload bytes under the C translation's representation."""
        size = self.data.size
        if self.is_logical:
            return size * 4
        if self.is_char:
            return size
        if self.is_complex:
            return size * 16
        return size * 8

    def as_string(self) -> str:
        return "".join(chr(int(c.real)) for c in self.flat())

    def __repr__(self) -> str:
        kind = (
            "char" if self.is_char else
            "logical" if self.is_logical else
            "complex" if self.is_complex else "double"
        )
        return f"MArray({kind}, {self.shape})"


def as_marray(value) -> MArray:
    if isinstance(value, MArray):
        return value
    if isinstance(value, str):
        return MArray.from_string(value)
    if isinstance(value, (int, float, complex, bool)):
        return MArray.from_scalar(value)
    if isinstance(value, np.ndarray):
        return MArray.from_numpy(value)
    raise MatlabRuntimeError(f"cannot convert {type(value)} to MArray")


# -- the unboxed representation ------------------------------------------

#: a value in an executor's environment: unboxed (see :func:`unbox`) or
#: an :class:`MArray`
Value = float | bool | MArray


def unbox(value):
    """A rank-2 1×1 REAL array as a Python float, a rank-2 1×1 logical
    (0 or 1) as a bool; any other value unchanged."""
    if value.__class__ is MArray:
        data = value.data
        if (
            data.size == 1
            and data.ndim == 2
            and data.dtype is REAL
            and not value.is_char
        ):
            x = data.item()
            if not value.is_logical:
                return x
            if x == 1.0:
                return True
            if x == 0.0 and math.copysign(1.0, x) == 1.0:
                return False
    return value


def box(value):
    """The :class:`MArray` of an unboxed value: what the ops of
    :mod:`repro.runtime.ops` build for a 1×1 result; any other value
    unchanged."""
    cls = value.__class__
    if cls is float:
        return MArray(np.array(value, ndmin=2))
    if cls is bool:
        return MArray(np.array(float(value), ndmin=2), is_logical=True)
    return value


def boxed_call(fn, args):
    """``fn`` on the boxed ``args``, its result unboxed: a runtime
    operation applied to unboxed values."""
    return unbox(fn(*[box(a) for a in args]))


def numel(value) -> int:
    """Element count of a boxed or unboxed value."""
    if value.__class__ is MArray:
        return value.data.size
    return 1


def byte_size(value) -> int:
    """:meth:`MArray.byte_size` of a boxed or unboxed value."""
    cls = value.__class__
    if cls is float:
        return 8
    if cls is bool:
        return 4
    return value.byte_size()


def is_true(value) -> bool:
    """:meth:`MArray.is_true` of a boxed or unboxed value."""
    if value.__class__ is MArray:
        return value.is_true()
    return value != 0
