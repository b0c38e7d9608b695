"""Unit tests for the MATLAB runtime: arrays, ops, indexing, builtins."""

import numpy as np
import pytest

from repro.runtime import ops
from repro.runtime.builtins import RuntimeContext, call_builtin
from repro.runtime.errors import (
    IndexError_,
    MatlabRuntimeError,
    ShapeConformanceError,
)
from repro.runtime.indexing import COLON, subsasgn, subsref
from repro.runtime.marray import MArray


def arr(values, **kw):
    return MArray.from_numpy(np.array(values, dtype=float), **kw)


def scalar(v):
    return MArray.from_scalar(v)


class TestMArray:
    def test_scalar_is_1x1(self):
        a = scalar(3.5)
        assert a.shape == (1, 1)
        assert a.is_scalar

    def test_column_major_layout(self):
        a = arr([[1, 2], [3, 4]])
        assert list(a.flat()) == [1, 3, 2, 4]

    def test_truthiness_all_nonzero(self):
        assert arr([[1, 2]]).is_true()
        assert not arr([[1, 0]]).is_true()
        assert not MArray.empty().is_true()

    def test_string_roundtrip(self):
        s = MArray.from_string("hello")
        assert s.is_char
        assert s.as_string() == "hello"
        assert s.shape == (1, 5)

    def test_byte_size_by_class(self):
        assert scalar(1.0).byte_size() == 8
        assert MArray.from_scalar(True).byte_size() == 4  # logical → int
        assert MArray.from_scalar(1j).byte_size() == 16
        assert MArray.from_string("ab").byte_size() == 2

    def test_complex_collapses_when_imag_zero(self):
        a = MArray.from_numpy(np.array([[1 + 0j, 2 + 0j]]))
        assert not a.is_complex


class TestElementwiseOps:
    def test_add_equal_shapes(self):
        c = ops.add(arr([[1, 2]]), arr([[10, 20]]))
        assert list(c.flat()) == [11, 22]

    def test_add_scalar_broadcast(self):
        c = ops.add(arr([[1, 2], [3, 4]]), scalar(10))
        assert c.data[1, 1] == 14

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ShapeConformanceError):
            ops.add(arr([[1, 2]]), arr([[1, 2, 3]]))

    def test_elmul(self):
        c = ops.elmul(arr([[2, 3]]), arr([[4, 5]]))
        assert list(c.flat()) == [8, 15]

    def test_eldiv_by_zero_inf(self):
        c = ops.eldiv(scalar(1.0), scalar(0.0))
        assert np.isinf(c.scalar_real())

    def test_elpow_negative_base_fractional(self):
        c = ops.elpow(scalar(-8.0), scalar(1 / 3))
        assert c.is_complex

    def test_comparison_logical(self):
        c = ops.lt(arr([[1, 5]]), scalar(3))
        assert c.is_logical
        assert list(c.flat()) == [1, 0]

    def test_neg(self):
        assert ops.neg(scalar(2)).scalar_real() == -2

    def test_not(self):
        c = ops.not_(arr([[0, 7]]))
        assert list(c.flat()) == [1, 0]


class TestMatrixOps:
    def test_matrix_multiply(self):
        a = arr([[1, 2], [3, 4]])
        b = arr([[5, 6], [7, 8]])
        c = ops.mul(a, b)
        assert c.data[0, 0] == 19

    def test_matmul_conformance(self):
        with pytest.raises(ShapeConformanceError):
            ops.mul(arr([[1, 2]]), arr([[1, 2]]))

    def test_scalar_times_matrix_elementwise(self):
        c = ops.mul(scalar(2), arr([[1, 2], [3, 4]]))
        assert c.data[1, 0] == 6

    def test_left_divide_solves(self):
        a = arr([[2, 0], [0, 4]])
        b = arr([[2], [8]])
        x = ops.ldiv(a, b)
        assert np.allclose(x.flat(), [1, 2])

    def test_right_divide(self):
        # x * a = b  ⇒  x = b / a
        a = arr([[2, 0], [0, 4]])
        b = arr([[2, 8]])
        x = ops.div(b, a)
        assert np.allclose(x.flat(), [1, 2])

    def test_matrix_power(self):
        a = arr([[2, 0], [0, 3]])
        c = ops.pow_(a, scalar(2))
        assert c.data[1, 1] == 9

    def test_transpose_conjugates(self):
        a = MArray.from_numpy(np.array([[1 + 2j]]))
        t = ops.transpose(a, conjugate=True)
        assert t.scalar() == 1 - 2j
        t2 = ops.transpose(a, conjugate=False)
        assert t2.scalar() == 1 + 2j


class TestRangesAndConcat:
    def test_simple_range(self):
        r = ops.make_range(scalar(1), scalar(1), scalar(5))
        assert r.shape == (1, 5)
        assert list(r.flat()) == [1, 2, 3, 4, 5]

    def test_negative_step(self):
        r = ops.make_range(scalar(4), scalar(-1), scalar(1))
        assert list(r.flat()) == [4, 3, 2, 1]

    def test_empty_range(self):
        r = ops.make_range(scalar(5), scalar(1), scalar(1))
        assert r.is_empty

    def test_fractional_step(self):
        r = ops.make_range(scalar(0), scalar(0.5), scalar(2))
        assert r.numel == 5

    def test_horzcat(self):
        c = ops.horzcat([arr([[1], [2]]), arr([[3], [4]])])
        assert c.shape == (2, 2)

    def test_vertcat_mismatch_raises(self):
        with pytest.raises(ShapeConformanceError):
            ops.vertcat([arr([[1, 2]]), arr([[1, 2, 3]])])


class TestSubsref:
    def test_linear_index_column_major(self):
        a = arr([[1, 2], [3, 4]])
        assert subsref(a, [scalar(2)]).scalar_real() == 3

    def test_two_subscripts(self):
        a = arr([[1, 2], [3, 4]])
        assert subsref(a, [scalar(1), scalar(2)]).scalar_real() == 2

    def test_colon_row(self):
        a = arr([[1, 2], [3, 4]])
        row = subsref(a, [scalar(2), COLON])
        assert row.shape == (1, 2)
        assert list(row.flat()) == [3, 4]

    def test_colon_linear_column(self):
        a = arr([[1, 2], [3, 4]])
        col = subsref(a, [COLON])
        assert col.shape == (4, 1)

    def test_vector_gather_keeps_orientation(self):
        v = arr([[10, 20, 30, 40]])
        picked = subsref(v, [arr([[4, 1]])])
        assert picked.shape == (1, 2)
        assert list(picked.flat()) == [40, 10]

    def test_permutation_reverse(self):
        # the paper's 4:-1:1 example
        a = arr([[1, 3], [2, 4]])  # column-major order 1,2,3,4
        rev = subsref(a, [ops.make_range(scalar(4), scalar(-1), scalar(1))])
        assert list(rev.flat()) == [4, 3, 2, 1]

    def test_submatrix(self):
        a = arr([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        sub = subsref(a, [arr([[1, 3]]), arr([[2, 3]])])
        assert sub.shape == (2, 2)
        assert sub.data[1, 0] == 8

    def test_logical_subscript(self):
        v = arr([[5, 6, 7]])
        mask = MArray.from_numpy(np.array([[1, 0, 1]]), is_logical=True)
        picked = subsref(v, [mask])
        assert list(picked.flat()) == [5, 7]

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError_):
            subsref(arr([[1, 2]]), [scalar(5)])

    def test_zero_index_raises(self):
        with pytest.raises(IndexError_):
            subsref(arr([[1, 2]]), [scalar(0)])


class TestSubsasgn:
    def test_simple_element_write(self):
        a = arr([[1, 2], [3, 4]])
        b = subsasgn(a, scalar(9), [scalar(2), scalar(1)])
        assert b.data[1, 0] == 9
        assert a.data[1, 0] == 3  # value semantics: a unchanged

    def test_expansion_zero_fills(self):
        a = arr([[1]])
        b = subsasgn(a, scalar(5), [scalar(3), scalar(3)])
        assert b.shape == (3, 3)
        assert b.data[2, 2] == 5
        assert b.data[1, 1] == 0

    def test_linear_growth_on_vector(self):
        v = arr([[1, 2]])
        grown = subsasgn(v, scalar(9), [scalar(5)])
        assert grown.shape == (1, 5)
        assert grown.data[0, 4] == 9

    def test_linear_growth_on_matrix_raises(self):
        a = arr([[1, 2], [3, 4]])
        with pytest.raises(IndexError_):
            subsasgn(a, scalar(9), [scalar(10)])

    def test_cartesian_product_assignment(self):
        a = MArray.from_numpy(np.zeros((3, 3)))
        rhs = arr([[1, 2], [3, 4]])
        b = subsasgn(a, rhs, [arr([[1, 3]]), arr([[1, 3]])])
        assert b.data[0, 0] == 1
        assert b.data[2, 2] == 4
        assert b.data[1, 1] == 0

    def test_rhs_shape_mismatch_raises(self):
        a = MArray.from_numpy(np.zeros((3, 3)))
        with pytest.raises(MatlabRuntimeError):
            subsasgn(a, arr([[1, 2, 3]]), [arr([[1, 2]]), scalar(1)])

    def test_scalar_fill(self):
        a = MArray.from_numpy(np.zeros((2, 2)))
        b = subsasgn(a, scalar(7), [COLON, scalar(1)])
        assert list(b.data[:, 0]) == [7, 7]

    def test_shrinkage_unsupported(self):
        a = arr([[1, 2, 3]])
        with pytest.raises(MatlabRuntimeError, match="shrinkage"):
            subsasgn(a, MArray.empty(), [scalar(2)])

    def test_complex_rhs_promotes(self):
        a = arr([[1.0, 2.0]])
        b = subsasgn(a, MArray.from_scalar(1j), [scalar(1)])
        assert b.is_complex

    def test_colon_preserves_extent(self):
        a = MArray.from_numpy(np.zeros((2, 3)))
        b = subsasgn(a, arr([[1, 2, 3]]), [scalar(1), COLON])
        assert b.shape == (2, 3)


class TestBuiltins:
    def setup_method(self):
        self.ctx = RuntimeContext()

    def test_zeros_square(self):
        z = call_builtin(self.ctx, "zeros", [scalar(3)])[0]
        assert z.shape == (3, 3)
        assert not z.data.any()

    def test_eye_logical(self):
        e = call_builtin(self.ctx, "eye", [scalar(2)])[0]
        assert e.is_logical
        assert e.data[0, 0] == 1 and e.data[0, 1] == 0

    def test_rand_deterministic_by_seed(self):
        a = call_builtin(RuntimeContext(seed=42), "rand", [scalar(2)])[0]
        b = call_builtin(RuntimeContext(seed=42), "rand", [scalar(2)])[0]
        assert np.allclose(a.data, b.data)

    def test_size_multi_output(self):
        a = MArray.from_numpy(np.zeros((3, 4)))
        m, n = call_builtin(self.ctx, "size", [a], nargout=2)
        assert m.scalar_int() == 3 and n.scalar_int() == 4

    def test_size_vector_output(self):
        a = MArray.from_numpy(np.zeros((3, 4)))
        s = call_builtin(self.ctx, "size", [a])[0]
        assert list(s.flat()) == [3, 4]

    def test_sum_matrix_columns(self):
        a = arr([[1, 2], [3, 4]])
        s = call_builtin(self.ctx, "sum", [a])[0]
        assert list(s.flat()) == [4, 6]

    def test_sum_vector_scalar(self):
        s = call_builtin(self.ctx, "sum", [arr([[1, 2, 3]])])[0]
        assert s.scalar_real() == 6

    def test_min_two_args_elementwise(self):
        c = call_builtin(
            self.ctx, "min", [arr([[1, 5]]), arr([[3, 2]])]
        )[0]
        assert list(c.flat()) == [1, 2]

    def test_max_with_index(self):
        v, i = call_builtin(
            self.ctx, "max", [arr([[3, 9, 4]])], nargout=2
        )
        assert v.scalar_real() == 9
        assert i.scalar_int() == 2

    def test_abs_complex(self):
        c = call_builtin(self.ctx, "abs", [MArray.from_scalar(3 + 4j)])[0]
        assert c.scalar_real() == 5

    def test_sqrt_negative_goes_complex(self):
        c = call_builtin(self.ctx, "sqrt", [scalar(-4)])[0]
        assert c.is_complex

    def test_disp_output_captured(self):
        call_builtin(self.ctx, "disp", [scalar(42)])
        assert self.ctx.captured() == "42\n"

    def test_fprintf_formats(self):
        call_builtin(
            self.ctx,
            "fprintf",
            [MArray.from_string("x = %d, y = %.2f\\n"),
             scalar(3), scalar(1.5)],
        )
        assert self.ctx.captured() == "x = 3, y = 1.50\n"

    def test_error_raises(self):
        with pytest.raises(MatlabRuntimeError, match="boom"):
            call_builtin(self.ctx, "error", [MArray.from_string("boom")])

    def test_find_positions(self):
        f = call_builtin(self.ctx, "find", [arr([[0, 3, 0, 7]])])[0]
        assert list(f.flat()) == [2, 4]

    def test_sort_with_indices(self):
        v, i = call_builtin(
            self.ctx, "sort", [arr([[3, 1, 2]])], nargout=2
        )
        assert list(v.flat()) == [1, 2, 3]
        assert list(i.flat()) == [2, 3, 1]

    def test_norm_vector(self):
        n = call_builtin(self.ctx, "norm", [arr([[3, 4]])])[0]
        assert n.scalar_real() == 5

    def test_tic_toc(self):
        call_builtin(self.ctx, "tic", [])
        t = call_builtin(self.ctx, "toc", [])[0]
        assert t.scalar_real() >= 0


# -- the canonical-array fast path ---------------------------------------
#
# from_numpy passes an array that is already canonical (Fortran-order
# float64, at least 2-D) through untouched.  It must be indistinguishable
# from the general path it short-cuts: same values (bit for bit, NaN
# payloads included), dtype, shape, layout and flags.

from contextlib import contextmanager
from unittest import mock

from repro.runtime import marray


@contextmanager
def general_paths():
    """The runtime's fast path switched off."""
    with mock.patch.object(marray, "REAL", np.dtype("V8")):
        yield


def outcome(fn):
    """What a runtime call observably produces: its value's bytes,
    dtype, shape, layout and class flags."""
    value = fn()
    return (
        value.data.tobytes(),
        value.data.dtype,
        value.data.shape,
        value.data.flags.f_contiguous,
        value.is_logical,
        value.is_char,
    )


def same_as_general(fn):
    fast = outcome(fn)
    with general_paths():
        general = outcome(fn)
    assert fast == general


class TestScalarFastPaths:
    @pytest.mark.parametrize(
        "array",
        [
            np.array([[1.0, 2.0], [3.0, 4.0]]),           # C order
            np.array([[1.0, 2.0], [3.0, 4.0]], order="F"),
            np.array([[1, 2], [3, 4]]),                    # int
            np.array([[True, False]]),                     # bool
            np.array([[1 + 0j, 2 + 0j]]),                  # zero imag
            np.array([[1 + 1j]]),
            np.array([1.0, 2.0]),                          # 1-D
            np.ones((2, 2, 2), order="F"),
            np.ones((2, 2, 2)),
            np.array([[1.0, 2.0], [3.0, 4.0]]).T[:, :1],  # strided
        ],
    )
    @pytest.mark.parametrize("flags", [{}, {"is_logical": True},
                                       {"is_char": True}])
    def test_from_numpy(self, array, flags):
        same_as_general(lambda: MArray.from_numpy(array, **flags))

    @pytest.mark.parametrize("value", [0, 1.5, -0.0, 2j, 1 + 0j, True,
                                       False, float("nan")])
    def test_from_scalar_matches_np_full(self, value):
        got = MArray.from_scalar(value)
        kind = complex(value)
        fill = float(value) if isinstance(value, bool) else (
            kind.real if kind.imag == 0 else kind
        )
        want = np.asfortranarray(np.full((1, 1), fill))
        assert got.data.tobytes() == want.tobytes()
        assert got.data.dtype == want.dtype and got.shape == (1, 1)
        assert got.data.flags.f_contiguous
        assert got.is_logical == isinstance(value, bool)
