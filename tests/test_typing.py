"""Unit tests for the type/shape inference engine."""

import math

from repro.analysis.pass_manager import run_cleanup_pipeline
from repro.frontend.parser import parse_program
from repro.ir.lower import lower_program
from repro.ssa.construct import base_name, construct_ssa
from repro.typing.infer import TypeEnvironment, infer_types
from repro.typing.intrinsic import Intrinsic
from repro.typing.ranges import Interval
from repro.typing.shape import ConstDim, FreshDims, Shape, ValueDim
from repro.typing.types import VarType


def infer(text, cleanup=True, **sources):
    files = {"main.m": text}
    for name, src in sources.items():
        files[f"{name}.m"] = src
    func = construct_ssa(lower_program(parse_program(files)))
    if cleanup:
        run_cleanup_pipeline(func)
    env = infer_types(func)
    return func, env


def type_of(func, env, base):
    """Type of the last SSA version of a base name."""
    versions = [
        r
        for i in func.instructions()
        for r in i.results
        if base_name(r) == base
    ]
    assert versions, f"no versions of {base}"
    return env.of(versions[-1])


class TestIntrinsics:
    def test_integer_literal(self):
        func, env = infer("x = 42; disp(x);", cleanup=False)
        assert type_of(func, env, "x").intrinsic is Intrinsic.INTEGER

    def test_real_literal(self):
        func, env = infer("x = 1.5; disp(x);", cleanup=False)
        assert type_of(func, env, "x").intrinsic is Intrinsic.REAL

    def test_imaginary_literal(self):
        func, env = infer("x = 3i; disp(x);", cleanup=False)
        assert type_of(func, env, "x").intrinsic is Intrinsic.COMPLEX

    def test_arithmetic_promotes(self):
        func, env = infer("x = 2 + 1.5; disp(x);", cleanup=False)
        assert type_of(func, env, "x").intrinsic is Intrinsic.REAL

    def test_comparison_is_boolean(self):
        func, env = infer("a = rand(2); x = a > 0.5; disp(x);")
        assert type_of(func, env, "x").intrinsic is Intrinsic.BOOLEAN

    def test_eye_is_boolean(self):
        # paper Example 2: MAGICA infers BOOLEAN for identity matrices
        func, env = infer("a = eye(3); disp(a);")
        assert type_of(func, env, "a").intrinsic is Intrinsic.BOOLEAN

    def test_sqrt_of_nonnegative_is_real(self):
        func, env = infer("a = rand(3); b = sqrt(a); disp(b);")
        assert type_of(func, env, "b").intrinsic is Intrinsic.REAL

    def test_sqrt_of_possibly_negative_is_complex(self):
        func, env = infer(
            "a = rand(3) - 0.5; b = sqrt(a); disp(b);"
        )
        assert type_of(func, env, "b").intrinsic is Intrinsic.COMPLEX

    def test_paper_example1_unknown_goes_complex(self):
        # t1 = t0 - 1.345 with t0 unknown infers COMPLEX (paper Ex. 1)
        func, env = infer(
            "t0 = mystery(); t1 = t0 - 1.345; t2 = 2.788 * t1;"
            " t3 = tan(t2); disp(t3);",
            mystery="function y = mystery()\ny = rand(1) * 4i;\n",
        )
        assert type_of(func, env, "t1").intrinsic is Intrinsic.COMPLEX
        assert type_of(func, env, "t3").intrinsic is Intrinsic.COMPLEX

    def test_abs_of_complex_is_real(self):
        func, env = infer("z = 3i; a = abs(z); disp(a);", cleanup=False)
        assert type_of(func, env, "a").intrinsic is Intrinsic.REAL

    def test_floor_is_integer(self):
        func, env = infer("a = rand(1); b = floor(a * 10); disp(b);")
        assert type_of(func, env, "b").intrinsic is Intrinsic.INTEGER


class TestEnvironmentLookup:
    def test_known_name_draws_no_fresh_dim(self):
        known = VarType(Intrinsic.REAL, Shape.scalar(), Interval.top())
        env = TypeEnvironment({"x": known})
        with FreshDims().active() as fresh:
            assert env.of("x") is known
            assert fresh().ident == 0

    def test_unknown_name_gets_fresh_dims(self):
        with FreshDims().active() as fresh:
            unknown = TypeEnvironment().of("y")
            assert not unknown.shape.exact
            assert fresh().ident == unknown.shape.rank


class TestStaticShapes:
    def test_constructor_with_constants(self):
        func, env = infer("a = zeros(3, 4); disp(a);")
        assert type_of(func, env, "a").shape == Shape.matrix(3, 4)

    def test_square_constructor(self):
        func, env = infer("a = rand(5); disp(a);")
        assert type_of(func, env, "a").shape == Shape.matrix(5, 5)

    def test_constant_propagation_feeds_shapes(self):
        func, env = infer("n = 10; a = zeros(n, n); disp(a);")
        assert type_of(func, env, "a").shape == Shape.matrix(10, 10)

    def test_elementwise_preserves_shape(self):
        func, env = infer("a = rand(3, 4); b = a + 1; disp(b);")
        assert type_of(func, env, "b").shape == Shape.matrix(3, 4)

    def test_scalar_array_op_takes_array_shape(self):
        func, env = infer("a = rand(2, 6); b = 2 * a; disp(b);")
        assert type_of(func, env, "b").shape == Shape.matrix(2, 6)

    def test_matrix_multiply_shape(self):
        func, env = infer(
            "a = rand(3, 4); b = rand(4, 5); c = a * b; disp(c);"
        )
        assert type_of(func, env, "c").shape == Shape.matrix(3, 5)

    def test_transpose_swaps(self):
        func, env = infer("a = rand(3, 4); b = a'; disp(b);")
        assert type_of(func, env, "b").shape == Shape.matrix(4, 3)

    def test_range_length(self):
        func, env = infer("v = 1:10; disp(v);")
        assert type_of(func, env, "v").shape == Shape.matrix(1, 10)

    def test_range_with_step(self):
        func, env = infer("v = 10:-2:1; disp(v);")
        assert type_of(func, env, "v").shape == Shape.matrix(1, 5)

    def test_scalar_subsref(self):
        func, env = infer("a = rand(4); c = a(2, 3); disp(c);")
        assert type_of(func, env, "c").shape.is_scalar

    def test_colon_subscript_extent(self):
        func, env = infer("a = rand(4, 7); c = a(:, 2); disp(c);")
        assert type_of(func, env, "c").shape == Shape.matrix(4, 1)

    def test_horzcat_adds_cols(self):
        func, env = infer(
            "a = rand(2, 3); b = rand(2, 4); c = [a, b]; disp(c);"
        )
        assert type_of(func, env, "c").shape == Shape.matrix(2, 7)

    def test_vertcat_adds_rows(self):
        func, env = infer("m = [1, 2; 3, 4]; disp(m);")
        assert type_of(func, env, "m").shape == Shape.matrix(2, 2)

    def test_3d_constructor(self):
        func, env = infer("a = zeros(2, 3, 4); disp(a);")
        shape = type_of(func, env, "a").shape
        assert shape.rank == 3
        assert shape == Shape((ConstDim(2), ConstDim(3), ConstDim(4)))


class TestSymbolicShapes:
    def test_symbolic_constructor_uses_valuedim(self):
        func, env = infer(
            "n = mystery(); a = zeros(n, n); disp(a);",
            mystery="function y = mystery()\ny = rand(1) * 100;\n",
        )
        shape = type_of(func, env, "a").shape
        assert not shape.is_static
        assert all(isinstance(d, ValueDim) for d in shape.dims)

    def test_elementwise_chain_shares_symbolic_shape(self):
        # the paper's Example 1: shapes of t1, t2, t3 all equal s(t0)
        func, env = infer(
            "t0 = mystery(); t1 = t0 - 1.345; t2 = 2.788 * t1;"
            " t3 = tan(t2); disp(t3);",
            mystery="function y = mystery()\nn = rand(1)*5;\ny = rand(n, n);\n",
        )
        s1 = type_of(func, env, "t1").shape
        s2 = type_of(func, env, "t2").shape
        s3 = type_of(func, env, "t3").shape
        assert s1 == s2 == s3

    def test_subsasgn_in_bounds_keeps_shape(self):
        func, env = infer("a = zeros(5); a(2, 2) = 1; disp(a);")
        assert type_of(func, env, "a").shape == Shape.matrix(5, 5)

    def test_subsasgn_growth_expands(self):
        func, env = infer("a = zeros(2); a(4, 4) = 1; disp(a);")
        shape = type_of(func, env, "a").shape
        # extent must cover index 4
        from repro.typing.shape import dim_le

        assert dim_le(ConstDim(4), shape.dims[0])

    def test_subsasgn_symbolic_growth_monotone(self):
        # paper Example 2: a = eye(x, y); b = subsasgn(a, ...)
        func, env = infer(
            "x = mystery(); y = mystery();\n"
            "a = eye(x, y); a(1, 2) = 1; disp(a);",
            mystery="function v = mystery()\nv = rand(1) * 9 + 1;\n",
        )
        shape = type_of(func, env, "a").shape
        assert shape.rank == 2

    def test_run_time_negative_extent_is_unknown(self):
        # every executor makes ones(n, 3) 0×3 for n = -1, -2, ...
        func, env = infer(
            "n = -floor(rand(1)) - 1; y = ones(n, 3); disp(y);"
        )
        first, second = type_of(func, env, "y").shape.dims
        assert not isinstance(first, (ConstDim, ValueDim))
        assert second == ConstDim(3)

    def test_nonnegative_run_time_extent_stays_symbolic(self):
        func, env = infer(
            "n = floor(rand(1) * 4) + 1; y = ones(n, 3); disp(y);"
        )
        first, second = type_of(func, env, "y").shape.dims
        assert isinstance(first, ValueDim)
        assert second == ConstDim(3)


class TestRanges:
    def test_literal_exact_range(self):
        func, env = infer("x = 7; disp(x);", cleanup=False)
        rng = type_of(func, env, "x").range
        assert rng.is_exact and rng.exact_value == 7

    def test_rand_range(self):
        func, env = infer("a = rand(3); disp(a);")
        rng = type_of(func, env, "a").range
        assert rng.lo == 0.0 and rng.hi == 1.0

    def test_randn_range_is_unbounded(self):
        # a negative draw makes the square root complex
        func, env = infer(
            "x = randn(1, 1); y = sqrt(x); z = [y y]; disp(z);"
        )
        assert type_of(func, env, "x").range == Interval.top()
        assert str(type_of(func, env, "y")) == "COMPLEX(1, 1)"
        assert str(type_of(func, env, "z")) == "COMPLEX(1, 2)"

    def test_loop_counter_widened(self):
        func, env = infer(
            "i = 0;\nwhile i < 100\n i = i + 1;\nend\ndisp(i);"
        )
        rng = type_of(func, env, "i").range
        assert rng.hi == math.inf or rng.hi >= 100

    def test_abs_range_nonnegative(self):
        func, env = infer("a = rand(1) - 0.5; b = abs(a); disp(b);")
        assert type_of(func, env, "b").range.is_nonnegative


class TestStorageSizes:
    def test_static_storage_real(self):
        func, env = infer("a = zeros(10, 10); disp(a);")
        assert type_of(func, env, "a").static_storage_size() == 800

    def test_static_storage_boolean(self):
        func, env = infer("a = eye(10); disp(a);")
        # BOOLEAN maps to C int (4 bytes)
        assert type_of(func, env, "a").static_storage_size() == 400

    def test_symbolic_storage_is_none(self):
        func, env = infer(
            "n = mystery(); a = zeros(n); disp(a);",
            mystery="function y = mystery()\ny = rand(1) * 50;\n",
        )
        assert type_of(func, env, "a").static_storage_size() is None

    def test_phi_of_two_static_shapes(self):
        # §3.2.1 case 2: max(S(v), S(w)) for a join of static sizes
        func, env = infer(
            "q = rand(1);\n"
            "if q > 0.5\n a = zeros(4, 4);\nelse\n a = zeros(2, 8);\nend\n"
            "disp(a);"
        )
        t = type_of(func, env, "a")
        assert t.shape.is_static
        assert t.static_storage_size() == 4 * 8 * 8  # max(4x4, 2x8)=32 elems


class TestShapeFolding:
    def test_size_folds_to_const(self):
        from repro.typing.shapefold import fold_shape_queries

        func, env = infer("a = zeros(6, 2); n = size(a, 1); disp(n);")
        folded = fold_shape_queries(func, env)
        assert folded >= 1

    def test_numel_folds(self):
        from repro.typing.shapefold import fold_shape_queries

        func, env = infer("a = ones(3, 3); n = numel(a); disp(n);")
        assert fold_shape_queries(func, env) >= 1

    def test_symbolic_size_not_folded(self):
        from repro.typing.shapefold import fold_shape_queries

        func, env = infer(
            "m = mystery(); a = zeros(m, m); n = size(a, 1); disp(n);",
            mystery="function y = mystery()\ny = rand(1) * 50;\n",
        )
        size_calls = [
            i for i in func.instructions() if i.op == "call:size"
        ]
        fold_shape_queries(func, env)
        still_calls = [
            i for i in func.instructions() if i.op == "call:size"
        ]
        assert len(still_calls) == len(size_calls)
