"""Focused tests for the inference details added for the reproduction:
forindex bounds, symbolic upper bounds (sym_hi), square nonnegativity,
reduction exactness, widening stability, and shape-fold interplay."""

import importlib.util
import math
from pathlib import Path

import pytest

from repro.analysis.pass_manager import run_cleanup_pipeline
from repro.bench.suite import BENCHMARK_NAMES, compile_benchmark
from repro.compiler.pipeline import compile_program
from repro.frontend.parser import parse_program
from repro.ir.lower import lower_program
from repro.ssa.construct import base_name, construct_ssa
from repro.typing.infer import TypeInference, infer_types
from repro.typing.intrinsic import Intrinsic
from repro.typing.shape import ConstDim, FreshDims, Shape


def infer(text, **sources):
    files = {"main.m": text}
    for name, src in sources.items():
        files[f"{name}.m"] = src
    func = construct_ssa(lower_program(parse_program(files)))
    run_cleanup_pipeline(func)
    env = infer_types(func)
    return func, env


def type_of(func, env, base):
    versions = [
        r for i in func.instructions() for r in i.results
        if base_name(r) == base
    ]
    assert versions, base
    return env.of(versions[-1])


class TestForindexBounds:
    def test_constant_loop_bounds(self):
        func, env = infer(
            "s = 0;\nfor k = 1:10\n s = s + k;\nend\ndisp(s);"
        )
        k = type_of(func, env, "k")
        assert k.range.lo >= 1 and k.range.hi <= 10
        assert k.range.integral

    def test_bounds_enable_inbounds_subsasgn(self):
        func, env = infer(
            "a = zeros(10, 10);\n"
            "for k = 1:10\n a(k, k) = 1;\nend\ndisp(sum(sum(a)));"
        )
        assert type_of(func, env, "a").shape == Shape.matrix(10, 10)

    def test_symbolic_upper_bound(self):
        func, env = infer(
            "n = mystery();\n"
            "a = zeros(n, 1);\n"
            "for k = 1:n\n a(k, 1) = k;\nend\ndisp(sum(a));",
            mystery="function y = mystery()\ny = floor(rand(1)*9) + 2;\n",
        )
        shape = type_of(func, env, "a").shape
        # the loop writes must not expand the symbolic extent
        from repro.typing.shape import ValueDim

        assert isinstance(shape.dims[0], ValueDim)

    def test_descending_loop_no_sym_hi(self):
        func, env = infer(
            "s = 0;\nfor k = 10:-1:1\n s = s + k;\nend\ndisp(s);"
        )
        k = type_of(func, env, "k")
        assert k.range.lo >= 1 and k.range.hi <= 10


class TestRangeRefinements:
    def test_square_nonnegative(self):
        func, env = infer(
            "x = rand(1) - 0.5; y = x * x; disp(y);"
        )
        assert type_of(func, env, "y").range.lo >= 0

    def test_sqrt_of_square_plus_const_real(self):
        func, env = infer(
            "x = rand(1) - 0.5; r = sqrt(x * x + 0.1); disp(r);"
        )
        assert type_of(func, env, "r").intrinsic is Intrinsic.REAL

    def test_mod_of_nonneg_bounded(self):
        func, env = infer(
            "s = 0;\nfor k = 1:20\n m = mod(k, 5); s = s + m;\nend\n"
            "disp(s);"
        )
        m = type_of(func, env, "m")
        assert m.range.lo >= 0 and m.range.hi <= 4

    def test_mod_feeds_inbounds_subscript(self):
        func, env = infer(
            "a = zeros(6, 6);\n"
            "for k = 1:12\n a(mod(k, 6) + 1, 1) = k;\nend\n"
            "disp(sum(sum(a)));"
        )
        assert type_of(func, env, "a").shape == Shape.matrix(6, 6)


class TestReductionShapes:
    def test_matrix_sum_exact_row(self):
        func, env = infer("a = rand(4, 7); s = sum(a); disp(s);")
        assert type_of(func, env, "s").shape == Shape.matrix(1, 7)

    def test_double_sum_scalar(self):
        func, env = infer("a = rand(4, 7); s = sum(sum(a)); disp(s);")
        assert type_of(func, env, "s").shape.is_scalar

    def test_vector_sum_scalar(self):
        func, env = infer("v = 1:10; s = sum(v); disp(s);")
        assert type_of(func, env, "s").shape.is_scalar


class TestNonIntegerRanges:
    def test_fractional_step_length(self):
        func, env = infer("x = -2:0.5:2; disp(sum(x));")
        assert type_of(func, env, "x").shape == Shape.matrix(1, 9)

    def test_fractional_range_is_real(self):
        func, env = infer("x = 0:0.1:1; disp(sum(x));")
        assert type_of(func, env, "x").intrinsic is Intrinsic.REAL


class TestWideningStability:
    def test_growing_array_converges(self):
        # append in a loop: inference must terminate with a sound bound
        func, env = infer(
            "v = zeros(1, 1);\n"
            "k = 1;\n"
            "while k < 50\n k = k + 1; v(k) = k;\nend\n"
            "disp(sum(v));"
        )
        v = type_of(func, env, "v")
        assert v.shape.rank == 2  # didn't blow up

    def test_fresh_dims_stable_across_passes(self):
        # shapes built from unknowable data must not accumulate
        # ever-growing max() terms (regression test for the fixpoint)
        func, env = infer(
            "n = mystery(); a = zeros(n, n);\n"
            "for k = 1:3\n a = a + 1;\nend\ndisp(sum(sum(a)));",
            mystery="function y = mystery()\ny = floor(rand(1)*9) + 2;\n",
        )
        a = type_of(func, env, "a")
        assert len(str(a.shape)) < 300, "symbolic shape blew up"


class TestShapeFoldInterplay:
    def test_size_of_constructed_feeds_second_constructor(self):
        func, env = infer(
            "a = zeros(6, 4);\n"
            "n = size(a, 1);\n"
            "b = zeros(n, n);\n"
            "disp(sum(sum(b)) + sum(sum(a)));"
        )
        assert type_of(func, env, "b").shape == Shape.matrix(6, 6)

    def test_numel_chain(self):
        func, env = infer(
            "a = ones(3, 5);\n"
            "b = zeros(1, numel(a));\n"
            "disp(sum(b));"
        )
        assert type_of(func, env, "b").shape == Shape.matrix(1, 15)


def _genprog():
    path = Path(__file__).parents[1] / "perfbench" / "genprog.py"
    spec = importlib.util.spec_from_file_location("genprog", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATED = [(seed, size) for seed in (1, 2, 3) for size in (100, 200, 400, 800)]


class TestSparseFixpoint:
    """The engine skips transfers whose reads did not change; a dense
    round-robin pass over its result must then change nothing."""

    @staticmethod
    def assert_fixpoint(func):
        fresh = FreshDims()
        engine = TypeInference(func, fresh)
        env = engine.run()
        settled = dict(env.types)
        with fresh.active():
            for index, instr in enumerate(engine._instrs):
                assert not engine._transfer(index, instr), instr
        assert env.types == settled

    def test_extent_variable_is_a_read(self):
        # b(1, 2) is in bounds while n#3 >= 2: true for three passes,
        # after which n's lower bound falls below 2 with b#1's type
        # unchanged.  Only the lookup of n#3's range behind the extent
        # ⌊n#3⌋ makes the store's transfer run again and grow b.  (n
        # stays nonnegative: an extent that may be negative is unknown.)
        func, env = infer(
            "n = floor(rand(1) * 4) + 5;\n"
            "for k = 1:10\n n = abs(n - 1);\n b = zeros(1, n);\n"
            " b(1, 2) = 1;\n disp(b);\nend\n"
        )
        b = type_of(func, env, "b")
        assert not b.shape.exact
        assert str(b.shape) == "~(1, max(2, ⌊n#3⌋))"
        self.assert_fixpoint(func)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_suite(self, name):
        self.assert_fixpoint(compile_benchmark(name).ssa_func)

    @pytest.mark.parametrize("seed, size", GENERATED)
    def test_generated(self, seed, size):
        sources, entry = _genprog().program_sources(seed, size)
        self.assert_fixpoint(compile_program(sources, entry).ssa_func)
