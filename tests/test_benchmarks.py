"""Benchmark-suite tests: compilation, differential execution, and the
paper's qualitative per-benchmark characteristics."""

import pytest

from repro.bench.suite import (
    BENCHMARK_NAMES,
    SUITE,
    compile_benchmark,
    count_lines,
    load_sources,
)
from repro.bench.experiments import collect
from repro.core.allocation import StorageClass

#: benchmarks the paper reports as fully static (`d = 0` in Table 2)
FULLY_STATIC = ("clos", "crni", "dich", "fdtd", "fiff")

#: benchmarks with mostly-symbolic shapes (large `d` in Table 2)
MOSTLY_DYNAMIC = ("adpt", "capr", "edit", "nb1d", "nb3d")

_COMPILED = {}


def compiled(name):
    if name not in _COMPILED:
        _COMPILED[name] = compile_benchmark(name)
    return _COMPILED[name]


class TestSuiteStructure:
    def test_all_eleven_present(self):
        assert len(BENCHMARK_NAMES) == 11

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_sources_load(self, name):
        sources = load_sources(name)
        assert f"{name}_drv.m" in sources
        assert count_lines(sources) > 10

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_compiles(self, name):
        result = compiled(name)
        result.exec_func.verify()
        assert result.report.original_variable_count > 0

    def test_three_dimensional_benchmarks(self):
        for name in ("fdtd", "nb3d"):
            assert SUITE[name].three_dimensional


class TestDifferentialExecution:
    """mat2c = mcc = interpreter = mat2c without GCTD, per benchmark
    (through the figures' own sweep, which also checks the agreement)."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_models_agree(self, name):
        record = collect(name)
        assert record.mat2c.output == record.mcc.output
        assert record.mat2c.output == record.interp.output
        assert record.mat2c.output == record.mat2c_nogctd.output
        assert record.mat2c.output.strip(), "benchmark must print something"


class TestPaperCharacteristics:
    @pytest.mark.parametrize("name", FULLY_STATIC)
    def test_fully_static_benchmarks_have_no_dynamic_subsumption(
        self, name
    ):
        # Table 2: d = 0 — everything stack allocated
        result = compiled(name)
        stats = result.report
        assert stats.dynamic_subsumed == 0, (
            f"{name}: paper reports d=0 but got {stats.dynamic_subsumed}"
        )

    @pytest.mark.parametrize("name", FULLY_STATIC)
    def test_fully_static_benchmarks_avoid_heap_arrays(self, name):
        result = compiled(name)
        heap_groups = [
            g
            for g in result.plan.groups
            if g.storage is StorageClass.HEAP
        ]
        assert not heap_groups, (
            f"{name}: paper stack-allocates everything, found heap "
            f"groups rooted at {[g.root for g in heap_groups]}"
        )

    @pytest.mark.parametrize("name", MOSTLY_DYNAMIC)
    def test_dynamic_benchmarks_have_symbolic_arrays(self, name):
        result = compiled(name)
        heap_groups = [
            g
            for g in result.plan.groups
            if g.storage is StorageClass.HEAP
        ]
        assert heap_groups, f"{name}: expected symbolic (heap) arrays"

    @pytest.mark.parametrize("name", MOSTLY_DYNAMIC)
    def test_dynamic_benchmarks_subsume_dynamically(self, name):
        # Table 2: d > 0 — symbolic variables still coalesce via ⪯
        result = compiled(name)
        assert result.report.dynamic_subsumed > 0, (
            f"{name}: paper reports d>0"
        )

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_every_benchmark_reduces_variables(self, name):
        stats = compiled(name).report
        subsumed = stats.static_subsumed + stats.dynamic_subsumed
        assert subsumed > 0, f"{name}: GCTD subsumed nothing"
        assert subsumed < stats.original_variable_count

    def test_fiff_has_largest_static_reduction(self):
        # the paper's headline: fiff's large coalescent arrays
        reductions = {
            name: compiled(name).report.storage_reduction_bytes
            for name in FULLY_STATIC
        }
        assert max(reductions, key=reductions.get) == "fiff"

    def test_fiff_reduction_magnitude(self):
        # 81x81 doubles ≈ 51 KB per coalesced array; several coalesce
        stats = compiled("fiff").report
        assert stats.storage_reduction_bytes > 81 * 81 * 8

    def test_diff_uses_complex(self):
        from repro.typing.intrinsic import Intrinsic

        result = compiled("diff")
        assert any(
            g.intrinsic is Intrinsic.COMPLEX for g in result.plan.groups
        )

    def test_rank3_arrays_present(self):
        for name in ("fdtd", "nb3d"):
            result = compiled(name)
            env = result.env
            assert any(
                env.of(v).shape.rank >= 3
                for v in result.ssa_func.defined_vars()
            ), f"{name}: expected rank-3 arrays"
