"""One engine evaluation priced by several meters.

``CompilationResult.run_meters`` evaluates the executable IR once and
hands every instruction to a list of meters.  Its results must equal
the one-meter wrappers exactly, which holds only because GCTD options
never change the executable IR — so that is pinned here too.
"""

from dataclasses import asdict

import pytest

from repro.bench.suite import BENCHMARK_NAMES, compile_benchmark
from repro.compiler.pipeline import CompilerOptions, compile_source
from repro.core.gctd import GCTDOptions
from repro.ir.printer import format_function
from repro.mccsim.executor import MccMeter
from repro.runtime.builtins import RuntimeContext
from repro.vm.base import ExecutionLimitExceeded
from repro.vm.executor import Mat2CMeter

SEED = 20030609
FAST = ("edit", "adpt", "capr", "nb3d", "fdtd")
OFF = CompilerOptions(gctd=GCTDOptions(enabled=False))


def _pair(name):
    return compile_benchmark(name), compile_benchmark(name, OFF)


@pytest.mark.parametrize(
    "name",
    [
        name if name in FAST else pytest.param(name, marks=pytest.mark.slow)
        for name in BENCHMARK_NAMES
    ],
)
def test_three_meters_match_three_runs(name):
    on, off = _pair(name)
    multi = on.run_meters(
        [
            Mat2CMeter(on.exec_func, on.plan),
            Mat2CMeter(on.exec_func, off.plan),
            MccMeter(on.exec_func),
        ],
        RuntimeContext(seed=SEED),
    )
    single = [
        on.run_mat2c(RuntimeContext(seed=SEED)),
        off.run_mat2c(RuntimeContext(seed=SEED)),
        on.run_mcc(RuntimeContext(seed=SEED)),
    ]
    for got, want in zip(multi, single):
        assert asdict(got.report) == asdict(want.report)
        assert got.output == want.output
        assert got.steps == want.steps


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_gctd_does_not_change_the_executable_ir(name):
    on, off = _pair(name)
    assert format_function(on.exec_func) == format_function(off.exec_func)


def test_step_limit_fires_with_several_meters():
    result = compile_source(
        "i = 0;\nwhile 1\n i = i + 1;\nend",
        options=CompilerOptions(max_steps=1000),
    )
    meters = [
        Mat2CMeter(result.exec_func, result.plan),
        MccMeter(result.exec_func),
    ]
    with pytest.raises(ExecutionLimitExceeded):
        result.run_meters(meters, RuntimeContext(seed=1))

