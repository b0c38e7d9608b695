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
from repro.ir.cfg import IRFunction
from repro.ir.instr import Branch, Const, Instr, Ret, Var
from repro.ir.printer import format_function
from repro.mccsim.executor import MccMeter
from repro.runtime import ops
from repro.runtime.builtins import RuntimeContext
from repro.runtime.errors import MatlabRuntimeError
from repro.vm.base import Engine, ExecutionLimitExceeded
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


@pytest.mark.parametrize("aliased", [False, True])
def test_step_limit_fires_with_one_meter(aliased):
    result = compile_source(
        "i = 0;\nwhile 1\nend\ndisp(i);",
        options=CompilerOptions(max_steps=1000),
    )
    with pytest.raises(ExecutionLimitExceeded):
        result.run_mat2c(RuntimeContext(seed=1), aliased=aliased)


def _uses_before_defining(condition: bool) -> IRFunction:
    """``y = x + 1`` (or ``branch x``) where nothing defines ``x``."""
    func = IRFunction("main")
    entry = func.entry_block()
    if condition:
        entry.terminator = Branch(Var("x"), 1, 1)
        func.new_block().terminator = Ret()
    else:
        entry.append(Instr("add", ["y"], [Var("x"), Const(1)]))
        entry.terminator = Ret()
    return func


@pytest.mark.parametrize("condition", [False, True])
def test_use_before_definition_names_the_variable(condition):
    func = _uses_before_defining(condition)
    engine = Engine(func, [MccMeter(func)], RuntimeContext(seed=1))
    with pytest.raises(MatlabRuntimeError, match="undefined variable 'x'"):
        engine.run()


def test_consecutive_runs_of_one_compilation_agree():
    result = compile_benchmark("capr")
    first = result.run_mat2c(RuntimeContext(seed=SEED))
    second = result.run_mat2c(RuntimeContext(seed=SEED))
    assert asdict(first) == asdict(second)


# -- decoded constants are read-only -------------------------------------


def _engine_after(text: str) -> Engine:
    result = compile_source(
        text, options=CompilerOptions(enable_constfold=False)
    )
    engine = Engine(
        result.exec_func, [MccMeter(result.exec_func)], RuntimeContext()
    )
    engine.run()
    return engine


def _constants(engine: Engine) -> list:
    return [v for k, v in engine.env.items() if not isinstance(k, str)]


def test_const_hands_the_read_only_constant_to_the_env():
    engine = _engine_after("x = 'abc';\ndisp(x);")
    constants = _constants(engine)
    assert len(constants) == 1 and engine.env["x#1"] is constants[0]
    assert not constants[0].data.flags.writeable


def test_a_scalar_constant_is_an_immutable_float():
    engine = _engine_after("x = 5;\ndisp(x);")
    constants = _constants(engine)
    assert constants == [5.0] and constants[0].__class__ is float
    assert engine.env["x#1"] is constants[0]


def test_an_op_writing_into_a_constant_raises(monkeypatch):
    def add_in_place(a, b):
        a.data[...] += b.data  # clobbers its argument
        return a

    monkeypatch.setitem(ops.BINOPS, "add", add_in_place)
    result = compile_source(
        "s = 'ab';\nfor k = 1:3\n s = s + 1;\nend\ndisp(s);"
    )
    with pytest.raises(ValueError, match="read-only"):
        result.run_mat2c(RuntimeContext(seed=1))


@pytest.mark.parametrize(
    "name",
    [
        name if name in FAST else pytest.param(name, marks=pytest.mark.slow)
        for name in BENCHMARK_NAMES
    ],
)
def test_programs_run_with_read_only_constants(name):
    """No runtime op writes into an operand: every program runs to the
    same output under the metered and the aliased run."""
    on = compile_benchmark(name)
    metered = on.run_meters(
        [Mat2CMeter(on.exec_func, on.plan), MccMeter(on.exec_func)],
        RuntimeContext(seed=SEED),
    )
    aliased = on.run_mat2c(RuntimeContext(seed=SEED), aliased=True)
    assert metered[0].output and metered[0].output == aliased.output

