"""Integration tests: compile and execute under all three models.

The central property is *differential correctness*: for every program,
the mat2c VM (GCTD storage), the mcc model, and the independent AST
interpreter must produce byte-identical output.
"""

import pytest

from repro.compiler.pipeline import (
    CompilerOptions,
    compile_program,
    compile_source,
)
from repro.core.gctd import GCTDOptions
from repro.frontend.parser import parse_program
from repro.interp.interpreter import Interpreter, InterpreterError, interpret
from repro.ir.lower import LoweringError
from repro.runtime.builtins import RuntimeContext


def run_all(text, seed=7, **sources):
    files = {"main.m": text}
    for name, src in sources.items():
        files[f"{name}.m"] = src
    result = compile_program(files)
    mat2c = result.run_mat2c(RuntimeContext(seed=seed))
    mcc = result.run_mcc(RuntimeContext(seed=seed))
    interp = result.run_interpreter(RuntimeContext(seed=seed))
    return result, mat2c, mcc, interp


def assert_agreement(text, **sources):
    result, mat2c, mcc, interp = run_all(text, **sources)
    assert mat2c.output == mcc.output, "mat2c vs mcc output mismatch"
    assert mat2c.output == interp.output, "mat2c vs interpreter mismatch"
    return result, mat2c, mcc, interp


class TestBasicExecution:
    def test_arithmetic(self):
        _, mat2c, _, _ = assert_agreement("disp(2 + 3 * 4);")
        assert mat2c.output == "14\n"

    def test_matrix_ops(self):
        _, mat2c, _, _ = assert_agreement(
            "a = [1, 2; 3, 4]; b = a * a; disp(b);"
        )
        assert "7" in mat2c.output and "22" in mat2c.output

    def test_if_branches(self):
        assert_agreement(
            "x = 5;\nif x > 3\n disp('big');\nelse\n disp('small');\nend"
        )

    def test_while_loop(self):
        _, mat2c, _, _ = assert_agreement(
            "i = 0; s = 0;\nwhile i < 10\n i = i + 1; s = s + i;\nend\n"
            "disp(s);"
        )
        assert mat2c.output == "55\n"

    def test_for_loop(self):
        _, mat2c, _, _ = assert_agreement(
            "s = 0;\nfor k = 1:100\n s = s + k;\nend\ndisp(s);"
        )
        assert mat2c.output == "5050\n"

    def test_for_negative_step(self):
        _, mat2c, _, _ = assert_agreement(
            "v = 0;\nfor k = 5:-1:1\n v = v * 10 + k;\nend\ndisp(v);"
        )
        assert mat2c.output == "54321\n"

    def test_nested_loops_with_break(self):
        assert_agreement(
            "c = 0;\n"
            "for i = 1:5\n for j = 1:5\n  if j > i\n   break\n  end\n"
            "  c = c + 1;\n end\nend\ndisp(c);"
        )

    def test_indexing_roundtrip(self):
        _, mat2c, _, _ = assert_agreement(
            "a = zeros(3); a(2, 2) = 5; disp(a(2, 2));"
        )
        assert mat2c.output == "5\n"

    def test_array_growth(self):
        assert_agreement(
            "v = [1];\nfor k = 2:5\n v(k) = v(k - 1) * 2;\nend\ndisp(v);"
        )

    def test_colon_slicing(self):
        assert_agreement(
            "a = [1, 2, 3; 4, 5, 6]; disp(a(:, 2)); disp(a(1, :));"
        )

    def test_end_subscript(self):
        _, mat2c, _, _ = assert_agreement(
            "v = [10, 20, 30]; disp(v(end)); disp(v(end - 1));"
        )
        assert mat2c.output == "30\n20\n"

    @pytest.mark.parametrize(
        "statement, printed",
        [
            ("disp(x(1 && 1));", "1\n"),
            ("disp(x(end > 1 && 1));", "1\n"),
            ("disp(x(0 || 1));", "1\n"),
            ("disp(x([1 end]));", "1  3\n"),
            ("disp(x(min(end, 2)));", "2\n"),
            ("disp(x((1:end)'));", "1  2  3\n"),
            ("x([1 end]) = 7; disp(x);", "7  2  7\n"),
            # the inner subscript's end must not outlive it
            ("y = ones(1, 5); disp(x(y(end) + end - 2));", "2\n"),
        ],
    )
    def test_end_and_short_circuit_anywhere_in_a_subscript(
        self, statement, printed
    ):
        result = compile_source("x = [1 2 3];\n" + statement)
        outputs = {
            "interp": result.run_interpreter(RuntimeContext(seed=7)).output,
            "mat2c": result.run_mat2c(RuntimeContext(seed=7)).output,
            "aliased": result.run_mat2c(
                RuntimeContext(seed=7), aliased=True
            ).output,
        }
        assert outputs == dict.fromkeys(outputs, printed)

    def test_rand_deterministic_across_models(self):
        assert_agreement(
            "a = rand(3); disp(sum(sum(a)));"
        )

    def test_user_function_call(self):
        _, mat2c, _, _ = assert_agreement(
            "disp(square(7));",
            square="function y = square(x)\ny = x * x;\n",
        )
        assert mat2c.output == "49\n"

    def test_multi_output_builtin(self):
        assert_agreement(
            "a = rand(3, 5); [m, n] = size(a); disp(m); disp(n);"
        )

    def test_fprintf(self):
        _, mat2c, _, _ = assert_agreement(
            "fprintf('value: %d\\n', 42);"
        )
        assert mat2c.output == "value: 42\n"

    def test_complex_arithmetic(self):
        assert_agreement(
            "z = 3 + 4i; disp(abs(z)); disp(real(z * z));"
        )

    def test_transpose_and_matvec(self):
        assert_agreement(
            "a = [1, 2; 3, 4]; v = [1; 1]; disp(a' * v);"
        )

    def test_display_without_semicolon(self):
        result, mat2c, mcc, interp = assert_agreement("x = 41 + 1\n")
        assert "x =" in mat2c.output
        assert "42" in mat2c.output

    @pytest.mark.parametrize(
        "empty", ["[]", "zeros(0, 3)", "zeros(3, 0)", "''"]
    )
    def test_disp_of_an_empty_array_prints_nothing(self, empty):
        # MATLAB prints nothing at all, not a blank line
        _, mat2c, _, _ = assert_agreement(
            f"e = {empty};\ndisp(e);\ndisp(7);"
        )
        assert mat2c.output == "7\n"

    def test_swap_loop(self):
        # exercises parallel-copy cycles after SSA inversion
        _, mat2c, _, _ = assert_agreement(
            "a = 1; b = 2;\nfor k = 1:3\n t = a; a = b; b = t;\nend\n"
            "disp(a); disp(b);"
        )
        assert mat2c.output == "2\n1\n"


class TestStorageBehaviour:
    def test_mat2c_memory_below_mcc(self):
        result, mat2c, mcc, _ = run_all(
            "a = rand(50); b = a + 1; c = b .* 2; d = sqrt(c);\n"
            "disp(sum(sum(d)));"
        )
        assert (
            mat2c.report.avg_dynamic_kb < mcc.report.avg_dynamic_kb
        ), "GCTD must reduce dynamic data vs the mcc model"

    def test_static_program_uses_stack(self):
        result, mat2c, _, _ = run_all(
            "a = rand(20); b = a * 2; disp(sum(sum(b)));"
        )
        assert result.plan.stack_frame_bytes() >= 20 * 20 * 8
        assert mat2c.report.avg_stack_kb > 0

    def test_mcc_stack_stays_flat(self):
        _, _, mcc, _ = run_all(
            "a = rand(40); b = a + 1; disp(sum(sum(b)));"
        )
        # handle-passing only: ~2 pages
        assert mcc.report.avg_stack_kb <= 16.0

    def test_mat2c_faster_than_mcc_on_element_loops(self):
        result, mat2c, mcc, _ = run_all(
            "a = zeros(10);\n"
            "for i = 1:10\n for j = 1:10\n"
            "  a(i, j) = i * 10 + j;\n end\nend\n"
            "disp(sum(sum(a)));"
        )
        assert (
            mat2c.report.execution_seconds
            < mcc.report.execution_seconds
        )

    def test_interpreter_slower_than_mat2c(self):
        # the paper's Fig. 5: intrp and mcc are comparable (both
        # library-bound); mat2c beats both on element loops
        _, mat2c, mcc, interp = run_all(
            "a = zeros(8);\n"
            "for i = 1:8\n for j = 1:8\n  a(i, j) = i + j;\n end\nend\n"
            "disp(sum(sum(a)));"
        )
        assert (
            interp.report.execution_seconds
            > mat2c.report.execution_seconds
        )

    def test_gctd_off_increases_memory(self):
        text = (
            "a = rand(30); b = a + 1; c = b .* 2; d = c - 3;\n"
            "disp(sum(sum(d)));"
        )
        on = compile_source(text)
        off = compile_source(
            text,
            options=CompilerOptions(gctd=GCTDOptions(enabled=False)),
        )
        r_on = on.run_mat2c(RuntimeContext(seed=7))
        r_off = off.run_mat2c(RuntimeContext(seed=7))
        assert r_on.output == r_off.output
        assert (
            r_on.report.avg_dynamic_kb <= r_off.report.avg_dynamic_kb
        )

    def test_heap_group_resizing(self):
        # symbolic sizes force heap allocation with on-the-fly resizing
        result, mat2c, _, _ = run_all(
            "n = floor(rand(1) * 20) + 5;\n"
            "a = zeros(n, n); b = a + 1; disp(sum(sum(b)));"
        )
        from repro.core.allocation import StorageClass

        assert any(
            g.storage is StorageClass.HEAP for g in result.plan.groups
        )
        assert mat2c.report.mallocs >= 1

    def test_identity_copies_folded(self):
        result, *_ = run_all(
            "q = rand(1); a = rand(8);\n"
            "if q > 0.5\n b = a + 1;\nelse\n b = a - 1;\nend\n"
            "disp(sum(sum(b)));"
        )
        assert result.identity_copies_folded >= 1


class TestExecutionGuards:
    def test_step_limit(self):
        from repro.vm.base import ExecutionLimitExceeded

        result = compile_source(
            "i = 0;\nwhile 1\n i = i + 1;\nend",
            options=CompilerOptions(max_steps=1000),
        )
        with pytest.raises(ExecutionLimitExceeded):
            result.run_mat2c()

    def test_runtime_error_propagates(self):
        from repro.runtime.errors import MatlabRuntimeError

        result = compile_source("a = [1, 2]; disp(a(9));")
        with pytest.raises(MatlabRuntimeError):
            result.run_mat2c()


def _interpret(text):
    """Interpret one script; returns the result (or the raised error)
    and the output captured up to the end or the error."""
    ctx = RuntimeContext(seed=1)
    try:
        result = interpret(parse_program({"main.m": text}), ctx)
    except Exception as exc:  # the failure is what these tests check
        return exc, ctx.captured()
    return result, ctx.captured()


class TestInterpreterFailureParity:
    """A failing node raises only once it runs, with a pinned class and
    message, after the output so far and on a pinned step (the values
    the tree-walking interpreter gave)."""

    def test_failing_nodes_in_code_that_never_runs(self):
        result, output = _interpret(
            "a = 1;\n"
            "if a > 2\n x = nosuch;\n y = nofunc(3);\n disp(end);\nend\n"
            "while 0\n z = nosuch(end);\nend\n"
            "disp(a);\n"
        )
        assert output == "1\n"
        assert result.steps == 18

    @pytest.mark.parametrize(
        "statement, error, message",
        [
            ("x = nosuch + 1;", "MatlabRuntimeError",
             "undefined name 'nosuch'"),
            ("y = nofunc(3);", "MatlabRuntimeError",
             "unknown function 'nofunc'"),
            ("disp(end);", "InterpreterError",
             "'end' used outside indexing"),
        ],
    )
    def test_failing_node_raises_when_it_runs(self, statement, error,
                                              message):
        exc, output = _interpret(f"disp(1);\n{statement}\ndisp(2);\n")
        assert type(exc).__name__ == error
        assert str(exc) == message
        assert output == "1\n"

    def test_unassigned_output_and_call_depth(self):
        unassigned = parse_program({"f.m": (
            "function r = f\ndisp(1);\nr = g(2);\nend\n"
            "function q = g(n)\nif n > 5, q = 1; end\nend\n"
        )})
        ctx = RuntimeContext()
        with pytest.raises(InterpreterError) as caught:
            interpret(unassigned, ctx)
        assert str(caught.value) == "output 'q' of 'g' never assigned"
        assert ctx.captured() == "1\n"
        endless = parse_program({"f.m": (
            "function r = f\nr = g(1);\nend\n"
            "function q = g(n)\nq = g(n + 1);\nend\n"
        )})
        with pytest.raises(InterpreterError) as caught:
            interpret(endless)
        assert str(caught.value) == "call depth limit exceeded"

    #: the clock when the step limit trips, for max_steps 1000, 1001, …:
    #: the limit falls on statement, expression, name-lookup, operator
    #: and call ticks in turn
    STEP_LIMIT_CLOCKS = [
        135718.0, 136418.0, 136488.0, 136558.0, 136678.0, 136748.0,
        136845.0, 136845.0, 136965.0, 137665.0, 137735.0, 137805.0,
        137875.0, 137995.0, 138065.0, 138143.0,
    ]

    @pytest.mark.parametrize("offset", range(len(STEP_LIMIT_CLOCKS)))
    def test_step_limit_trips_on_the_same_tick(self, offset):
        ctx = RuntimeContext()
        interpreter = Interpreter(
            parse_program({"main.m": (
                "i = 0;\nwhile 1\n i = i + 1;\n"
                " if mod(i, 7) == 0\n  disp(i);\n end\nend\n"
            )}),
            ctx,
            max_steps=1000 + offset,
        )
        with pytest.raises(InterpreterError, match="step limit exceeded"):
            interpreter.run()
        assert interpreter.steps == 1001 + offset
        assert interpreter.clock == self.STEP_LIMIT_CLOCKS[offset]
        assert ctx.captured() == "7\n14\n21\n28\n35\n42\n"


def test_interpreter_is_freed_without_the_cycle_collector():
    """A run leaves no reference cycle through the interpreter, so its
    scopes and values go as soon as ``interpret`` returns."""
    import gc
    import weakref

    program = parse_program({"main.m": (
        "function main\ns = 0;\nfor k = 1:3\n s = s + twice(k);\nend\n"
        "disp(s);\nend\nfunction r = twice(x)\nr = 2 * x;\nend\n"
    )})
    made = []

    class Tracked(Interpreter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = Tracked(program, RuntimeContext()).run()
        assert result.output == "12\n"
        assert len(made) == 1 and made[0]() is None
    finally:
        if was_enabled:
            gc.enable()


END_FOLD = "a = zeros(2, 3, 4); a(2, 3, 4) = 5; disp(a(2, end));"


@pytest.mark.parametrize("executor", ["mat2c", "mat2c_aliased", "interp"])
@pytest.mark.xfail(
    strict=True,
    reason="`end` in the last of fewer subscripts than dimensions reads "
    "that dimension's extent, not the folded trailing extent",
)
def test_end_in_a_folded_last_subscript(executor):
    result = compile_source(END_FOLD)
    run = {
        "mat2c": lambda: result.run_mat2c(RuntimeContext()),
        "mat2c_aliased": lambda: result.run_mat2c(
            RuntimeContext(), aliased=True
        ),
        "interp": lambda: result.run_interpreter(RuntimeContext()),
    }[executor]
    assert run().output == "5\n"  # MATLAB's `end` there is 3 * 4 = 12


# -- the engine's corner cases -------------------------------------------


class _WorkLog:
    """A meter that records ``(op, work, first result)`` for every
    executed instruction (a call logs its callee)."""

    block_end = None

    def __init__(self):
        self.log = []

    def start(self):
        pass

    def decode(self, instr):
        op = instr.callee if instr.is_call else instr.op
        log = self.log

        def price(args, results, work):
            log.append((op, work, results[0] if results else None))

        return price

    def branch(self):
        pass

    def finish(self):
        pass

    def report(self):
        return None


def _logged_run(text, max_steps=20_000_000):
    from repro.vm.base import Engine
    from repro.vm.executor import Mat2CMeter

    result = compile_source(text)
    log = _WorkLog()
    mat2c = Mat2CMeter(result.exec_func, result.plan)
    ctx = RuntimeContext(seed=3)
    engine = Engine(result.exec_func, [log, mat2c], ctx, max_steps)
    return engine, log, mat2c, ctx


class TestEngineWork:
    def test_array_products_and_solves_keep_their_work(self):
        engine, log, _, _ = _logged_run(
            "a = rand(2, 3); b = rand(3, 4); c = a * b;\n"
            "m = rand(3, 3); n = rand(3, 3); d = m / n; e = m \\ n;\n"
            "x = rand(1); y = rand(1); z = x * y; w = x / y;\n"
            "v = x * b; u = b / y;\n"
            "disp(size(c)); disp(size(d)); disp(size(e));\n"
            "disp(z > 0); disp(w > 0); disp(size(v)); disp(size(u));"
        )
        engine.run()
        work = {
            op: [w for name, w, _ in log.log if name == op]
            for op in ("mul", "div", "ldiv")
        }
        # (2×3)·(3×4): 24 multiply-adds; 3×3 solves: 3³/3; two floats
        # price 1.0; a float times a 3×4 array prices its 12 elements
        assert work == {
            "mul": [24.0, 1.0, 12.0],
            "div": [9.0, 1.0, 12.0],
            "ldiv": [9.0],
        }

    def test_float_division_by_zero_takes_the_boxed_path(self):
        import struct

        import numpy as np

        engine, log, _, ctx = _logged_run(
            "z = rand(1) * 0; p = 1 + z; m = z - 1;\n"
            "a = p / z; b = m / z; c = z / z; d = p ./ z;\n"
            "disp(a > 0); disp(b < 0); disp(c == c); disp(d > 0);"
        )
        engine.run()
        quotients = [
            (w, v) for op, w, v in log.log if op in ("div", "eldiv")
        ]
        with np.errstate(divide="ignore", invalid="ignore"):
            zero = np.zeros((1, 1))
            want = [
                np.divide(np.ones((1, 1)), zero).item(),
                np.divide(-np.ones((1, 1)), zero).item(),
                np.divide(zero, zero).item(),
                np.divide(np.ones((1, 1)), zero).item(),
            ]

        def bits(x):
            return struct.pack("<d", x)

        assert [w for w, _ in quotients] == [1.0] * 4
        assert [v.__class__ for _, v in quotients] == [float] * 4
        assert [bits(v) for _, v in quotients] == [bits(x) for x in want]
        assert ctx.captured() == "1\n1\n0\n1\n"


def _undefined_use(instr, defined=()):
    """``instr`` after the definitions in ``defined``; nothing defines
    ``x``."""
    from repro.ir.cfg import IRFunction
    from repro.ir.instr import Ret

    func = IRFunction("main")
    entry = func.entry_block()
    for definition in defined:
        entry.append(definition)
    entry.append(instr)
    entry.terminator = Ret()
    return func


def _undefined_cases():
    from repro.ir.instr import Const, Instr, Var

    ones = Instr("call:ones", ["a"], [Const(2), Const(2)])
    one = Instr("const", ["k"], [Const(1)])
    return {
        "binop-left": (Instr("add", ["y"], [Var("x"), Const(1)]), ()),
        "binop-right": (Instr("lt", ["y"], [Var("k"), Var("x")]), (one,)),
        "array-binop": (Instr("mul", ["y"], [Var("a"), Var("x")]), (ones,)),
        "copy": (Instr("copy", ["y"], [Var("x")]), ()),
        "subsref-base": (Instr("subsref", ["y"], [Var("x"), Const(1)]), ()),
        "subsref-one": (
            Instr("subsref", ["y"], [Var("a"), Var("x")]), (ones,)
        ),
        "subsref-two": (
            Instr("subsref", ["y"], [Var("a"), Const(1), Var("x")]),
            (ones,),
        ),
        "forindex": (
            Instr("forindex", ["y"], [Const(1), Const(1), Const(3), Var("x")]),
            (),
        ),
        "unary": (Instr("neg", ["y"], [Var("x")]), ()),
        "call": (Instr("call:sqrt", ["y"], [Var("x")]), ()),
        "subsasgn": (
            Instr("subsasgn", ["y"], [Var("a"), Var("x"), Const(1)]),
            (ones,),
        ),
    }


@pytest.mark.parametrize("meters", ["none", "mcc+log"])
@pytest.mark.parametrize("case", sorted(_undefined_cases()))
def test_an_undefined_operand_is_named_for_every_op_kind(case, meters):
    from repro.mccsim.executor import MccMeter
    from repro.runtime.errors import MatlabRuntimeError
    from repro.vm.base import Engine

    instr, defined = _undefined_cases()[case]
    func = _undefined_use(instr, defined)
    if meters == "none":
        metered = []
    else:
        metered = [MccMeter(func), _WorkLog()]
    engine = Engine(func, metered, RuntimeContext(seed=1))
    with pytest.raises(MatlabRuntimeError) as caught:
        engine.run()
    assert str(caught.value) == "use of undefined variable 'x'"


def test_a_key_error_inside_an_evaluation_stays_a_key_error(monkeypatch):
    from repro.ir.instr import Instr, StrConst, Var
    from repro.runtime import ops
    from repro.vm.base import Engine

    def broken(a, b):
        raise KeyError("inside the op")

    monkeypatch.setitem(ops.BINOPS, "add", broken)
    func = _undefined_use(
        Instr("add", ["y"], [Var("s"), Var("s")]),
        (Instr("const", ["s"], [StrConst("ab")]),),
    )
    engine = Engine(func, [_WorkLog()], RuntimeContext(seed=1))
    with pytest.raises(KeyError) as caught:
        engine.run()
    assert caught.value.args == ("inside the op",)


#: per ``max_steps`` from 200 on: the instructions priced and the
#: mat2c clock when the limit trips, which fall on loop-body
#: instructions, a branch and a jump in turn
LOOP_OUTPUT = "5\n18\n39\n68\n"
ENGINE_STEP_LIMIT = [
    (130, "eq", 803.0, LOOP_OUTPUT), (130, "eq", 804.0, LOOP_OUTPUT),
    (130, "eq", 804.0, LOOP_OUTPUT), (131, "copy", 804.0, LOOP_OUTPUT),
    (132, "copy", 804.0, LOOP_OUTPUT), (132, "copy", 804.0, LOOP_OUTPUT),
    (132, "copy", 805.0, LOOP_OUTPUT), (133, "add", 806.0, LOOP_OUTPUT),
    (134, "mul", 807.0, LOOP_OUTPUT), (135, "add", 808.0, LOOP_OUTPUT),
    (136, "mod", 833.0, LOOP_OUTPUT), (137, "eq", 834.0, LOOP_OUTPUT),
]
ENGINE_STEP_LOOP = (
    "i = 0; s = 0;\nwhile 1\n i = i + 1; s = s + i * 0.5;\n"
    " if mod(i, 4) == 0\n  disp(s);\n end\nend\n"
)


@pytest.mark.parametrize("offset", range(len(ENGINE_STEP_LIMIT)))
def test_engine_step_limit_trips_on_the_same_instruction(offset):
    from repro.vm.base import ExecutionLimitExceeded

    engine, log, mat2c, ctx = _logged_run(
        ENGINE_STEP_LOOP, max_steps=200 + offset
    )
    with pytest.raises(ExecutionLimitExceeded) as caught:
        engine.run()
    assert str(caught.value) == (
        f"exceeded {200 + offset} executed instructions"
    )
    priced = (len(log.log), log.log[-1][0], mat2c.clock, ctx.captured())
    assert priced == ENGINE_STEP_LIMIT[offset]


@pytest.mark.parametrize("keyword", ["break", "continue"])
def test_a_loop_exit_outside_a_loop_is_refused_as_lowering_does(keyword):
    script = f"disp(1);\nif 1\n {keyword};\nend\ndisp(2);\n"
    exc, output = _interpret(script)
    assert type(exc) is InterpreterError
    assert str(exc) == f"'{keyword}' outside a loop"
    assert output == ""
    with pytest.raises(LoweringError) as lowered:
        compile_source(script)
    assert str(lowered.value) == str(exc)


@pytest.mark.parametrize("keyword", ["break", "continue"])
def test_a_loop_exit_in_a_called_function_is_refused(keyword):
    sources = {
        "main.m": "function main\nfor k = 1:3\n f(k);\n disp(k);\nend\n"
        "end\n",
        "f.m": f"function f(k)\nif k > 1\n {keyword};\nend\nend\n",
    }
    ctx = RuntimeContext()
    with pytest.raises(InterpreterError) as caught:
        interpret(parse_program(sources), ctx)
    assert str(caught.value) == f"'{keyword}' outside a loop"
    assert ctx.captured() == ""  # the caller's loop never ran
    with pytest.raises(LoweringError) as lowered:
        compile_program(sources)
    assert str(lowered.value) == str(caught.value)


#: constant and run-time negative extents, for the three constructors
NEGATIVE_EXTENTS = (
    "n = -floor(rand(1)) - 1; x = zeros(2, -1); y = ones(n, 3);\n"
    "z = eye(-2); disp(size(x)); disp(size(y)); disp(size(z));\n"
)


@pytest.mark.parametrize("executor", ["mat2c", "mat2c_aliased", "interp"])
def test_a_negative_extent_makes_an_empty_dimension(executor):
    result = compile_source(NEGATIVE_EXTENTS)
    assert str(result.env.of("x#1")) == "REAL(2, 0)"
    assert str(result.env.of("z#1")) == "BOOLEAN(0, 0)"
    run = {
        "mat2c": lambda: result.run_mat2c(RuntimeContext()),
        "mat2c_aliased": lambda: result.run_mat2c(
            RuntimeContext(), aliased=True
        ),
        "interp": lambda: result.run_interpreter(RuntimeContext()),
    }[executor]
    assert run().output == "2  0\n0  3\n0  0\n"
