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
