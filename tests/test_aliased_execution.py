"""GCTD soundness validation: aliased (group-keyed) execution.

In aliased mode the VM reads and writes through the shared storage
group slots, exactly like the generated C — every member of a group is
one buffer.  If Phase 1 ever let two simultaneously-live variables
share a color, or Phase 2 grouped variables whose lifetimes overlap,
the aliased run would produce different output.  Running the whole
benchmark suite this way is an end-to-end proof obligation on the
allocator.
"""

import pytest

from repro.bench.suite import BENCHMARK_NAMES, compile_benchmark
from repro.compiler.pipeline import compile_source
from repro.core.opsem import scalars_read_first
from repro.frontend.source import MatlabError
from repro.runtime.builtins import RuntimeContext
from repro.vm import base as vm_base


def check(text, **sources):
    if sources:
        from repro.compiler.pipeline import compile_program

        files = {"main.m": text}
        files.update(
            {f"{n}.m": s for n, s in sources.items()}
        )
        result = compile_program(files)
    else:
        result = compile_source(text)
    plain = result.run_mat2c(RuntimeContext(seed=5))
    aliased = result.run_mat2c(RuntimeContext(seed=5), aliased=True)
    assert plain.output == aliased.output
    return result


class TestAliasedPrograms:
    def test_elementwise_chain(self):
        check("a = rand(6); b = a + 1; c = b .* 2; disp(sum(sum(c)));")

    def test_loop_accumulation(self):
        check(
            "acc = zeros(3); img = ones(3);\n"
            "for t = 1:4\n acc = acc + img;\nend\n"
            "disp(sum(sum(acc)));"
        )

    def test_phi_web_reuse(self):
        check(
            "q = rand(1);\n"
            "if q > 0.5\n b = rand(4);\nelse\n b = rand(4) + 1;\nend\n"
            "disp(sum(sum(b)));"
        )

    def test_value_still_needed_after_loop(self):
        # the regression that motivated this mode: zeros CSE'd between
        # two variables, one consumed after the other's web mutates
        check(
            "n = 3;\n"
            "img = zeros(n, n);\n"
            "for i = 1:n\n for j = 1:n\n  img(i, j) = i + 2 * j;\n end\nend\n"
            "acc = zeros(n, n);\n"
            "for t = 1:4\n acc = acc + img;\nend\n"
            "disp(sum(sum(acc))); disp(acc(3, 2));"
        )

    def test_swap_rotation(self):
        check(
            "a = rand(3); b = rand(3);\n"
            "for k = 1:3\n t = a; a = b; b = t;\nend\n"
            "disp(sum(sum(a))); disp(sum(sum(b)));"
        )

    def test_growth_in_group(self):
        check(
            "v = [1];\n"
            "for k = 2:6\n v(k) = v(k - 1) + k;\nend\n"
            "disp(v(6));"
        )


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_suite_aliased(name):
    result = compile_benchmark(name)
    plain = result.run_mat2c(RuntimeContext(seed=5))
    aliased = result.run_mat2c(RuntimeContext(seed=5), aliased=True)
    assert plain.output == aliased.output, (
        f"{name}: aliased execution diverged — unsound coalescing"
    )


# An out-of-place indexed store (result group ≠ base group) copies the
# base into the result's group first, as the generated C does.  A
# provably scalar RHS sharing that group is only safe because it is
# read before the copy; the aliased run must follow that order, so that
# losing the pre-load shows up without a C compiler.
HAZARD = """\
a = [1, 2, 3; 4, 5, 6; 7, 9, 8];
b = [2, 0, 1; 1, 3, 0; 0, 1, 4];
c = a - b;
s = 0.75;
u = 2.5;
u = a(1, 1) + 1;
a(1, 1) = u;
u = s * 2 + 0;
fprintf('%.6f\\n', sum(sum(a)) + sum(sum(b)));
fprintf('%.6f\\n', sum(sum(c)) + s + u);
"""


def _aliased_output(result):
    try:
        return result.run_mat2c(RuntimeContext(seed=9), aliased=True).output
    except MatlabError as exc:
        return f"error: {exc}"


def test_aliased_store_reads_shared_scalars_before_the_base_copy():
    result = compile_source(HAZARD)
    store = next(
        i for b in result.exec_func.blocks.values() for i in b.instrs
        if i.op == "subsasgn"
    )
    # the falsifying plan: u shares the store's group, a's base does not
    assert scalars_read_first(store, result.plan, result.env)
    oracle = result.run_interpreter(RuntimeContext(seed=9)).output
    assert _aliased_output(result) == oracle


def test_aliased_run_without_the_scalar_preload_differs(monkeypatch):
    result = compile_source(HAZARD)
    oracle = result.run_interpreter(RuntimeContext(seed=9)).output
    monkeypatch.setattr(vm_base, "scalars_read_first", lambda *args: [])
    assert _aliased_output(result) != oracle
