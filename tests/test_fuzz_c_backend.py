"""Differential fuzzing of the C back end against the VM.

Random deterministic programs (no ``rand`` — the C runtime's RNG is a
different generator by design) are compiled to C, built with the host
compiler, and must print exactly what the mat2c VM prints.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.backend.cc import compile_and_run, find_compiler
from repro.backend.cgen import CodegenError, generate_c
from repro.compiler.pipeline import compile_source
from repro.runtime.builtins import RuntimeContext

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        find_compiler() is None, reason="no C compiler available"
    ),
]

MATRICES = ["a", "b", "c"]
SCALARS = ["s", "u"]

matrix_names = st.sampled_from(MATRICES)
scalar_names = st.sampled_from(SCALARS)
small_index = st.integers(min_value=1, max_value=3)
small_const = st.integers(min_value=-9, max_value=9)

statements = st.one_of(
    st.builds(
        lambda t, l, r, op: f"{t} = {l} {op} {r};",
        matrix_names,
        matrix_names,
        matrix_names,
        st.sampled_from(["+", "-", ".*"]),
    ),
    st.builds(
        lambda t, s, k: f"{t} = {s} * 2 + {k};",
        scalar_names,
        scalar_names,
        small_const,
    ),
    st.builds(
        lambda t, i, j, s: f"{t}({i}, {j}) = {s};",
        matrix_names,
        small_index,
        small_index,
        scalar_names,
    ),
    st.builds(
        lambda t, s, i, j: f"{t} = {s}({i}, {j}) + 1;",
        scalar_names,
        matrix_names,
        small_index,
        small_index,
    ),
    st.builds(
        lambda t, s, fn: f"{t} = {fn}({s} .* {s});",
        matrix_names,
        matrix_names,
        st.sampled_from(["sqrt", "abs", "floor"]),
    ),
    st.builds(lambda t, s: f"{t} = {s}';", matrix_names, matrix_names),
    st.builds(
        lambda t, l, r: f"{t} = {l} * {r};",
        matrix_names,
        matrix_names,
        matrix_names,
    ),
    st.builds(
        lambda n, body: f"for k = 1:{n}\n  {body}\nend",
        st.integers(min_value=1, max_value=3),
        st.builds(
            lambda t, l, r, op: f"{t} = {l} {op} {r};",
            matrix_names,
            matrix_names,
            matrix_names,
            st.sampled_from(["+", "-", ".*"]),
        ),
    ),
)

PREAMBLE = """\
a = [1, 2, 3; 4, 5, 6; 7, 9, 8];
b = [2, 0, 1; 1, 3, 0; 0, 1, 4];
c = a - b;
s = 0.75;
u = 2.5;
"""

EPILOGUE = """\
fprintf('%.6f\\n', sum(sum(a)) + sum(sum(b)));
fprintf('%.6f\\n', sum(sum(c)) + s + u);
"""


@given(st.lists(statements, min_size=2, max_size=7))
# a scalar RHS sharing the result's group with an out-of-place store:
# the C once read it after the base copy had overwritten it
@example(["u = a(1, 1) + 1;", "a(1, 1) = u;", "u = s * 2 + 0;"])
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_c_backend_matches_vm(body):
    source = PREAMBLE + "\n".join(body) + "\n" + EPILOGUE
    result = compile_source(source)
    vm = result.run_mat2c(RuntimeContext(seed=9))
    try:
        c_source = generate_c(result)
    except CodegenError:
        return  # outside the demo subset: fine, just skip
    native = compile_and_run(c_source)
    assert native.returncode == 0, (
        f"C run failed on:\n{source}\n{native.stderr}"
    )
    assert native.stdout == vm.output, (
        f"C/VM divergence on:\n{source}\n"
        f"C : {native.stdout!r}\nVM: {vm.output!r}"
    )
