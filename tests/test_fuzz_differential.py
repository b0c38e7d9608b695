"""Differential fuzzing: random MATLAB programs, four execution models.

Hypothesis generates small well-formed programs over 3×3 matrices and
scalars, with ``end`` and ``&&``/``||`` inside subscripts; each must
print byte-identical output under (1) the mat2c VM,
(2) the mat2c VM in aliased (group-keyed) mode — which exercises GCTD's
storage sharing like the generated C does, (3) the mcc model, and
(4) the independent AST interpreter.  Any disagreement is a compiler
bug by construction.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler.pipeline import compile_source
from repro.runtime.builtins import RuntimeContext

pytestmark = pytest.mark.slow

MATRICES = ["a", "b", "c"]
SCALARS = ["s", "u"]

matrix_names = st.sampled_from(MATRICES)
scalar_names = st.sampled_from(SCALARS)
small_index = st.integers(min_value=1, max_value=3)
small_const = st.integers(min_value=-9, max_value=9)
#: ``end - k`` stays inside a 3×3 matrix
small_back = st.integers(min_value=0, max_value=2)

elementwise_op = st.sampled_from(["+", "-", ".*"])


def stmt_matrix_binop(target, left, right, op):
    return f"{target} = {left} {op} {right};"


def stmt_scalar_update(target, source, const):
    return f"{target} = {source} * 2 + {const};"


def stmt_subsasgn(target, i, j, source):
    return f"{target}({i}, {j}) = {source};"


def stmt_subsref(target, source, i, j):
    return f"{target} = {source}({i}, {j}) + 1;"


def stmt_end_arithmetic(target, source, back, j):
    return f"{target} = {source}(end - {back}, {j}) + 1;"


def stmt_end_subsasgn(target, i, back, source):
    return f"{target}({i}, end - {back}) = {source};"


def stmt_end_in_matrix(target, source, j):
    return f"{target} = sum({source}([1 end], {j}));"


def stmt_end_in_call(target, source, i, back):
    return f"{target} = {source}(min(end, {i}), max(1, end - {back}));"


def stmt_short_circuit_subscript(target, source, left, op, right, j):
    return (
        f"{target} = {source}(({left} > 0.5 {op} {right} < 0.5) + 1, {j});"
    )


def stmt_matrix_scale(target, source, scalar):
    return f"{target} = {source} * {scalar};"


def stmt_elementwise_call(target, source, fn):
    return f"{target} = {fn}({source} .* {source});"


def stmt_transpose(target, source):
    return f"{target} = {source}';"


def stmt_matmul(target, left, right):
    return f"{target} = {left} * {right};"


statements = st.one_of(
    st.builds(
        stmt_matrix_binop,
        matrix_names,
        matrix_names,
        matrix_names,
        elementwise_op,
    ),
    st.builds(stmt_scalar_update, scalar_names, scalar_names, small_const),
    st.builds(
        stmt_subsasgn, matrix_names, small_index, small_index, scalar_names
    ),
    st.builds(
        stmt_subsref, scalar_names, matrix_names, small_index, small_index
    ),
    st.builds(
        stmt_end_arithmetic, scalar_names, matrix_names, small_back,
        small_index,
    ),
    st.builds(
        stmt_end_subsasgn, matrix_names, small_index, small_back,
        scalar_names,
    ),
    st.builds(stmt_end_in_matrix, scalar_names, matrix_names, small_index),
    st.builds(
        stmt_end_in_call, scalar_names, matrix_names, small_index,
        small_back,
    ),
    st.builds(
        stmt_short_circuit_subscript,
        scalar_names,
        matrix_names,
        scalar_names,
        st.sampled_from(["&&", "||"]),
        scalar_names,
        small_index,
    ),
    st.builds(stmt_matrix_scale, matrix_names, matrix_names, scalar_names),
    st.builds(
        stmt_elementwise_call,
        matrix_names,
        matrix_names,
        st.sampled_from(["sqrt", "abs", "floor"]),
    ),
    st.builds(stmt_transpose, matrix_names, matrix_names),
    st.builds(stmt_matmul, matrix_names, matrix_names, matrix_names),
)

conditionals = st.builds(
    lambda cond_var, then_stmt, else_stmt: (
        f"if {cond_var} > 0.5\n  {then_stmt}\nelse\n  {else_stmt}\nend"
    ),
    scalar_names,
    statements,
    statements,
)

loops = st.builds(
    lambda n, body: f"for k$i = 1:{n}\n  {body}\nend".replace("$i", ""),
    st.integers(min_value=1, max_value=3),
    statements,
)

program_bodies = st.lists(
    st.one_of(statements, statements, conditionals, loops),
    min_size=2,
    max_size=8,
)

PREAMBLE = """\
a = rand(3);
b = rand(3);
c = rand(3);
s = rand(1);
u = rand(1);
"""

EPILOGUE = """\
fprintf('%.6f\\n', sum(sum(a)) + sum(sum(b)));
fprintf('%.6f\\n', sum(sum(c)) + s + u);
"""


@given(program_bodies)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_programs_agree(body):
    source = PREAMBLE + "\n".join(body) + "\n" + EPILOGUE
    result = compile_source(source)
    outputs = {
        "mat2c": result.run_mat2c(RuntimeContext(seed=11)).output,
        "aliased": result.run_mat2c(
            RuntimeContext(seed=11), aliased=True
        ).output,
        "mcc": result.run_mcc(RuntimeContext(seed=11)).output,
        "interp": result.run_interpreter(RuntimeContext(seed=11)).output,
    }
    distinct = set(outputs.values())
    assert len(distinct) == 1, f"models disagree on:\n{source}\n{outputs}"
