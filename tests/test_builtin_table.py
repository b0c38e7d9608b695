"""The builtin table: one record per builtin, read by every pass.

``runtime.names.BUILTINS`` states each builtin's facts; the runtime's
functions and the type rules are registered against it, and the C
backend's coverage of it is stated here once.
"""

import dataclasses

import pytest

from repro.backend.cgen import CodegenError
from repro.compiler.pipeline import compile_source
from repro.runtime.builtins import builtin, lookup_builtin
from repro.runtime.names import BUILTINS, Builtin
from repro.typing.builtins_sigs import handler, lookup_handler


def test_no_field_has_a_default():
    for field in dataclasses.fields(Builtin):
        assert field.default is dataclasses.MISSING, field.name
        assert field.default_factory is dataclasses.MISSING, field.name


def test_a_class_outside_the_lists_is_refused():
    with pytest.raises(ValueError):
        Builtin(1, False, False, "inplace", "plain")
    with pytest.raises(ValueError):
        Builtin(1, False, False, "general", "cheap")


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_every_builtin_runs_and_only_a_valued_one_has_a_type_rule(name):
    assert lookup_builtin(name) is not None
    has_rule = lookup_handler(name) is not None
    assert has_rule == (BUILTINS[name].nargout != 0)


def test_registries_refuse_a_name_outside_the_table():
    with pytest.raises(ValueError):
        builtin("nosuch")
    with pytest.raises(ValueError):
        handler("nosuch")
    with pytest.raises(ValueError):
        handler("disp")  # returns nothing, so has no type rule


def test_dead_code_roots_are_the_effectful_builtins():
    # toc, rand and randn count too, although only the first four are
    # called for effect alone
    effect = {name for name, spec in BUILTINS.items() if spec.effect}
    assert effect == {
        "disp", "fprintf", "error", "tic", "toc", "rand", "randn"
    }


def test_common_subexpressions_merge_only_the_pure_builtins():
    # narrower than what the runtime could merge (fix, which the folder
    # folds, is not in it); widening it would move the IR and the plans
    pure = {name for name, spec in BUILTINS.items() if spec.pure}
    assert pure == {
        "abs", "sqrt", "exp", "log", "sin", "cos", "tan", "floor",
        "ceil", "round", "numel", "length", "size", "eye", "zeros",
        "ones", "mod", "rem", "sign",
    }


#: argument lists other than the 2×2 matrix ``a`` alone: two operands,
#: extents for the constructors, and the forms the rest need
ARGUMENTS = {
    "atan2": "a, a",
    "dot": "a, a",
    "kron": "a, a",
    "mod": "a, a",
    "rem": "a, a",
    "eye": "2, 2",
    "ones": "2, 2",
    "rand": "2, 2",
    "randn": "2, 2",
    "zeros": "2, 2",
    "error": "'stop'",
    "fprintf": "'%g\\n', a",
    "linspace": "0, 1, 4",
    "repmat": "a, 2, 2",
    "reshape": "a, 1, 4",
    "tic": "",
    "toc": "",
}

#: the builtins the C backend refuses in that call: most it lacks;
#: fprintf and mod it has for scalar operands only
C_REFUSED = {
    "acos", "all", "angle", "any", "asin", "atan", "atan2", "conj",
    "cosh", "cumsum", "diag", "dot", "find", "fliplr", "flipud",
    "fprintf", "imag", "int2str", "isempty", "isreal", "kron",
    "linspace", "log10", "log2", "mod", "num2str", "randn", "real",
    "rem", "repmat", "reshape", "sinh", "sort", "tanh", "toc", "trace",
}


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_the_c_backend_translates_or_refuses_each_builtin(name):
    call = f"{name}({ARGUMENTS.get(name, 'a')})"
    if BUILTINS[name].nargout != 0:
        call = f"b = {call}; disp(b)"
    result = compile_source(f"a = [1 2; 3 4];\n{call};\n")
    if name in C_REFUSED:
        with pytest.raises(CodegenError):
            result.generate_c()
    else:
        assert "int main" in result.generate_c()
