"""Names of the MATLAB builtins the toolchain knows about.

Kept as pure data in its own module so the frontend/lowering layer can
distinguish *call* from *array index* without importing the runtime
implementation (which would create an import cycle).
"""

from __future__ import annotations

import math

# Builtins that behave like ordinary functions returning one value.
VALUE_BUILTINS = frozenset(
    {
        "rand",
        "randn",
        "zeros",
        "ones",
        "eye",
        "numel",
        "length",
        "ndims",
        "abs",
        "sqrt",
        "exp",
        "log",
        "log2",
        "log10",
        "sin",
        "cos",
        "tan",
        "asin",
        "acos",
        "atan",
        "atan2",
        "sinh",
        "cosh",
        "tanh",
        "floor",
        "ceil",
        "round",
        "fix",
        "sign",
        "mod",
        "rem",
        "sum",
        "prod",
        "cumsum",
        "min",
        "max",
        "real",
        "imag",
        "conj",
        "angle",
        "norm",
        "dot",
        "isempty",
        "isreal",
        "any",
        "all",
        "find",
        "repmat",
        "reshape",
        "linspace",
        "num2str",
        "int2str",
        "sort",
        "fliplr",
        "flipud",
        "diag",
        "trace",
        "kron",
        "toc",
    }
)

# Builtins that may return several values (`[m, n] = size(a)`).
MULTI_BUILTINS = frozenset({"size", "sort", "min", "max", "find"})

# Builtins executed for effect.
EFFECT_BUILTINS = frozenset({"disp", "fprintf", "error", "tic"})

# Named constants that look like variables in source, with their values.
CONSTANT_VALUES = {
    "pi": math.pi,
    "eps": 2.220446049250313e-16,
    "Inf": math.inf,
    "inf": math.inf,
    "NaN": math.nan,
    "nan": math.nan,
}
CONSTANT_BUILTINS = frozenset(CONSTANT_VALUES)

BUILTIN_NAMES = (
    VALUE_BUILTINS | MULTI_BUILTINS | EFFECT_BUILTINS | CONSTANT_BUILTINS
)
