"""The MATLAB builtins the toolchain knows about, one record each.

:data:`BUILTINS` maps each builtin's name to a :class:`Builtin` that
states every fact a pass reads about it: how many results it returns
(lowering and the interpreter refuse more), whether dead-code
elimination keeps it, whether common-subexpression elimination may
merge two calls, its in-place class under operator semantics (paper
§2.3; ``core.opsem`` and the plan checker) and its per-element work
class (``vm.work`` and the interpreter).  The executable functions and
the type rules are code, so they stay in their own name-keyed
registries (``runtime.builtins``, ``typing.builtins_sigs``), whose
decorators refuse a name that is not in this table.

Kept as pure data in its own module, importing only the standard
library, so the lowering layer can tell a *call* from an *array index*
without importing the runtime implementation (which would create an
import cycle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: §2.3 classes: the result may take an array argument's storage when
#: it is computed position by position (elementwise), read into
#: registers before a smaller result is written (reduction) or laid out
#: as the argument is (layout); a general builtin may not.
OPSEM_CLASSES = ("elementwise", "reduction", "layout", "general")
#: per-element work: one operation for the whole call (unit), libm
#: grade (transcendental), a few operations (slowish) or one (plain).
WORK_CLASSES = ("unit", "transcendental", "slowish", "plain")


@dataclass(frozen=True, slots=True)
class Builtin:
    """Every fact a pass reads about one builtin; no field has a
    default, so each row of :data:`BUILTINS` states all of them."""

    #: the most results the runtime returns; None for any number
    nargout: int | None
    #: a root of dead-code elimination: a dead call is still made
    effect: bool
    #: common-subexpression elimination may merge two equal calls
    pure: bool
    opsem: str
    work: str

    def __post_init__(self) -> None:
        if self.opsem not in OPSEM_CLASSES:
            raise ValueError(f"unknown opsem class {self.opsem!r}")
        if self.work not in WORK_CLASSES:
            raise ValueError(f"unknown work class {self.work!r}")


BUILTINS: dict[str, Builtin] = {
    # name:     Builtin(nargout, effect, pure, opsem, work)
    "abs":      Builtin(1, False, True, "elementwise", "plain"),
    "acos":     Builtin(1, False, False, "elementwise", "transcendental"),
    "all":      Builtin(1, False, False, "reduction", "plain"),
    "angle":    Builtin(1, False, False, "elementwise", "plain"),
    "any":      Builtin(1, False, False, "reduction", "plain"),
    "asin":     Builtin(1, False, False, "elementwise", "transcendental"),
    "atan":     Builtin(1, False, False, "elementwise", "transcendental"),
    "atan2":    Builtin(1, False, False, "elementwise", "transcendental"),
    "ceil":     Builtin(1, False, True, "elementwise", "plain"),
    "conj":     Builtin(1, False, False, "elementwise", "plain"),
    "cos":      Builtin(1, False, True, "elementwise", "transcendental"),
    "cosh":     Builtin(1, False, False, "elementwise", "transcendental"),
    # a forward scan: c(i) from c(i-1) and a(i), so safe in place
    "cumsum":   Builtin(1, False, False, "elementwise", "plain"),
    "diag":     Builtin(1, False, False, "general", "plain"),
    "disp":     Builtin(0, True, False, "general", "plain"),
    "dot":      Builtin(1, False, False, "reduction", "plain"),
    "error":    Builtin(0, True, False, "general", "plain"),
    "exp":      Builtin(1, False, True, "elementwise", "transcendental"),
    "eye":      Builtin(1, False, True, "general", "plain"),
    "find":     Builtin(1, False, False, "general", "plain"),
    "fix":      Builtin(1, False, False, "elementwise", "plain"),
    "fliplr":   Builtin(1, False, False, "general", "plain"),
    "flipud":   Builtin(1, False, False, "general", "plain"),
    "floor":    Builtin(1, False, True, "elementwise", "plain"),
    "fprintf":  Builtin(0, True, False, "general", "plain"),
    "imag":     Builtin(1, False, False, "elementwise", "plain"),
    "int2str":  Builtin(1, False, False, "general", "plain"),
    "isempty":  Builtin(1, False, False, "reduction", "unit"),
    "isreal":   Builtin(1, False, False, "reduction", "unit"),
    "kron":     Builtin(1, False, False, "general", "plain"),
    "length":   Builtin(1, False, True, "reduction", "unit"),
    "linspace": Builtin(1, False, False, "general", "plain"),
    "log":      Builtin(1, False, True, "elementwise", "transcendental"),
    "log10":    Builtin(1, False, False, "elementwise", "transcendental"),
    "log2":     Builtin(1, False, False, "elementwise", "transcendental"),
    "max":      Builtin(2, False, False, "reduction", "plain"),
    "min":      Builtin(2, False, False, "reduction", "plain"),
    "mod":      Builtin(1, False, True, "elementwise", "slowish"),
    "ndims":    Builtin(1, False, False, "reduction", "unit"),
    "norm":     Builtin(1, False, False, "reduction", "slowish"),
    "num2str":  Builtin(1, False, False, "general", "plain"),
    "numel":    Builtin(1, False, True, "reduction", "unit"),
    "ones":     Builtin(1, False, True, "general", "plain"),
    "prod":     Builtin(1, False, False, "reduction", "plain"),
    # rand and randn advance the RNG state every later value depends on
    "rand":     Builtin(1, True, False, "general", "plain"),
    "randn":    Builtin(1, True, False, "general", "plain"),
    "real":     Builtin(1, False, False, "elementwise", "plain"),
    "rem":      Builtin(1, False, True, "elementwise", "slowish"),
    "repmat":   Builtin(1, False, False, "general", "plain"),
    "reshape":  Builtin(1, False, False, "layout", "plain"),
    "round":    Builtin(1, False, True, "elementwise", "plain"),
    "sign":     Builtin(1, False, True, "elementwise", "plain"),
    "sin":      Builtin(1, False, True, "elementwise", "transcendental"),
    "sinh":     Builtin(1, False, False, "elementwise", "transcendental"),
    "size":     Builtin(None, False, True, "reduction", "unit"),
    "sort":     Builtin(2, False, False, "general", "plain"),
    "sqrt":     Builtin(1, False, True, "elementwise", "slowish"),
    "sum":      Builtin(1, False, False, "reduction", "plain"),
    "tan":      Builtin(1, False, True, "elementwise", "transcendental"),
    "tanh":     Builtin(1, False, False, "elementwise", "transcendental"),
    "tic":      Builtin(0, True, False, "general", "unit"),
    "toc":      Builtin(1, True, False, "general", "unit"),
    "trace":    Builtin(1, False, False, "reduction", "plain"),
    "zeros":    Builtin(1, False, True, "general", "plain"),
}

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

BUILTIN_NAMES = frozenset(BUILTINS) | CONSTANT_BUILTINS
