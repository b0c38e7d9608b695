"""MATLAB value semantics: arrays, operators, indexing, builtins."""

from repro.runtime.builtins import (
    RuntimeContext,
    call_builtin,
    lookup_builtin,
)
from repro.runtime.errors import (
    IndexError_,
    MatlabRuntimeError,
    ShapeConformanceError,
)
from repro.runtime.indexing import COLON, subsasgn, subsref
from repro.runtime.marray import MArray, as_marray
from repro.runtime.names import (
    BUILTIN_NAMES,
    BUILTINS,
    CONSTANT_BUILTINS,
    Builtin,
)

__all__ = [
    "RuntimeContext",
    "call_builtin",
    "lookup_builtin",
    "IndexError_",
    "MatlabRuntimeError",
    "ShapeConformanceError",
    "COLON",
    "subsasgn",
    "subsref",
    "MArray",
    "as_marray",
    "BUILTIN_NAMES",
    "BUILTINS",
    "CONSTANT_BUILTINS",
    "Builtin",
]
