"""Interference due to operator semantics (paper §2.3).

For each SO-form assignment ``Y = op(X1, …, Xm)``, an extra edge Y–Xi
is inserted when computing Y *in place* in Xi's storage could violate
the operator's semantics — unless inferred type information proves the
dangerous case impossible.  The rules implemented here are the paper's:

* elementwise ops (``+`` and friends, §2.3.1): always in-place legal in
  a sufficiently-sized operand (the C mapping reads scalar operands
  into locals first, cf. Figure 1) — no edges;
* ``*``/``/``/``\\``/``^`` (§2.3): matrix semantics clobber operand
  elements before they are fully used — edges to both operands unless
  one is *provably scalar*, which turns the op elementwise;
* R-indexing ``subsref`` (§2.3.2): an array subscript permutes
  elements arbitrarily (``a(4:-1:1)``) — edges unless every subscript
  is provably scalar;
* L-indexing ``subsasgn`` (§2.3.3.1): always in-place legal in the
  *indexed array* (elements are computed last-to-first), so no edge to
  it; edges to the RHS and to nonscalar subscripts, which must stay
  readable while the result is written;
* transpose: permutes element positions — edge unless the operand is
  provably a vector or scalar (a vector's column-major layout is
  unchanged by transposition);
* builtins: classified as elementwise-safe, reduction-safe (the C
  mapping accumulates in registers), or unsafe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.cfg import IRFunction
from repro.ir.instr import (
    Const,
    ELEMENTWISE_BINARY,
    ELEMENTWISE_UNARY,
    Instr,
    MATRIX_BINARY,
    Operand,
    StrConst,
    Var,
)
from repro.typing.infer import TypeEnvironment
from repro.typing.shape import ConstDim

from repro.core.interference import InterferenceGraph, InterferenceStats

#: builtins whose result may alias an array argument (identity element
#: mapping, computed position-by-position).
ELEMENTWISE_SAFE_BUILTINS = frozenset(
    {
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
        "sinh",
        "cosh",
        "tanh",
        "floor",
        "ceil",
        "round",
        "fix",
        "sign",
        "real",
        "imag",
        "conj",
        "angle",
        "mod",
        "rem",
        "atan2",
        "cumsum",  # forward scan: c[i] from c[i-1], a[i] — safe in place
    }
)

#: builtins that read all input elements into registers before writing
#: a (smaller) result.
REDUCTION_SAFE_BUILTINS = frozenset(
    {
        "sum",
        "prod",
        "min",
        "max",
        "norm",
        "dot",
        "trace",
        "any",
        "all",
        "numel",
        "length",
        "ndims",
        "size",
        "isempty",
        "isreal",
    }
)

#: layout-preserving structural ops.
LAYOUT_SAFE_BUILTINS = frozenset({"reshape"})


@dataclass(slots=True)
class OpsemConfig:
    """Ablation switches for the §2.3 rules."""

    use_type_info: bool = True  # resolve conflicts with inferred types
    enabled: bool = True


def _provably_scalar(operand: Operand, env: TypeEnvironment | None) -> bool:
    if isinstance(operand, Const):
        return True
    if isinstance(operand, StrConst):
        return False
    if env is None:
        return False
    return env.of(operand.name).is_scalar


def scalars_read_first(instr: Instr, plan, env: TypeEnvironment) -> list[Var]:
    """What an out-of-place ``subsasgn`` reads before its base copy.

    Out of place means the result's group is not the indexed array's, so
    the C mapping first copies the array into the result's group.  A
    provably scalar RHS or subscript may share that group (the rules
    below add no edge for it, on the premise that scalar operands are
    read first), so it is loaded into a local before the copy.
    ``backend.cgen`` emits that order and the aliased VM run executes
    it; this is the one predicate both use.
    """
    result, base = instr.results[0], instr.args[0]
    if not isinstance(base, Var) or plan.same_storage(result, base.name):
        return []
    return [
        arg
        for arg in dict.fromkeys(instr.args[1:])
        if isinstance(arg, Var)
        and env.of(arg.name).shape.is_scalar
        and plan.same_storage(result, arg.name)
    ]


def _provably_vector(operand: Operand, env: TypeEnvironment | None) -> bool:
    if _provably_scalar(operand, env):
        return True
    if env is None or not isinstance(operand, Var):
        return False
    shape = env.of(operand.name).shape
    if not shape.exact:
        return False
    ones = sum(
        1 for d in shape.dims if isinstance(d, ConstDim) and d.value == 1
    )
    return ones >= shape.rank - 1


def add_operator_semantics_interference(
    func: IRFunction,
    graph: InterferenceGraph,
    env: TypeEnvironment | None,
    config: OpsemConfig | None = None,
    stats: InterferenceStats | None = None,
) -> int:
    """Insert §2.3 edges; returns how many were added."""
    config = config or OpsemConfig()
    if not config.enabled:
        return 0
    type_env = env if config.use_type_info else None
    added = 0
    for instr in func.instructions():
        for operand in _conflicting_operands(instr, type_env):
            if isinstance(operand, Var):
                for res in instr.results:
                    added += graph.add_edge(res, operand.name)
    if stats is not None:
        stats.opsem_edges += added
    return added


def _conflicting_operands(
    instr: Instr, env: TypeEnvironment | None
) -> list[Operand]:
    """Operands Xi for which in-place computation of Y is illegal."""
    op = instr.op
    if op in ELEMENTWISE_BINARY or op in ELEMENTWISE_UNARY:
        return []
    if op in (
        "copy",
        "const",
        "phi",
        "undef",
        "empty",
        "range",
        "forindex",
        "display",
    ):
        return []
    if op in MATRIX_BINARY:
        a, b = instr.args[0], instr.args[1]
        if _provably_scalar(a, env) or _provably_scalar(b, env):
            return []  # elementwise at run time: in-place legal
        return [a, b]
    if op in ("transpose", "ctranspose"):
        return [] if _provably_vector(instr.args[0], env) else [instr.args[0]]
    if op == "subsref":
        subs = instr.args[1:]
        if all(
            _provably_scalar(s, env)
            for s in subs
            if not isinstance(s, StrConst)
        ) and not any(isinstance(s, StrConst) for s in subs):
            return []
        return [instr.args[0]]
    if op == "subsasgn":
        # never the indexed array (backward computation, §2.3.3.1)
        conflicts: list[Operand] = []
        rhs = instr.args[1]
        if not _provably_scalar(rhs, env):
            conflicts.append(rhs)
        for s in instr.args[2:]:
            if isinstance(s, StrConst):
                continue
            if not _provably_scalar(s, env):
                conflicts.append(s)
        return conflicts
    if op in ("horzcat", "vertcat"):
        # conservative: element positions shift (except horzcat's first
        # operand, but we follow the paper in not special-casing glue)
        return list(instr.args)
    if instr.is_call:
        name = instr.callee
        if name in ELEMENTWISE_SAFE_BUILTINS:
            return []
        if name in REDUCTION_SAFE_BUILTINS:
            return []
        if name in LAYOUT_SAFE_BUILTINS:
            return []
        # in-place hazards only involve *array* operands; scalar args
        # (e.g. the extents of eye/zeros/rand) are read into locals
        return [
            a
            for a in instr.args
            if isinstance(a, Var) and not _provably_scalar(a, env)
        ]
    # unknown op: be safe
    return [
        a
        for a in instr.args
        if isinstance(a, Var) and not _provably_scalar(a, env)
    ]
