"""Pure computational work (scalar operations) of one IR instruction.

This is the cost both compilation models share — the actual numeric
work — so :class:`repro.vm.base.Engine` computes it once per executed
instruction and hands it to every meter.  What distinguishes mat2c
and mcc is the *overhead* each meter adds around it.
"""

from __future__ import annotations

from repro.ir.instr import Instr
from repro.runtime.marray import MArray

_CHEAP_CALLS = frozenset(
    {"size", "numel", "length", "ndims", "isempty", "isreal", "tic", "toc"}
)

#: libm-grade per-element cost (UltraSPARC-era transcendentals are two
#: orders of magnitude above an add — this is why adpt, dominated by
#: integrand evaluations, shows the paper's smallest mat2c/mcc gap)
_TRANSCENDENTAL_COST = 150.0
_TRANSCENDENTALS = frozenset(
    {
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
        "exp",
        "log",
        "log2",
        "log10",
    }
)
_SLOWISH_CALLS = frozenset({"sqrt", "norm", "mod", "rem"})
_SLOWISH_COST = 25.0


def computation_work(instr: Instr, args: list, results: list[MArray]) -> float:
    """Approximate scalar-operation count for the instruction."""
    op = instr.op
    if op == "mul" and len(args) == 2:
        a, b = args[0], args[1]
        if isinstance(a, MArray) and isinstance(b, MArray):
            if not a.is_scalar and not b.is_scalar:
                # (m×k)·(k×n): m·k·n multiply-adds
                return float(
                    a.shape[0] * a.shape[1] * b.shape[1]
                )
    if op in ("div", "ldiv") and len(args) == 2:
        a, b = args[0], args[1]
        if isinstance(a, MArray) and isinstance(b, MArray):
            if not a.is_scalar and not b.is_scalar:
                n = max(a.shape[0], a.shape[1])
                return float(n**3) / 3.0  # LU-style solve
    if op == "subsasgn":
        rhs = args[1] if len(args) > 1 else None
        moved = rhs.numel if isinstance(rhs, MArray) else 1
        if results and results[0].numel > args[0].numel:
            moved += results[0].numel  # expansion copies the old array
        return float(moved)
    if instr.is_call and instr.callee in _CHEAP_CALLS:
        return 1.0
    if instr.is_call and args:
        input_elems = max(
            (a.numel for a in args if isinstance(a, MArray)), default=1
        )
        output_elems = max((r.numel for r in results), default=1)
        elems = float(max(input_elems, output_elems))
        if instr.callee in _TRANSCENDENTALS:
            return elems * _TRANSCENDENTAL_COST
        if instr.callee in _SLOWISH_CALLS:
            return elems * _SLOWISH_COST
        return elems
    if instr.op in ("elpow", "pow"):
        return float(
            max((r.numel for r in results), default=1)
        ) * _TRANSCENDENTAL_COST
    if results:
        return float(max(r.numel for r in results))
    if args and isinstance(args[0], MArray):
        return float(args[0].numel)
    return 1.0
