"""Pure computational work (scalar operations) of one IR instruction.

This is the cost both compilation models share — the actual numeric
work — so :class:`repro.vm.base.Engine` computes it once per executed
instruction and hands it to every meter.  What distinguishes mat2c
and mcc is the *overhead* each meter adds around it.  A builtin call
costs per element what its ``work`` class in
``runtime.names.BUILTINS`` says.  Sizes are read through
:func:`~repro.runtime.marray.numel`, so an unboxed scalar operand
counts one element, as its boxed form does.
"""

from __future__ import annotations

from repro.ir.instr import Instr
from repro.runtime.marray import MArray, numel
from repro.runtime.names import BUILTINS

#: libm-grade per-element cost (UltraSPARC-era transcendentals are two
#: orders of magnitude above an add — this is why adpt, dominated by
#: integrand evaluations, shows the paper's smallest mat2c/mcc gap)
_TRANSCENDENTAL_COST = 150.0
_SLOWISH_COST = 25.0
#: a builtin's per-element cost by its ``work`` class (``unit`` calls
#: cost one operation in all)
_PER_ELEMENT = {
    "transcendental": _TRANSCENDENTAL_COST,
    "slowish": _SLOWISH_COST,
    "plain": None,
}


def computation_work(instr: Instr, args: list, results: list) -> float:
    """Approximate scalar-operation count for the instruction."""
    return work_function(instr)(args, results)


def work_function(instr: Instr):
    """:func:`computation_work` for ``instr`` as a function of
    ``(args, results)``: the choice by op and callee is made once, so
    an engine that decodes its IR calls this once per instruction."""
    op = instr.op
    if op == "mul":
        return _matmul_work
    if op in ("div", "ldiv"):
        return _solve_work
    if op == "subsasgn":
        return _store_work
    if instr.is_call:
        spec = BUILTINS.get(instr.callee)
        work = spec.work if spec is not None else "plain"
        if work == "unit":
            return _unit_work
        per_element = _PER_ELEMENT[work]
        return lambda args, results: _call_work(args, results, per_element)
    if op in ("elpow", "pow"):
        return _power_work
    return _plain_work


def _unit_work(args, results) -> float:
    return 1.0


def _plain_work(args, results) -> float:
    if len(results) == 1:
        return float(numel(results[0]))
    if results:
        return float(max(numel(r) for r in results))
    if args:
        return float(numel(args[0]))
    return 1.0


def _matmul_work(args, results) -> float:
    if len(args) == 2:
        a, b = args[0], args[1]
        if isinstance(a, MArray) and isinstance(b, MArray):
            if not a.is_scalar and not b.is_scalar:
                # (m×k)·(k×n): m·k·n multiply-adds
                return float(
                    a.shape[0] * a.shape[1] * b.shape[1]
                )
    return _plain_work(args, results)


def _solve_work(args, results) -> float:
    if len(args) == 2:
        a, b = args[0], args[1]
        if isinstance(a, MArray) and isinstance(b, MArray):
            if not a.is_scalar and not b.is_scalar:
                n = max(a.shape[0], a.shape[1])
                return float(n**3) / 3.0  # LU-style solve
    return _plain_work(args, results)


def _store_work(args, results) -> float:
    moved = numel(args[1]) if len(args) > 1 else 1
    if results and numel(results[0]) > numel(args[0]):
        moved += numel(results[0])  # expansion copies the old array
    return float(moved)


def _call_work(args, results, per_element: float | None) -> float:
    if not args:
        return _plain_work(args, results)
    input_elems = max(numel(a) for a in args)
    output_elems = max((numel(r) for r in results), default=1)
    elems = float(max(input_elems, output_elems))
    if per_element is None:
        return elems
    return elems * per_element


def _power_work(args, results) -> float:
    return float(
        max((numel(r) for r in results), default=1)
    ) * _TRANSCENDENTAL_COST
