"""Global common-subexpression elimination (dominator-scoped GVN).

Pure SO-form instructions with identical opcodes and operands compute
identical values on SSA, so later occurrences dominated by an earlier
one are rewritten to copies.  The copies are then removed by the usual
copy-propagation + DCE follow-up, mirroring the paper's pass list
("global common-subexpression elimination" among the translator's 20+
passes).
"""

from __future__ import annotations

from repro.ir.cfg import IRFunction
from repro.ir.dominance import compute_dominators
from repro.ir.instr import Const, Instr, StrConst, Var
from repro.runtime.names import BUILTINS

#: ops that are referentially transparent (same args ⇒ same value),
#: the pure builtins' calls among them
_PURE_OPS = frozenset(
    {
        "add",
        "sub",
        "mul",
        "elmul",
        "div",
        "eldiv",
        "ldiv",
        "elldiv",
        "pow",
        "elpow",
        "lt",
        "le",
        "gt",
        "ge",
        "eq",
        "ne",
        "and",
        "or",
        "neg",
        "not",
        "transpose",
        "ctranspose",
        "range",
        "forindex",
        "subsref",
        "horzcat",
        "vertcat",
        "const",
    }
) | frozenset(
    f"call:{name}" for name, spec in BUILTINS.items() if spec.pure
)


def _value_key(instr: Instr) -> tuple | None:
    if instr.op not in _PURE_OPS:
        return None
    if len(instr.results) != 1:
        return None
    parts: list[object] = [instr.op]
    for arg in instr.args:
        if isinstance(arg, Var):
            parts.append(("v", arg.name))
        elif isinstance(arg, Const):
            parts.append(("c", arg.value))
        elif isinstance(arg, StrConst):
            parts.append(("s", arg.value))
    return tuple(parts)


def eliminate_common_subexpressions(func: IRFunction) -> int:
    """Dominator-tree scoped value numbering; returns #rewritten instrs."""
    dom = compute_dominators(func)
    replaced = 0

    def walk(bid: int, table: dict[tuple, str]) -> None:
        nonlocal replaced
        scope = dict(table)
        for instr in func.blocks[bid].instrs:
            key = _value_key(instr)
            if key is None:
                continue
            if key in scope:
                instr.op = "copy"
                instr.args = [Var(scope[key])]
                replaced += 1
            else:
                scope[key] = instr.results[0]
        for child in dom.children.get(bid, ()):
            walk(child, scope)

    walk(func.entry, {})
    return replaced
