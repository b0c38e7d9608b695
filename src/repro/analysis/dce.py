"""Dead-code elimination on SSA IR (mark-and-sweep over def-use chains).

Effectful instructions (``display`` and the calls of the builtins whose
``runtime.names.BUILTINS`` record sets ``effect``: output, ``error``,
``tic``/``toc``) are roots; everything reachable backwards through
operands stays.  ``rand``/``randn`` also count as effectful: they
advance the global RNG state, so deleting a dead call would shift every
later random value — observable through program output (and it would
break the differential-testing contract between the compiled models and
the interpreter).
"""

from __future__ import annotations

from repro.ir.cfg import IRFunction
from repro.ir.instr import Branch, Instr, Var
from repro.runtime.names import BUILTINS

#: the ops that are roots: ``display`` and the effectful builtins' calls
_ROOT_OPS = frozenset(
    ["display"]
    + [f"call:{name}" for name, spec in BUILTINS.items() if spec.effect]
)


def _has_effect(instr: Instr) -> bool:
    return instr.op in _ROOT_OPS


def eliminate_dead_code(func: IRFunction) -> int:
    """Remove instructions whose results are never (transitively) used.

    Returns the number of removed instructions.  Runs to a fixed point
    internally via the worklist, so one call is enough.
    """
    definition: dict[str, Instr] = {}
    for instr in func.instructions():
        for res in instr.results:
            definition[res] = instr

    live: set[int] = set()
    worklist: list[Instr] = []

    def mark(instr: Instr) -> None:
        if id(instr) not in live:
            live.add(id(instr))
            worklist.append(instr)

    for instr in func.instructions():
        if _has_effect(instr):
            mark(instr)
    for block in func.blocks.values():
        term = block.terminator
        if isinstance(term, Branch) and isinstance(term.condition, Var):
            def_instr = definition.get(term.condition.name)
            if def_instr is not None:
                mark(def_instr)
    for ret_name in func.returns:
        def_instr = definition.get(ret_name)
        if def_instr is not None:
            mark(def_instr)

    while worklist:
        instr = worklist.pop()
        for used in instr.used_vars():
            def_instr = definition.get(used)
            if def_instr is not None:
                mark(def_instr)

    removed = 0
    for block in func.blocks.values():
        kept = []
        for instr in block.instrs:
            if id(instr) in live:
                kept.append(instr)
            else:
                removed += 1
        block.instrs = kept
    return removed
