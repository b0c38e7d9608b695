"""Block-level liveness analysis on the (SSA or non-SSA) CFG.

A variable w is *live* at a point if some path from that point reaches a
use of w with no intervening redefinition (paper §2).  φ-operands are
treated as used at the end of the corresponding predecessor block, and
φ-results as defined at the top of their block — the standard SSA
convention, which is exactly what edge-copy insertion later realizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.cfg import IRFunction
from repro.ir.instr import Branch, Var


@dataclass(slots=True)
class LivenessInfo:
    live_in: dict[int, set[str]]
    live_out: dict[int, set[str]]


def _block_use_def(func: IRFunction, bid: int) -> tuple[set[str], set[str]]:
    """(upward-exposed uses, defs) of a block, φs handled per convention."""
    uses: set[str] = set()
    defs: set[str] = set()
    block = func.blocks[bid]
    for instr in block.instrs:
        if instr.is_phi:
            # operands counted at predecessors, result defined here
            for res in instr.results:
                defs.add(res)
            continue
        for name in instr.used_vars():
            if name not in defs:
                uses.add(name)
        for res in instr.results:
            defs.add(res)
    term = block.terminator
    if isinstance(term, Branch) and isinstance(term.condition, Var):
        if term.condition.name not in defs:
            uses.add(term.condition.name)
    return uses, defs


def _phi_uses_from(func: IRFunction, pred: int) -> set[str]:
    """Names the successors' φs read along edges leaving ``pred``."""
    out: set[str] = set()
    for succ in func.blocks[pred].successors():
        for phi in func.blocks[succ].phis():
            assert phi.phi_blocks is not None
            for arg, pb in zip(phi.args, phi.phi_blocks):
                if pb == pred and isinstance(arg, Var):
                    out.add(arg.name)
    return out


def compute_liveness(func: IRFunction) -> LivenessInfo:
    order = func.block_order()
    use: dict[int, set[str]] = {}
    defs: dict[int, set[str]] = {}
    for bid in order:
        use[bid], defs[bid] = _block_use_def(func, bid)

    live_in: dict[int, set[str]] = {bid: set() for bid in order}
    live_out: dict[int, set[str]] = {bid: set() for bid in order}

    changed = True
    while changed:
        changed = False
        for bid in reversed(order):
            block = func.blocks[bid]
            new_out: set[str] = set(_phi_uses_from(func, bid))
            for succ in block.successors():
                # φ results are defined at block entry of succ, others
                # flow through live_in.
                succ_phi_defs = {
                    p.results[0] for p in func.blocks[succ].phis()
                }
                new_out |= live_in[succ] - succ_phi_defs
            new_in = use[bid] | (new_out - defs[bid])
            if new_out != live_out[bid] or new_in != live_in[bid]:
                live_out[bid] = new_out
                live_in[bid] = new_in
                changed = True
    return LivenessInfo(live_in=live_in, live_out=live_out)
