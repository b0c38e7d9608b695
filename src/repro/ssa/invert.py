"""SSA inversion: translate out of SSA by reintroducing copies.

The paper (§2.2.1) leans on this step: GCTD's Phase 1 coalesces each φ
result with its operands whenever they don't interfere, so that the
copies inserted here become *identity assignments* (same color ⇒ same
storage) that code generation drops.

:func:`invert_ssa` leaves the SSA function untouched (GCTD's plan and
:mod:`repro.verify` are stated on it) and returns the executable
function: new blocks, terminators and φs, sharing every other
:class:`~repro.ir.instr.Instr` with the SSA form.

The implementation handles the two classic correctness traps:

* **critical edges** are split so a copy inserted for edge P→B cannot
  execute on other paths out of P;
* **parallel-copy semantics** — all φs of a block read their operands
  simultaneously, so the per-edge copy set is sequentialized with a
  dependency-respecting order, breaking cycles with a temporary (the
  "swap problem").
"""

from __future__ import annotations

import copy
from collections import defaultdict

from repro.ir.cfg import Block, IRFunction
from repro.ir.instr import Branch, Instr, Jump, Operand, Var


def split_critical_edges(func: IRFunction) -> int:
    """Split edges whose source has >1 successor and target >1 preds."""
    preds = func.predecessors()
    split_count = 0
    for bid in list(func.blocks):
        block = func.blocks[bid]
        term = block.terminator
        if not isinstance(term, Branch):
            continue
        succs = term.successors()
        for succ in succs:
            if len(preds[succ]) <= 1:
                continue
            middle = func.new_block()
            middle.terminator = Jump(succ)
            if term.true_target == succ:
                term.true_target = middle.id
            if term.false_target == succ:
                term.false_target = middle.id
            # Retarget the φs' incoming-block records.
            for phi in func.blocks[succ].phis():
                assert phi.phi_blocks is not None
                phi.phi_blocks = [
                    middle.id if pb == bid else pb for pb in phi.phi_blocks
                ]
            split_count += 1
            preds = func.predecessors()
    return split_count


def _sequentialize_parallel_copies(
    copies: list[tuple[str, Operand]], fresh_temp
) -> list[tuple[str, Operand]]:
    """Order (dst, src) parallel copies; break cycles via a temporary.

    Standard algorithm: repeatedly emit a copy whose destination is not
    the source of any pending copy; if none exists, the remaining copies
    form one or more cycles — rotate one open with a temp.
    """
    pending = [
        (dst, src) for dst, src in copies
        if not (isinstance(src, Var) and src.name == dst)
    ]
    ordered: list[tuple[str, Operand]] = []
    while pending:
        src_names = {
            s.name for _, s in pending if isinstance(s, Var)
        }
        emitted = False
        for i, (dst, src) in enumerate(pending):
            if dst not in src_names:
                ordered.append((dst, src))
                pending.pop(i)
                emitted = True
                break
        if emitted:
            continue
        # All pending destinations are also sources: a cycle.  Save one
        # destination into a temp and redirect its readers.
        dst, src = pending.pop(0)
        temp = fresh_temp()
        ordered.append((temp, Var(dst)))
        pending = [
            (d, Var(temp) if isinstance(s, Var) and s.name == dst else s)
            for d, s in pending
        ]
        ordered.append((dst, src))
    return ordered


def invert_ssa(ssa: IRFunction) -> IRFunction:
    """Return the executable function: ``ssa`` with φs turned into copies.

    The result is no longer in SSA form (names may be written on
    several paths), but it is executable IR: GCTD colors are attached
    to SSA names, which are preserved as-is.
    """
    func = copy.copy(ssa)
    func.blocks = {
        bid: Block(
            bid,
            [copy.copy(i) if i.is_phi else i for i in block.instrs],
            copy.copy(block.terminator),
        )
        for bid, block in ssa.blocks.items()
    }
    split_critical_edges(func)

    # Collect per-edge parallel copy sets: (pred_block, succ_block)
    edge_copies: dict[int, list[tuple[str, Operand]]] = defaultdict(list)
    for block in func.blocks.values():
        for phi in block.phis():
            assert phi.phi_blocks is not None
            for arg, pred in zip(phi.args, phi.phi_blocks):
                edge_copies[pred].append((phi.results[0], arg))
        block.instrs = block.non_phis()

    for pred_id, copies in edge_copies.items():
        ordered = _sequentialize_parallel_copies(copies, func.new_temp)
        pred = func.blocks[pred_id]
        for dst, src in ordered:
            pred.append(Instr(op="copy", results=[dst], args=[src]))
    return func
