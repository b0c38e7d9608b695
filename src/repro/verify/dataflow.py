"""Independent liveness/availability recomputation for the verifier.

Deliberately a *separate code path* from :mod:`repro.analysis`: the
checker must not certify a plan using the very dataflow results the
plan was built from.  Where ``repro.analysis`` iterates all blocks
round-robin to a fixed point, these are classic worklist algorithms
(FIFO over blocks, re-queueing only affected neighbors), with their
own block use/def computation.  The *semantics* are the paper's and
must agree — φ operands are uses at the end of the corresponding
predecessor, φ results are defs at the top of their block,
availability is forward-may — but any divergence between the two
implementations surfaces as a verifier false positive/negative on the
suite, which is exactly the cross-check we want.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.ir.cfg import IRFunction
from repro.ir.instr import Branch, Var


@dataclass(slots=True)
class VerifierLiveness:
    live_in: dict[int, set[str]] = field(default_factory=dict)
    live_out: dict[int, set[str]] = field(default_factory=dict)


@dataclass(slots=True)
class VerifierAvailability:
    avail_in: dict[int, set[str]] = field(default_factory=dict)
    avail_out: dict[int, set[str]] = field(default_factory=dict)
    #: defined name → (block, index of its instruction in that block)
    defined_at: dict[str, tuple[int, int]] = field(default_factory=dict)

    def available_at_definition_of(self, u: str, v: str) -> bool:
        """``u`` reaches ``v``'s definition: it enters ``v``'s block, or
        the block defines it first (SSA: one definition per name)."""
        if u == v:
            return True
        where = self.defined_at.get(v)
        if where is None:
            return False  # a parameter, or not defined at all
        bid, index = where
        if u in self.avail_in[bid]:
            return True
        u_where = self.defined_at.get(u)
        return u_where is not None and u_where[0] == bid and u_where[1] < index


def _predecessor_map(func: IRFunction) -> dict[int, list[int]]:
    preds: dict[int, list[int]] = {bid: [] for bid in func.blocks}
    for bid, block in func.blocks.items():
        for succ in block.successors():
            preds[succ].append(bid)
    return preds


def _uses_and_defs(func: IRFunction, bid: int) -> tuple[set[str], set[str]]:
    """Upward-exposed uses and defs of a block (φs per SSA convention)."""
    uses: set[str] = set()
    defs: set[str] = set()
    block = func.blocks[bid]
    for instr in block.instrs:
        if not instr.is_phi:
            for name in instr.used_vars():
                if name not in defs:
                    uses.add(name)
        defs.update(instr.results)
    term = block.terminator
    if isinstance(term, Branch) and isinstance(term.condition, Var):
        if term.condition.name not in defs:
            uses.add(term.condition.name)
    return uses, defs


def _phi_edge_uses(func: IRFunction, pred: int) -> set[str]:
    """Names read by successors' φs along edges out of ``pred``."""
    out: set[str] = set()
    for succ in func.blocks[pred].successors():
        for phi in func.blocks[succ].phis():
            assert phi.phi_blocks is not None
            for arg, origin in zip(phi.args, phi.phi_blocks):
                if origin == pred and isinstance(arg, Var):
                    out.add(arg.name)
    return out


def recompute_liveness(func: IRFunction) -> VerifierLiveness:
    """Backward worklist liveness over the CFG."""
    blocks = list(func.blocks)
    preds = _predecessor_map(func)
    uses: dict[int, set[str]] = {}
    defs: dict[int, set[str]] = {}
    edge_uses: dict[int, set[str]] = {}
    phi_defs: dict[int, set[str]] = {}
    for bid in blocks:
        uses[bid], defs[bid] = _uses_and_defs(func, bid)
        edge_uses[bid] = _phi_edge_uses(func, bid)
        phi_defs[bid] = {
            phi.results[0] for phi in func.blocks[bid].phis()
        }

    info = VerifierLiveness(
        live_in={bid: set() for bid in blocks},
        live_out={bid: set() for bid in blocks},
    )
    work: deque[int] = deque(reversed(blocks))
    queued = set(work)
    while work:
        bid = work.popleft()
        queued.discard(bid)
        out = set(edge_uses[bid])
        for succ in func.blocks[bid].successors():
            out |= info.live_in[succ] - phi_defs[succ]
        new_in = uses[bid] | (out - defs[bid])
        info.live_out[bid] = out
        if new_in != info.live_in[bid]:
            info.live_in[bid] = new_in
            for pred in preds[bid]:
                if pred not in queued:
                    work.append(pred)
                    queued.add(pred)
    return info


def recompute_availability(func: IRFunction) -> VerifierAvailability:
    """Forward-may worklist availability, plus each definition's place."""
    blocks = list(func.blocks)
    preds = _predecessor_map(func)
    gen: dict[int, set[str]] = {
        bid: {
            res
            for instr in func.blocks[bid].instrs
            for res in instr.results
        }
        for bid in blocks
    }
    entry_seed = set(func.params)

    info = VerifierAvailability(
        avail_in={bid: set() for bid in blocks},
        avail_out={bid: set() for bid in blocks},
    )
    work: deque[int] = deque(blocks)
    queued = set(work)
    while work:
        bid = work.popleft()
        queued.discard(bid)
        new_in = set(entry_seed) if bid == func.entry else set()
        for pred in preds[bid]:
            new_in |= info.avail_out[pred]
        new_out = new_in | gen[bid]
        info.avail_in[bid] = new_in
        if new_out != info.avail_out[bid]:
            info.avail_out[bid] = new_out
            for succ in func.blocks[bid].successors():
                if succ not in queued:
                    work.append(succ)
                    queued.add(succ)

    for bid in blocks:
        for index, instr in enumerate(func.blocks[bid].instrs):
            for res in instr.results:
                info.defined_at.setdefault(res, (bid, index))
    return info
