"""Availability analysis (paper §2).

A variable v is *available* at a statement s if there is a possible
execution path from a definition of v to s.  This is a forward
*may* (union) dataflow problem — deliberately conservative, as the
paper notes: it indicates a potential definition, not a definitive one.

Availability feeds two parts of GCTD:

* Phase 1 interference: two variables interfere when both are live and
  available at an assignment;
* Phase 2's Relation 1, whose second (symbolic) criterion requires
  "u is available at the definition of v" — and the paper relies on the
  relation being reflexive and transitive, which a path-based
  formulation gives for free.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.cfg import IRFunction


@dataclass(slots=True)
class AvailabilityInfo:
    avail_in: dict[int, set[str]]
    avail_out: dict[int, set[str]]
    # variable → availability set just before its (unique, SSA) definition
    at_def: dict[str, set[str]]

    def available_at_definition_of(self, u: str, v: str) -> bool:
        """True if ``u`` is available at the definition of ``v``.

        Reflexive by the paper's convention (a definition is trivially
        available at itself).
        """
        if u == v:
            return True
        return u in self.at_def.get(v, ())


def compute_availability(func: IRFunction) -> AvailabilityInfo:
    order = func.block_order()
    preds = func.predecessors()

    gen: dict[int, set[str]] = {}
    for bid in order:
        gen[bid] = {
            res for instr in func.blocks[bid].instrs for res in instr.results
        }

    avail_in: dict[int, set[str]] = {bid: set() for bid in order}
    avail_out: dict[int, set[str]] = {bid: set() for bid in order}
    for bid in order:
        avail_out[bid] = set(gen[bid])
    for param in func.params:
        avail_in[func.entry].add(param)
        avail_out[func.entry].add(param)

    changed = True
    while changed:
        changed = False
        for bid in order:
            new_in: set[str] = set(avail_in[bid]) if bid == func.entry else set()
            for p in preds[bid]:
                if p in avail_out:
                    new_in |= avail_out[p]
            new_out = new_in | gen[bid]
            if new_in != avail_in[bid] or new_out != avail_out[bid]:
                avail_in[bid] = new_in
                avail_out[bid] = new_out
                changed = True

    at_def: dict[str, set[str]] = {}
    for bid in order:
        current = set(avail_in[bid])
        for instr in func.blocks[bid].instrs:
            if instr.results:
                before = set(current)
                for res in instr.results:
                    # keep the first (SSA: only) definition's view
                    at_def.setdefault(res, before)
                current.update(instr.results)
    for param in func.params:
        at_def.setdefault(param, set())

    return AvailabilityInfo(
        avail_in=avail_in,
        avail_out=avail_out,
        at_def=at_def,
    )
