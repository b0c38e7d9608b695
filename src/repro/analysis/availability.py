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

Each name is a bit; ``avail_in``/``avail_out`` hold one mask per block.
On SSA every name has one definition, at a ``(block, position)``, so
what is available at it is the block's ``avail_in`` plus what the block
defines before that position: no per-definition copy is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.cfg import IRFunction


@dataclass(slots=True)
class AvailabilityInfo:
    #: name → its bit in the masks
    bit: dict[str, int]
    avail_in: dict[int, int]
    avail_out: dict[int, int]
    #: defined name → (block, position in the block) of its definition
    def_site: dict[str, tuple[int, int]]

    def available_at_definition_of(self, u: str, v: str) -> bool:
        """True if ``u`` is available at the definition of ``v``.

        Reflexive by the paper's convention (a definition is trivially
        available at itself).  Nothing else is available at a
        parameter's (implicit) definition.
        """
        if u == v:
            return True
        site = self.def_site.get(v)
        bit = self.bit.get(u)
        if site is None or bit is None:
            return False
        block, position = site
        if self.avail_in[block] >> bit & 1:
            return True
        u_site = self.def_site.get(u)
        return u_site is not None and u_site[0] == block and u_site[1] < position

    def available_at_end(self, bid: int, names) -> set[str]:
        """The members of ``names`` available at the end of block ``bid``."""
        mask, bit = self.avail_out[bid], self.bit
        return {n for n in names if n in bit and mask >> bit[n] & 1}


def compute_availability(func: IRFunction) -> AvailabilityInfo:
    order = func.block_order()
    preds = func.predecessors()

    bit: dict[str, int] = {}
    params = 0
    for param in func.params:
        params |= 1 << bit.setdefault(param, len(bit))
    def_site: dict[str, tuple[int, int]] = {}
    gen: dict[int, int] = {}
    for bid in order:
        mask = 0
        for position, instr in enumerate(func.blocks[bid].instrs):
            for res in instr.results:
                mask |= 1 << bit.setdefault(res, len(bit))
                # keep the first (SSA: only) definition
                def_site.setdefault(res, (bid, position))
        gen[bid] = mask

    avail_in = {bid: 0 for bid in order}
    avail_out = dict(gen)
    avail_in[func.entry] |= params
    avail_out[func.entry] |= params

    changed = True
    while changed:
        changed = False
        for bid in order:
            new_in = avail_in[bid] if bid == func.entry else 0
            for p in preds[bid]:
                if p in avail_out:
                    new_in |= avail_out[p]
            new_out = new_in | gen[bid]
            if new_in != avail_in[bid] or new_out != avail_out[bid]:
                avail_in[bid] = new_in
                avail_out[bid] = new_out
                changed = True

    return AvailabilityInfo(
        bit=bit, avail_in=avail_in, avail_out=avail_out, def_site=def_site
    )
