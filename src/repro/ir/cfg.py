"""Basic blocks, the control-flow graph, and the IR function container."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.frontend.source import MatlabError
from repro.ir.instr import Branch, Instr, Jump, Ret, Terminator, Var


class IRError(MatlabError):
    """Malformed IR detected by a verifier or a pass."""


@dataclass(slots=True)
class Block:
    id: int
    instrs: list[Instr] = field(default_factory=list)
    terminator: Terminator | None = None

    def successors(self) -> list[int]:
        return self.terminator.successors() if self.terminator else []

    def phis(self) -> list[Instr]:
        return [i for i in self.instrs if i.is_phi]

    def non_phis(self) -> list[Instr]:
        return [i for i in self.instrs if not i.is_phi]

    def append(self, instr: Instr) -> None:
        self.instrs.append(instr)

    def __str__(self) -> str:
        lines = [f"B{self.id}:"]
        lines += [f"  {i}" for i in self.instrs]
        if self.terminator is not None:
            lines.append(f"  {self.terminator}")
        return "\n".join(lines)


class IRFunction:
    """A function in SO-form IR with an explicit CFG.

    Blocks are stored in a dict keyed by id; ``entry`` is always block
    0.  Fresh temporaries are drawn from a per-function counter and are
    named ``t<N>$`` — the ``$`` suffix cannot appear in MATLAB source
    identifiers, so temps can never collide with user variables.
    """

    def __init__(self, name: str, params: list[str] | None = None,
                 returns: list[str] | None = None):
        self.name = name
        self.params = list(params or [])
        self.returns = list(returns or [])
        self.blocks: dict[int, Block] = {}
        self.entry = 0
        self._next_block = 0
        self._next_temp = 0
        self.new_block()  # entry

    # -- construction helpers -------------------------------------------

    def new_block(self) -> Block:
        block = Block(self._next_block)
        self.blocks[block.id] = block
        self._next_block += 1
        return block

    def new_temp(self) -> str:
        name = f"t{self._next_temp}$"
        self._next_temp += 1
        return name

    def entry_block(self) -> Block:
        return self.blocks[self.entry]

    # -- graph queries ----------------------------------------------------

    def predecessors(self) -> dict[int, list[int]]:
        preds: dict[int, list[int]] = {bid: [] for bid in self.blocks}
        for block in self.blocks.values():
            for succ in block.successors():
                preds[succ].append(block.id)
        return preds

    def block_order(self) -> list[int]:
        """Reverse-postorder over reachable blocks (good for dataflow)."""
        seen: set[int] = set()
        postorder: list[int] = []

        def visit(bid: int) -> None:
            stack = [(bid, iter(self.blocks[bid].successors()))]
            seen.add(bid)
            while stack:
                current, succs = stack[-1]
                advanced = False
                for nxt in succs:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(
                            (nxt, iter(self.blocks[nxt].successors()))
                        )
                        advanced = True
                        break
                if not advanced:
                    postorder.append(current)
                    stack.pop()

        visit(self.entry)
        return list(reversed(postorder))

    def reachable_blocks(self) -> set[int]:
        return set(self.block_order())

    def instructions(self) -> list[Instr]:
        """All instructions of reachable blocks, in block order."""
        out: list[Instr] = []
        for bid in self.block_order():
            out.extend(self.blocks[bid].instrs)
        return out

    def defined_vars(self) -> list[str]:
        """Every variable defined in the function (params first)."""
        seen: dict[str, None] = dict.fromkeys(self.params)
        for instr in self.instructions():
            for res in instr.results:
                seen.setdefault(res)
        return list(seen)

    # -- verification ----------------------------------------------------

    def verify(self) -> None:
        """Basic structural invariants; raises :class:`IRError`."""
        for block in self.blocks.values():
            if block.terminator is None:
                raise IRError(
                    f"{self.name}: block B{block.id} has no terminator"
                )
            for succ in block.successors():
                if succ not in self.blocks:
                    raise IRError(
                        f"{self.name}: B{block.id} jumps to missing B{succ}"
                    )
            in_header = True
            for instr in block.instrs:
                if instr.is_phi:
                    if not in_header:
                        raise IRError(
                            f"{self.name}: φ after non-φ in B{block.id}"
                        )
                else:
                    in_header = False

    def __str__(self) -> str:
        header = (
            f"function [{', '.join(self.returns)}] = "
            f"{self.name}({', '.join(self.params)})"
        )
        body = "\n".join(
            str(self.blocks[bid]) for bid in sorted(self.blocks)
        )
        return f"{header}\n{body}"


def remove_unreachable_blocks(func: IRFunction) -> int:
    """Delete unreachable blocks; returns how many were removed."""
    reachable = func.reachable_blocks()
    dead = [bid for bid in func.blocks if bid not in reachable]
    for bid in dead:
        del func.blocks[bid]
    # Drop φ-operands flowing from deleted predecessors.
    if dead:
        preds = func.predecessors()
        for block in func.blocks.values():
            for phi in block.phis():
                keep = [
                    (arg, pb)
                    for arg, pb in zip(phi.args, phi.phi_blocks or [])
                    if pb in preds.get(block.id, []) or pb in func.blocks
                ]
                phi.args = [a for a, _ in keep]
                phi.phi_blocks = [b for _, b in keep]
    return len(dead)
