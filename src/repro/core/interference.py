"""Phase 1 interference graph (paper §2).

Two variables interfere when their du-chains overlap — approximated, as
in Chaitin et al. and Briggs, by "both live and available at an
assignment".  The builder does the paper's backward block scan: start
from the set of variables live∧available at block end; each definition
is interfered with the set's members; then the set drops the defined
variables and gains the used ones.

Copies and φs do not interfere with their own sources (same value —
Chaitin's third criterion), which is what later lets φ coalescing and
copy folding produce identity assignments.

The graph also supports node *coalescing* (union-find merge), used by
φ-web coalescing (§2.2.1).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.analysis.availability import compute_availability
from repro.analysis.liveness import compute_liveness
from repro.ir.cfg import IRFunction
from repro.ir.instr import Branch, Instr, Var


class InterferenceGraph:
    """Undirected conflict graph over SSA names with coalescing."""

    def __init__(self) -> None:
        self._adj: dict[str, set[str]] = defaultdict(set)
        self._parent: dict[str, str] = {}
        self._members: dict[str, list[str]] = {}
        self._edges = 0

    # -- union-find ------------------------------------------------------

    def add_node(self, name: str) -> None:
        if name not in self._parent:
            self._parent[name] = name
            self._members[name] = [name]
            self._adj.setdefault(name, set())

    def find(self, name: str) -> str:
        self.add_node(name)
        root = name
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[name] != root:
            self._parent[name], name = root, self._parent[name]
        return root

    def members(self, name: str) -> list[str]:
        return self._members[self.find(name)]

    # -- edges --------------------------------------------------------------

    def add_edge(self, a: str, b: str) -> bool:
        """Connect the nodes of ``a`` and ``b``; True if the edge is new."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb or rb in self._adj[ra]:
            return False
        self._adj[ra].add(rb)
        self._adj[rb].add(ra)
        self._edges += 1
        return True

    def interferes(self, a: str, b: str) -> bool:
        ra, rb = self.find(a), self.find(b)
        return rb in self._adj[ra]

    def neighbors(self, name: str) -> set[str]:
        return self._adj[self.find(name)]

    def coalesce(self, a: str, b: str) -> bool:
        """Merge the nodes of ``a`` and ``b``; False if they interfere."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return True
        if rb in self._adj[ra]:
            return False
        self._parent[rb] = ra
        self._members[ra].extend(self._members.pop(rb))
        adj_a = self._adj[ra]
        for n in self._adj.pop(rb):
            self._adj[n].discard(rb)
            if n in adj_a:
                self._edges -= 1  # a shared neighbour: two edges become one
            else:
                self._adj[n].add(ra)
                adj_a.add(n)
        return True

    # -- queries ---------------------------------------------------------

    def nodes(self) -> list[str]:
        """Current representatives (post-coalescing nodes)."""
        return [n for n in self._parent if self._parent[n] == n]

    def all_names(self) -> list[str]:
        return list(self._parent)

    def edge_count(self) -> int:
        return self._edges

    def degree(self, name: str) -> int:
        return len(self._adj[self.find(name)])


@dataclass(slots=True)
class InterferenceStats:
    duchain_edges: int = 0
    opsem_edges: int = 0
    phi_coalesced: int = 0
    phi_blocked: int = 0


def build_interference_graph(
    func: IRFunction,
    liveness=None,
    availability=None,
) -> tuple[InterferenceGraph, InterferenceStats]:
    """Run the paper's backward scan over every block."""
    live = liveness or compute_liveness(func)
    avail = availability or compute_availability(func)
    graph = InterferenceGraph()
    stats = InterferenceStats()

    for name in func.defined_vars():
        graph.add_node(name)

    for bid in func.block_order():
        block = func.blocks[bid]
        # live ∧ available at block end, plus the branch condition,
        # which is read after every definition below (the φ parallel
        # copies included)
        current = avail.available_at_end(bid, live.live_out[bid])
        term = block.terminator
        if isinstance(term, Branch) and isinstance(term.condition, Var):
            current.add(term.condition.name)

        # SSA inversion will materialize each successor's φs as a
        # *parallel copy* at this block's end.  A φ-destination is
        # therefore defined here, simultaneously with every other φ's
        # source being read — so it must interfere with everything
        # live at this point except its own source (same value).
        # Without this, a source that dies on the edge (and is thus
        # invisible to the successor's scan) could share storage with
        # a destination that clobbers it mid-copy.
        for succ in block.successors():
            for phi in func.blocks[succ].phis():
                assert phi.phi_blocks is not None
                own_sources = {
                    a.name
                    for a, p in zip(phi.args, phi.phi_blocks)
                    if p == bid and isinstance(a, Var)
                }
                if not own_sources:
                    continue
                dest = phi.results[0]
                for other in current:
                    if other != dest and other not in own_sources:
                        stats.duchain_edges += graph.add_edge(dest, other)

        for instr in reversed(block.instrs):
            same_value = _same_value_sources(instr)
            # multiple results of one call are simultaneously live
            for i, res_a in enumerate(instr.results):
                for res_b in instr.results[i + 1 :]:
                    stats.duchain_edges += graph.add_edge(res_a, res_b)
            for res in instr.results:
                for other in current:
                    if other != res and other not in same_value:
                        stats.duchain_edges += graph.add_edge(res, other)
            for res in instr.results:
                current.discard(res)
            if instr.is_phi:
                # φ operands are used on the incoming edges, not here.
                continue
            for used in instr.used_vars():
                current.add(used)
    return graph, stats


def _same_value_sources(instr: Instr) -> set[str]:
    """Sources that hold the defined value itself (no interference).

    Only genuine copies qualify: on SSA, ``x = copy y`` means x and y
    denote one value wherever both are live.  A φ does *not* qualify —
    it executes once per reaching path with a different value each
    time, so an operand that stays live beyond the φ (it is then in
    the scan's live set) holds a different value than the φ result and
    must interfere with it.  (Operands that die at the φ are not in
    the set, so the usual coalescing cases are unaffected.)
    """
    if instr.op == "copy":
        return {a.name for a in instr.args if isinstance(a, Var)}
    return set()
