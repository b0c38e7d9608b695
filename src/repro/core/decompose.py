"""``Decompose-color-class`` (paper §3.3).

A color class V is decomposed into *groups* using the storage-size
partial order ⪯:

1. take the digraph over V with an edge from larger to smaller
   (x → y iff S(y) ⪯ S(x), y ≠ x) — oriented so that the roots of the
   forest below are the ⪯-*maximal* elements, as the paper's Lemma 1
   and in-degree-0 argument require;
2. find its strongly connected components and form the (acyclic)
   component graph G^SCC;
3. grow a forest by BFS from the in-degree-0 SCCs: every tree is one
   group, rooted at a maximal element that bounds the storage of all
   variables in the group.

Nodes reachable from two maximal chains are assigned wholly to the
first tree that reaches them, matching the paper's implementation
note.

Relation 1 only relates names of one intrinsic type and one
estimability class, so the digraph falls apart into parts.  On a
statically estimable part ⪯ is a total preorder and the digraph has
Θ(V²) edges: building it pair by pair cost Θ(V²) ⪯ tests per class.
Instead, those members are sorted by size once, and their SCCs, their
Tarjan emit order and the edges the forest walk reads are derived from
the sorted runs, in O(V log V).  Symbolic parts keep the pairwise
availability + ``storage_le`` test, because that relation really is
partial: O(S²) ⪯ tests for the S symbolic members.  The result —
group order, roots and member order — is the one Tarjan's algorithm
and the BFS give on the full digraph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.storage_order import StorageOrder
from repro.typing.intrinsic import Intrinsic


@dataclass(slots=True)
class Group:
    """One decomposition group: variables overlaid on a shared area."""

    root: str                       # a ⪯-maximal member
    members: list[str] = field(default_factory=list)


def strongly_connected_components(
    nodes: list[str], succ: dict[str, list[str]]
) -> list[list[str]]:
    """Iterative Tarjan SCC (no recursion: CFG-sized inputs only, but
    color classes can hold hundreds of temporaries)."""
    return [comp for _, comps in _tarjan_runs(nodes, succ) for comp in comps]


def _tarjan_runs(
    nodes: list[str], succ: dict[str, list[str]]
) -> list[tuple[str, list[list[str]]]]:
    """Tarjan's SCCs, batched per DFS start: ``(start, emitted SCCs)``."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    runs: list[tuple[str, list[list[str]]]] = []
    counter = 0

    for start in nodes:
        if start in index:
            continue
        result: list[list[str]] = []
        runs.append((start, result))
        work: list[tuple[str, int]] = [(start, 0)]
        while work:
            node, child_idx = work[-1]
            if child_idx == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = succ.get(node, [])
            while child_idx < len(children):
                child = children[child_idx]
                child_idx += 1
                if child not in index:
                    work[-1] = (node, child_idx)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work[-1] = (node, len(children))
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(component)
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return runs


def _static_runs(
    part: list[str], order: StorageOrder
) -> list[tuple[str, list[list[str]]]]:
    """:func:`_tarjan_runs` of one statically estimable part, edge-free.

    Static sizes form a total preorder, so the SCCs are the classes of
    equal size, and a DFS from ``v`` reaches every class no larger than
    S(v).  When the DFS discovers ``v``, every name of size ≤ S(v)
    that precedes ``v`` in ``part`` is already discovered, so a class
    is discovered in ``part`` order and Tarjan pops it reversed.  A run
    starts at each name larger than all before it and emits the
    classes not yet emitted up to its size, smallest first.
    """
    classes: dict[int, list[str]] = {}
    for v in part:
        classes.setdefault(order.facts(v).size, []).append(v)
    sizes = sorted(classes)
    runs: list[tuple[str, list[list[str]]]] = []
    emitted = 0
    for v in part:
        first = emitted
        while emitted < len(sizes) and sizes[emitted] <= order.facts(v).size:
            emitted += 1
        if emitted > first:
            runs.append(
                (v, [classes[size][::-1] for size in sizes[first:emitted]])
            )
    return runs


def decompose_color_class(
    variables: list[str], order: StorageOrder
) -> list[Group]:
    """Partition one color class into groups per the paper's algorithm."""
    if not variables:
        return []
    # Step 0: split V into the parts of the ⪯ digraph; only symbolic
    # parts get their edges (big → small) built.
    parts: dict[tuple[Intrinsic, bool], list[str]] = {}
    for v in variables:
        facts = order.facts(v)
        parts.setdefault((facts.intrinsic, facts.is_static), []).append(v)
    runs: list[tuple[str, list[list[str]]]] = []
    static_tops: list[tuple[str, list[str]]] = []  # (largest class, part)
    succ: dict[str, list[str]] = {}
    for (_, is_static), part in parts.items():
        if is_static:
            part_runs = _static_runs(part, order)
            largest = part_runs[-1][1][-1]  # the class emitted last
            static_tops.append((largest[0], part))
        else:
            for u in part:
                succ[u] = [
                    v for v in part if v != u and order.precedes(v, u)
                ]
            part_runs = _tarjan_runs(part, succ)
        runs.extend(part_runs)

    # Step 1: component graph.  Parts are disconnected, so Tarjan over
    # all of V emits each part's runs in the order of their starts.
    position = {v: i for i, v in enumerate(variables)}
    runs.sort(key=lambda run: position[run[0]])
    sccs = [comp for _, comps in runs for comp in comps]
    scc_of: dict[str, int] = {}
    for i, comp in enumerate(sccs):
        for v in comp:
            scc_of[v] = i
    scc_succ: dict[int, set[int]] = {i: set() for i in range(len(sccs))}
    in_degree: dict[int, int] = {i: 0 for i in range(len(sccs))}

    def add_component_edge(a: int, b: int) -> None:
        if a != b and b not in scc_succ[a]:
            scc_succ[a].add(b)
            in_degree[b] += 1

    # A static part's largest class reaches every other class of the
    # part directly, and its BFS claims them all, so the walk reads no
    # other edge there.  Adding them in ``variables`` order builds the
    # same set (and so the same iteration order) as the full digraph.
    for top_member, part in static_tops:
        for v in part:
            add_component_edge(scc_of[top_member], scc_of[v])
    for u in variables:
        for v in succ.get(u, ()):
            add_component_edge(scc_of[u], scc_of[v])

    # Step 2: BFS forest from in-degree-0 (maximal) components.
    assigned: dict[int, int] = {}  # scc id → group index
    groups: list[Group] = []
    for i, comp in enumerate(sccs):
        if in_degree[i] != 0 or i in assigned:
            continue
        group_index = len(groups)
        groups.append(Group(root=comp[0]))
        queue = deque([i])
        assigned[i] = group_index
        while queue:
            current = queue.popleft()
            groups[group_index].members.extend(sccs[current])
            for nxt in scc_succ[current]:
                if nxt not in assigned:
                    assigned[nxt] = group_index
                    queue.append(nxt)
    return groups
