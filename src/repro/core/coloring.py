"""Greedy coloring heuristic (paper §2.4).

Visits nodes in the lexical order of the corresponding variable
definitions and assigns the smallest color consistent with the
neighbors — O(V + E).  As the paper stresses (§5), minimal-coloring
greediness is *not* storage-optimal; the classic 4/2/3 counterexample
ships as a unit test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.cfg import IRFunction

from repro.core.interference import InterferenceGraph


@dataclass(slots=True)
class Coloring:
    """color per SSA name (coalesced names share their node's color)."""

    color_of: dict[str, int] = field(default_factory=dict)
    num_colors: int = 0


def color_graph(
    graph: InterferenceGraph, lexical_order: list[str]
) -> Coloring:
    """Greedy smallest-consistent-color pass over ``lexical_order``."""
    node_color: dict[str, int] = {}
    coloring = Coloring()
    seen: set[str] = set()
    for name in lexical_order:
        rep = graph.find(name)
        if rep in seen:
            continue
        seen.add(rep)
        neighbor_colors = {
            node_color[n] for n in graph.neighbors(rep) if n in node_color
        }
        color = 0
        while color in neighbor_colors:
            color += 1
        node_color[rep] = color
        coloring.num_colors = max(coloring.num_colors, color + 1)
    for name in graph.all_names():
        coloring.color_of[name] = node_color[graph.find(name)]
    return coloring


def verify_coloring(
    graph: InterferenceGraph, coloring: Coloring
) -> None:
    """Assert no interfering pair shares a color (raises on violation)."""
    for node in graph.nodes():
        for neighbor in graph.neighbors(node):
            if coloring.color_of[node] == coloring.color_of[neighbor]:
                raise AssertionError(
                    f"coloring violation: {node} and {neighbor} interfere "
                    f"but share color {coloring.color_of[node]}"
                )


def coloring_order(func: IRFunction) -> list[str]:
    """Lexical definition order of variables, as the paper's heuristic."""
    return func.defined_vars()
