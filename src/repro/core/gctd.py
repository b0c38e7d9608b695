"""GCTD driver: Graph Coloring with Type-based Decomposition.

``run_gctd`` is the paper's algorithm end to end:

Phase 1 — build the interference graph from liveness ∧ availability,
add operator-semantics conflicts resolved with inferred types (§2.3),
coalesce φ-webs (§2.2.1), and greedily color (§2.4).

Phase 2 — decompose every color class into groups with the
storage-size partial order (§3.2–3.3) and produce the allocation plan
(stack/heap, shared buffers, resize marks).

Every step has an ablation switch so the benchmarks can reproduce the
paper's "with/without GCTD" comparison (Figure 6) and probe the design
choices individually.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.availability import compute_availability
from repro.analysis.liveness import compute_liveness
from repro.ir.cfg import IRFunction
from repro.typing.infer import TypeEnvironment

from repro.core.allocation import (
    MAY_RESIZE,
    AllocationPlan,
    ReductionStats,
    StorageClass,
    StorageGroup,
    build_allocation_plan,
)
from repro.core.coalesce import coalesce_phi_webs
from repro.core.coloring import color_graph, coloring_order, verify_coloring
from repro.core.interference import (
    InterferenceGraph,
    InterferenceStats,
    build_interference_graph,
)
from repro.core.opsem import OpsemConfig, add_operator_semantics_interference


@dataclass(slots=True)
class GCTDOptions:
    enabled: bool = True                 # Figure 6's on/off switch
    opsem: OpsemConfig = field(default_factory=OpsemConfig)
    phi_coalescing: bool = True
    phase2_symbolic: bool = True         # Relation 1's second criterion
    verify: bool = True


@dataclass(slots=True)
class GCTDResult:
    graph: InterferenceGraph
    plan: AllocationPlan
    interference_stats: InterferenceStats


def run_gctd(
    func: IRFunction,
    env: TypeEnvironment,
    options: GCTDOptions | None = None,
) -> GCTDResult:
    """Run both GCTD phases on an SSA function with inferred types."""
    options = options or GCTDOptions()
    if not options.enabled:
        return _singleton_result(func, env, all_heap=False)

    liveness = compute_liveness(func)
    availability = compute_availability(func)
    graph, stats = build_interference_graph(func, liveness, availability)
    add_operator_semantics_interference(
        func, graph, env, options.opsem, stats
    )
    if options.phi_coalescing:
        coalesce_phi_webs(func, graph, stats)

    coloring = color_graph(graph, coloring_order(func))
    if options.verify:
        verify_coloring(graph, coloring)

    plan = build_allocation_plan(
        func,
        env,
        graph,
        coloring,
        availability,
        use_symbolic=options.phase2_symbolic,
    )
    return GCTDResult(graph=graph, plan=plan, interference_stats=stats)


def mcc_fallback_result(func: IRFunction, env: TypeEnvironment) -> GCTDResult:
    """The mcc 2.2 allocation model: every variable alone, on the heap.

    This is the graceful-degradation fallback the pipeline reaches for
    when GCTD itself fails (crash, pathological slowness): no sharing,
    no stack promotion, every definition free to resize.  It is the
    paper's baseline model, so it is *always* sound — singleton groups
    cannot violate liveness or operator semantics, an all-heap plan
    makes the stack check vacuous, and a ``±`` mark on every definition
    is justified by construction.  Callers still run the independent
    checker over it; soundness here is cheap insurance, not an excuse
    to skip verification.
    """
    return _singleton_result(func, env, all_heap=True)


def _singleton_result(
    func: IRFunction, env: TypeEnvironment, *, all_heap: bool
) -> GCTDResult:
    """No coalescing at all: one group per variable.

    With ``all_heap`` off this is Figure 6's no-GCTD baseline: a name
    of static size gets its own stack slot, the rest the heap, and no
    definition is marked to resize.  φ-webs must still share storage
    for out-of-SSA correctness *not* to insert array copies…  but that
    is exactly what the paper's baseline pays for: without GCTD, the
    reintroduced copies stay.  So here each SSA name really does get
    its own storage.
    """
    graph = InterferenceGraph()
    names = func.defined_vars()
    groups: list[StorageGroup] = []
    for i, name in enumerate(names):
        graph.add_node(name)
        vartype = env.of(name)
        size = None if all_heap else vartype.static_storage_size()
        groups.append(
            StorageGroup(
                gid=i,
                color=i,
                storage=(
                    StorageClass.HEAP if size is None
                    else StorageClass.STACK
                ),
                intrinsic=vartype.intrinsic,
                root=name,
                members=[name],
                static_size=size,
            )
        )
    plan = AllocationPlan(
        groups=groups,
        group_of={name: i for i, name in enumerate(names)},
        resize_marks=dict.fromkeys(names, MAY_RESIZE) if all_heap else {},
        stats=ReductionStats(
            original_variable_count=len(names),
            group_count=len(groups),
            color_count=len(names),
        ),
    )
    return GCTDResult(
        graph=graph, plan=plan, interference_stats=InterferenceStats()
    )
