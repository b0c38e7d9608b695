"""GCTD — the paper's contribution: Phase 1 interference/coloring and
Phase 2 type-based decomposition into storage groups."""

from repro.core.allocation import (
    AllocationPlan,
    GROW_ONLY,
    MAY_RESIZE,
    NO_RESIZE,
    ReductionStats,
    StorageClass,
    StorageGroup,
    build_allocation_plan,
)
from repro.core.coalesce import coalesce_phi_webs
from repro.core.coloring import (
    Coloring,
    color_graph,
    coloring_order,
    verify_coloring,
)
from repro.core.decompose import (
    Group,
    decompose_color_class,
    strongly_connected_components,
)
from repro.core.gctd import GCTDOptions, GCTDResult, run_gctd
from repro.core.interference import (
    InterferenceGraph,
    InterferenceStats,
    build_interference_graph,
)
from repro.core.opsem import OpsemConfig, add_operator_semantics_interference
from repro.core.partial import (
    PartialInterferenceReport,
    PartialPair,
    find_partial_interference,
)
from repro.core.storage_order import StorageOrder

__all__ = [
    "AllocationPlan",
    "GROW_ONLY",
    "MAY_RESIZE",
    "NO_RESIZE",
    "ReductionStats",
    "StorageClass",
    "StorageGroup",
    "build_allocation_plan",
    "coalesce_phi_webs",
    "Coloring",
    "color_graph",
    "coloring_order",
    "verify_coloring",
    "Group",
    "decompose_color_class",
    "strongly_connected_components",
    "GCTDOptions",
    "GCTDResult",
    "run_gctd",
    "InterferenceGraph",
    "InterferenceStats",
    "build_interference_graph",
    "OpsemConfig",
    "add_operator_semantics_interference",
    "PartialInterferenceReport",
    "PartialPair",
    "find_partial_interference",
    "StorageOrder",
]
