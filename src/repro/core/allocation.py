"""Phase 2 output: storage groups, stack/heap classes, resize marks.

Soundness note: Phase 1 guarantees that same-colored variables are
never simultaneously live-and-available, so *any* decomposition of a
color class is semantically safe; Phase 2's grouping is a quality
decision (spatial reuse, resize avoidance), exactly as the paper frames
it.

* Groups whose maximal element has a statically estimable size are
  **stack** allocated: one buffer of the maximal size per group, fixed
  for the procedure activation (§3.2.1).  Scalars map to C automatics.
* Groups with symbolic maximal sizes are **heap** allocated and resized
  on the fly to each member's needs (§3.2.2).  Each heap definition is
  annotated with the paper's superscripts:

  - ``∘``  — defined array never resized (size provably equal to a
    group member available at the definition, Example 1);
  - ``+``  — if resized, only grown (chained via ⪯, Example 2);
  - ``±``  — may need an arbitrary resize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.analysis.availability import AvailabilityInfo
from repro.ir.cfg import IRFunction
from repro.typing.infer import TypeEnvironment
from repro.typing.intrinsic import Intrinsic
from repro.typing.types import VarType

from repro.core.coloring import Coloring
from repro.core.decompose import decompose_color_class
from repro.core.interference import InterferenceGraph
from repro.core.storage_order import StorageOrder

NO_RESIZE = "nonresized"   # ∘
GROW_ONLY = "grown"        # +
MAY_RESIZE = "resizable"   # ±


class StorageClass(Enum):
    STACK = "stack"
    HEAP = "heap"


@dataclass(slots=True)
class StorageGroup:
    gid: int
    color: int
    storage: StorageClass
    intrinsic: Intrinsic
    root: str
    members: list[str] = field(default_factory=list)
    static_size: int | None = None  # bytes; None for HEAP groups

    @property
    def is_stack(self) -> bool:
        return self.storage is StorageClass.STACK


@dataclass(slots=True)
class ReductionStats:
    """The quantities of the paper's Table 2."""

    original_variable_count: int = 0
    static_subsumed: int = 0       # the `s` of the s/d column
    dynamic_subsumed: int = 0      # the `d` of the s/d column
    storage_reduction_bytes: int = 0  # static (stack) coalescing only
    group_count: int = 0
    color_count: int = 0
    #: units merged specifically by the ⪯ partial order (Phase 2), as
    #: opposed to φ-web sharing established in Phase 1 — the quantity
    #: the symbolic-criterion ablation turns off
    static_chain_subsumed: int = 0
    dynamic_chain_subsumed: int = 0

    @property
    def storage_reduction_kb(self) -> float:
        return self.storage_reduction_bytes / 1024.0


@dataclass(slots=True)
class AllocationPlan:
    groups: list[StorageGroup]
    group_of: dict[str, int]
    resize_marks: dict[str, str]
    stats: ReductionStats

    def group(self, name: str) -> StorageGroup:
        return self.groups[self.group_of[name]]

    def same_storage(self, a: str, b: str) -> bool:
        return (
            a in self.group_of
            and b in self.group_of
            and self.group_of[a] == self.group_of[b]
        )

    def stack_frame_bytes(self) -> int:
        return sum(
            g.static_size or 0 for g in self.groups if g.is_stack
        )


def _merged_type(env: TypeEnvironment, members: list[str]) -> VarType:
    merged = env.of(members[0])
    for name in members[1:]:
        merged = merged.join(env.of(name))
    return merged


def build_allocation_plan(
    func: IRFunction,
    env: TypeEnvironment,
    graph: InterferenceGraph,
    coloring: Coloring,
    availability: AvailabilityInfo,
    use_symbolic: bool = True,
) -> AllocationPlan:
    # Work per coalesced node: a φ-web shares one storage slot by
    # construction, so its members stay together with a joined type.
    rep_type: dict[str, VarType] = {}
    for rep in graph.nodes():
        rep_type[rep] = _merged_type(env, graph.members(rep))

    class _OverrideEnv:
        def of(self, name: str) -> VarType:
            return rep_type.get(name) or env.of(name)

    order = StorageOrder(
        env=_OverrideEnv(),  # type: ignore[arg-type]
        availability=availability,
        use_symbolic=use_symbolic,
    )

    by_color: dict[int, list[str]] = {}
    for rep in graph.nodes():
        by_color.setdefault(coloring.color_of[rep], []).append(rep)

    groups: list[StorageGroup] = []
    group_of: dict[str, int] = {}
    chain_merges: list[tuple[bool, int]] = []  # (is_stack, merged reps)
    for color in sorted(by_color):
        reps = sorted(by_color[color])
        for decomposed in decompose_color_class(reps, order):
            gid = len(groups)
            root = _pick_root(decomposed.members, order)
            vartype = rep_type[root]
            members: list[str] = []
            for rep in decomposed.members:
                members.extend(graph.members(rep))
            static_size = _group_static_size(decomposed.members, order)
            chain_merges.append(
                (static_size is not None, len(decomposed.members) - 1)
            )
            group = StorageGroup(
                gid=gid,
                color=color,
                storage=(
                    StorageClass.STACK
                    if static_size is not None
                    else StorageClass.HEAP
                ),
                intrinsic=vartype.intrinsic,
                root=root,
                members=sorted(members),
                static_size=static_size,
            )
            groups.append(group)
            for name in members:
                group_of[name] = gid

    resize_marks = _resize_marks(
        func, env, groups, group_of, availability
    )
    stats = _reduction_stats(func, env, graph, coloring, groups)
    for is_stack, merged in chain_merges:
        if is_stack:
            stats.static_chain_subsumed += merged
        else:
            stats.dynamic_chain_subsumed += merged
    return AllocationPlan(
        groups=groups,
        group_of=group_of,
        resize_marks=resize_marks,
        stats=stats,
    )


def _pick_root(reps: list[str], order: StorageOrder) -> str:
    """Choose the maximal member (largest static size, else first)."""
    static = [
        (size, r) for r in reps if (size := order.facts(r).size) is not None
    ]
    if static and len(static) == len(reps):
        return max(static)[1]
    return reps[0]


def _group_static_size(reps: list[str], order: StorageOrder) -> int | None:
    """Stack size = maximal static size; None if any member symbolic."""
    sizes = []
    for rep in reps:
        size = order.facts(rep).size
        if size is None:
            return None
        sizes.append(size)
    return max(sizes) if sizes else None


def _resize_marks(
    func: IRFunction,
    env: TypeEnvironment,
    groups: list[StorageGroup],
    group_of: dict[str, int],
    availability: AvailabilityInfo,
) -> dict[str, str]:
    marks: dict[str, str] = {}
    for instr in func.instructions():
        for res in instr.results:
            gid = group_of.get(res)
            if gid is None or groups[gid].is_stack:
                continue
            marks[res] = _mark_for(
                res, groups[gid], env, availability
            )
    return marks


def _mark_for(
    name: str,
    group: StorageGroup,
    env: TypeEnvironment,
    availability: AvailabilityInfo,
) -> str:
    own = env.of(name)
    grow = False
    for other in group.members:
        if other == name:
            continue
        if not availability.available_at_definition_of(other, name):
            continue
        other_type = env.of(other)
        if other_type.shape.numel() == own.shape.numel():
            return NO_RESIZE
        if other_type.shape.storage_le(own.shape):
            grow = True
    return GROW_ONLY if grow else MAY_RESIZE


def _reduction_stats(
    func: IRFunction,
    env: TypeEnvironment,
    graph: InterferenceGraph,
    coloring: Coloring,
    groups: list[StorageGroup],
) -> ReductionStats:
    stats = ReductionStats()
    stats.original_variable_count = len(graph.all_names())
    stats.color_count = coloring.num_colors
    stats.group_count = len(groups)
    for group in groups:
        extra = len(group.members) - 1
        if extra <= 0:
            continue
        if group.is_stack:
            stats.static_subsumed += extra
            member_sizes = [
                env.of(m).static_storage_size() or 0
                for m in group.members
            ]
            stats.storage_reduction_bytes += (
                sum(member_sizes) - (group.static_size or 0)
            )
        else:
            stats.dynamic_subsumed += extra
    return stats
