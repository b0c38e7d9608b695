"""Property-based tests for Phase 2's decomposition invariants."""

from collections import deque

from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.decompose import (
    Group,
    decompose_color_class,
    strongly_connected_components,
)
from repro.core.storage_order import StorageOrder
from repro.typing.intrinsic import Intrinsic
from repro.typing.ranges import Interval
from repro.typing.shape import ConstDim, Shape, ValueDim, dim_max
from repro.typing.types import VarType


class _Env:
    def __init__(self, table):
        self.table = table

    def of(self, name):
        return self.table[name]


class _NoAvail:
    def available_at_definition_of(self, u, v):
        return u == v


var_specs = st.lists(
    st.tuples(
        st.sampled_from([Intrinsic.REAL, Intrinsic.BOOLEAN,
                         Intrinsic.INTEGER]),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
    ),
    min_size=1,
    max_size=10,
)


def build(specs):
    table = {}
    for i, (intrinsic, r, c) in enumerate(specs):
        table[f"v{i}"] = VarType(
            intrinsic, Shape.matrix(r, c), Interval.top()
        )
    order = StorageOrder(env=_Env(table), availability=_NoAvail())
    return list(table), table, order


class TestDecomposeInvariants:
    @given(var_specs)
    def test_groups_partition_the_class(self, specs):
        names, table, order = build(specs)
        groups = decompose_color_class(names, order)
        members = [m for g in groups for m in g.members]
        assert sorted(members) == sorted(names)

    @given(var_specs)
    def test_group_root_bounds_members(self, specs):
        names, table, order = build(specs)
        for group in decompose_color_class(names, order):
            root_size = table[group.root].static_storage_size()
            for member in group.members:
                # the root must be a ⪯-upper bound via reachability:
                # at minimum, no member of the same intrinsic exceeds it
                member_type = table[member]
                if member_type.intrinsic == table[group.root].intrinsic:
                    assert (
                        member_type.static_storage_size() <= root_size
                    )

    @given(var_specs)
    def test_groups_are_intrinsic_homogeneous(self, specs):
        # ⪯ never relates different intrinsics, so every group is
        # type-pure (the paper's no-casting/no-alignment design choice)
        names, table, order = build(specs)
        for group in decompose_color_class(names, order):
            kinds = {table[m].intrinsic for m in group.members}
            assert len(kinds) == 1

    @given(var_specs)
    def test_same_intrinsic_forms_single_group(self, specs):
        # §3.2.1: all statically-estimable sizes of one intrinsic in a
        # color class form a chain ⇒ exactly one group per intrinsic
        names, table, order = build(specs)
        groups = decompose_color_class(names, order)
        intrinsics_present = {t.intrinsic for t in table.values()}
        assert len(groups) == len(intrinsics_present)

    @given(var_specs)
    def test_deterministic(self, specs):
        names, table, order = build(specs)
        a = decompose_color_class(names, order)
        b = decompose_color_class(names, order)
        assert [sorted(g.members) for g in a] == [
            sorted(g.members) for g in b
        ]


def pairwise_decompose(variables, order):
    """Reference: the ⪯ digraph built pair by pair, then Tarjan + BFS."""
    if not variables:
        return []
    succ = {v: [] for v in variables}
    for u in variables:
        for v in variables:
            if u != v and order.precedes(v, u):
                succ[u].append(v)
    sccs = strongly_connected_components(variables, succ)
    scc_of = {v: i for i, comp in enumerate(sccs) for v in comp}
    scc_succ = {i: set() for i in range(len(sccs))}
    in_degree = {i: 0 for i in range(len(sccs))}
    for u in variables:
        for v in succ[u]:
            a, b = scc_of[u], scc_of[v]
            if a != b and b not in scc_succ[a]:
                scc_succ[a].add(b)
                in_degree[b] += 1
    assigned = {}
    groups = []
    for i, comp in enumerate(sccs):
        if in_degree[i] != 0 or i in assigned:
            continue
        group = Group(root=comp[0])
        groups.append(group)
        queue = deque([i])
        assigned[i] = len(groups) - 1
        while queue:
            current = queue.popleft()
            group.members.extend(sccs[current])
            for nxt in scc_succ[current]:
                if nxt not in assigned:
                    assigned[nxt] = len(groups) - 1
                    queue.append(nxt)
    return groups


class _PairAvail:
    def __init__(self, pairs):
        self.pairs = pairs

    def available_at_definition_of(self, u, v):
        return u == v or (u, v) in self.pairs


_SYMBOLIC_DIMS = [
    ValueDim("n"),
    ValueDim("m"),
    dim_max(ValueDim("n"), ConstDim(4)),
    ConstDim(0),
    ConstDim(1),
    ConstDim(3),
]

#: a symbolic name with no ⪯ edges when nothing is available
_LONE_SYMBOLIC = ("symbolic", Intrinsic.BOOLEAN, ValueDim("n"), ConstDim(3))

static_spec = st.tuples(
    st.just("static"),
    st.sampled_from([Intrinsic.REAL, Intrinsic.BOOLEAN]),
    st.sampled_from([1, 2, 3, 4, 6]),  # few extents: many size ties
    st.sampled_from([1, 2, 3, 4, 6]),
)
symbolic_spec = st.tuples(
    st.just("symbolic"),
    st.sampled_from([Intrinsic.REAL, Intrinsic.BOOLEAN]),
    st.sampled_from(_SYMBOLIC_DIMS[:3]),
    st.sampled_from(_SYMBOLIC_DIMS),
)
mixed_class = st.tuples(
    st.lists(st.one_of(static_spec, symbolic_spec), min_size=1, max_size=24),
    st.sets(st.tuples(st.integers(0, 23), st.integers(0, 23))),
    st.permutations(range(24)),
    st.booleans(),
)


def build_mixed(spec):
    entries, avail_pairs, perm, use_symbolic = spec
    table = {}
    for i, (kind, intrinsic, a, b) in enumerate(entries):
        shape = Shape.matrix(a, b) if kind == "static" else Shape((a, b))
        # names in a scrambled order, so ``variables`` order differs
        # from the order the specs were drawn in
        table[f"v{perm[i]:02d}"] = VarType(intrinsic, shape, Interval.top())
    names = list(table)
    pairs = {
        (names[i], names[j])
        for i, j in avail_pairs
        if i < len(names) and j < len(names)
    }
    order = StorageOrder(
        env=_Env(table),
        availability=_PairAvail(pairs),
        use_symbolic=use_symbolic,
    )
    return sorted(names), order


class TestMatchesPairwiseReference:
    """The sorted static decomposition reproduces the pairwise one
    exactly: group order, roots and member order all feed the plan
    (gids, buffer names) and hence the generated C."""

    @given(mixed_class)
    # The forest walk visits a static part's smaller classes in the
    # iteration order of a set of SCC ids, which depends on the order
    # the ids went in once they collide in the set's table.  Here the
    # REAL classes of 8, 32 and 72 bytes get ids 0, 1 and 8, go in as
    # 1, 8, 0, and the group's members run v09, v07, v00, v08.
    @example(
        (
            [("static", Intrinsic.REAL, 2, 2)]
            + [_LONE_SYMBOLIC] * 6
            + [
                ("static", Intrinsic.REAL, 3, 3),
                ("static", Intrinsic.REAL, 1, 1),
                ("static", Intrinsic.REAL, 4, 4),
            ],
            set(),
            list(range(24)),
            True,
        )
    )
    def test_exact_output(self, spec):
        names, order = build_mixed(spec)
        ours = decompose_color_class(names, order)
        theirs = pairwise_decompose(names, order)
        assert [(g.root, g.members) for g in ours] == [
            (g.root, g.members) for g in theirs
        ]

    @given(var_specs)
    def test_exact_output_static_only(self, specs):
        names, table, order = build(specs)
        ours = decompose_color_class(names, order)
        theirs = pairwise_decompose(names, order)
        assert [(g.root, g.members) for g in ours] == [
            (g.root, g.members) for g in theirs
        ]
