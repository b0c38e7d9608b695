"""Unit tests for GCTD Phase 2: the partial order, decomposition, and
the allocation plan — including the paper's worked examples."""

from repro.analysis.availability import compute_availability
from repro.analysis.pass_manager import run_cleanup_pipeline
from repro.core.allocation import (
    GROW_ONLY,
    MAY_RESIZE,
    NO_RESIZE,
    StorageClass,
)
from repro.core.decompose import (
    decompose_color_class,
    strongly_connected_components,
)
from repro.core.gctd import GCTDOptions, run_gctd
from repro.core.storage_order import StorageOrder
from repro.frontend.parser import parse_program
from repro.ir.lower import lower_program
from repro.ssa.construct import base_name, construct_ssa
from repro.typing.infer import infer_types


def compile_to_gctd(text, cleanup=True, options=None, **sources):
    files = {"main.m": text}
    for name, src in sources.items():
        files[f"{name}.m"] = src
    func = construct_ssa(lower_program(parse_program(files)))
    if cleanup:
        run_cleanup_pipeline(func)
    env = infer_types(func)
    result = run_gctd(func, env, options)
    return func, env, result


def versions_of(func, base):
    return [
        r
        for i in func.instructions()
        for r in i.results
        if base_name(r) == base
    ]


class TestSCC:
    def test_simple_cycle(self):
        sccs = strongly_connected_components(
            ["a", "b", "c"], {"a": ["b"], "b": ["a"], "c": []}
        )
        comps = {frozenset(c) for c in sccs}
        assert frozenset({"a", "b"}) in comps
        assert frozenset({"c"}) in comps

    def test_dag_all_singletons(self):
        sccs = strongly_connected_components(
            ["a", "b", "c"], {"a": ["b"], "b": ["c"], "c": []}
        )
        assert all(len(c) == 1 for c in sccs)

    def test_nested_cycles(self):
        succ = {
            "a": ["b"],
            "b": ["c", "a"],
            "c": ["d"],
            "d": ["c"],
            "e": [],
        }
        sccs = strongly_connected_components(list("abcde"), succ)
        comps = {frozenset(c) for c in sccs}
        assert frozenset({"a", "b"}) in comps
        assert frozenset({"c", "d"}) in comps


class TestStorageOrder:
    def test_static_chain(self):
        func, env, result = compile_to_gctd(
            "a = rand(2); b = rand(4); c = rand(3);"
            " disp(a); disp(b); disp(c);"
        )
        avail = compute_availability(func)
        order = StorageOrder(env=env, availability=avail)
        a = versions_of(func, "a")[0]
        b = versions_of(func, "b")[0]
        c = versions_of(func, "c")[0]
        assert order.precedes(a, b)      # 32 elems ≤ 128 elems… bytes
        assert order.precedes(a, c)
        assert order.precedes(c, b)
        assert not order.precedes(b, a)

    def test_different_intrinsics_unrelated(self):
        func, env, result = compile_to_gctd(
            "a = zeros(3); b = eye(3); disp(a); disp(b);"
        )
        avail = compute_availability(func)
        order = StorageOrder(env=env, availability=avail)
        a = versions_of(func, "a")[0]
        b = versions_of(func, "b")[0]
        assert not order.precedes(a, b)  # REAL vs BOOLEAN
        assert not order.precedes(b, a)

    def test_static_symbolic_never_related(self):
        # paper: "a and b won't share storage … if the size of only one
        # of them can be statically estimated"
        func, env, result = compile_to_gctd(
            "n = mystery(); a = zeros(5); b = zeros(n); disp(a); disp(b);",
            mystery="function y = mystery()\ny = rand(1) * 50 + 1;\n",
        )
        avail = compute_availability(func)
        order = StorageOrder(env=env, availability=avail)
        a = versions_of(func, "a")[0]
        b = versions_of(func, "b")[0]
        assert not order.precedes(a, b)
        assert not order.precedes(b, a)

    def test_symbolic_requires_availability(self):
        func, env, result = compile_to_gctd(
            "q = rand(1); n = mystery();\n"
            "if q > 0.5\n a = zeros(n); s = sum(sum(a));\n"
            "else\n b = zeros(n); s = sum(sum(b));\nend\ndisp(s);",
            mystery="function y = mystery()\ny = rand(1) * 50 + 1;\n",
        )
        avail = compute_availability(func)
        order = StorageOrder(env=env, availability=avail)
        a = versions_of(func, "a")[0]
        b = versions_of(func, "b")[0]
        # same symbolic size but on exclusive paths: not related
        assert not order.precedes(a, b)
        assert not order.precedes(b, a)

    def test_symbolic_ablation(self):
        func, env, result = compile_to_gctd(
            "n = mystery(); a = zeros(n); b = a + 1; disp(b);",
            mystery="function y = mystery()\ny = rand(1) * 50 + 1;\n",
        )
        avail = compute_availability(func)
        a = versions_of(func, "a")[0]
        b = versions_of(func, "b")[0]
        with_symbolic = StorageOrder(env=env, availability=avail)
        without = StorageOrder(
            env=env, availability=avail, use_symbolic=False
        )
        assert with_symbolic.precedes(a, b)
        assert not without.precedes(a, b)


class TestDecompose:
    def test_static_chain_single_group(self):
        # §3.2.1: all static sizes of one intrinsic form a single chain
        func, env, result = compile_to_gctd(
            "a = zeros(2); s1 = sum(sum(a));\n"
            "b = zeros(4); s2 = sum(sum(b));\n"
            "disp(s1 + s2);"
        )
        plan = result.plan
        a = versions_of(func, "a")[0]
        b = versions_of(func, "b")[0]
        # a and b do not interfere and are comparable: same group,
        # stack allocated at the maximal size
        if plan.same_storage(a, b):
            group = plan.group(a)
            assert group.is_stack
            assert group.static_size == 4 * 4 * 8

    def test_incomparable_split_into_groups(self):
        avail_stub = compute_availability(
            construct_ssa(
                lower_program(
                    parse_program({"m.m": "x = 1;"})
                )
            )
        )

        class FakeEnv:
            def __init__(self, table):
                self.table = table

            def of(self, name):
                return self.table[name]

        from repro.typing.intrinsic import Intrinsic
        from repro.typing.ranges import Interval
        from repro.typing.shape import Shape
        from repro.typing.types import VarType

        env = FakeEnv(
            {
                "big_real": VarType(
                    Intrinsic.REAL, Shape.matrix(10, 10), Interval.top()
                ),
                "small_real": VarType(
                    Intrinsic.REAL, Shape.matrix(2, 2), Interval.top()
                ),
                "bool_arr": VarType(
                    Intrinsic.BOOLEAN, Shape.matrix(5, 5), Interval.top()
                ),
            }
        )
        order = StorageOrder(env=env, availability=avail_stub)
        groups = decompose_color_class(
            ["big_real", "small_real", "bool_arr"], order
        )
        assert len(groups) == 2
        by_root = {g.root: set(g.members) for g in groups}
        assert {"big_real", "small_real"} in by_root.values()
        assert {"bool_arr"} in by_root.values()

    def test_group_root_is_maximal(self):
        func, env, result = compile_to_gctd(
            "a = zeros(2); s1 = sum(sum(a));\n"
            "b = zeros(6); s2 = sum(sum(b));\ndisp(s1 + s2);"
        )
        for group in result.plan.groups:
            if group.is_stack and len(group.members) > 1:
                sizes = [
                    env.of(m).static_storage_size() or 0
                    for m in group.members
                ]
                root_size = env.of(group.root).static_storage_size()
                assert root_size == max(sizes)


class TestPaperExamples:
    def test_example1_nonresized_chain(self):
        """Example 1: t1→t2→t3 elementwise chain on unknown t0 shares
        one storage, and no definition needs a resize."""
        func, env, result = compile_to_gctd(
            "t0 = mystery();\n"
            "t1 = t0 - 1.345;\n"
            "t2 = 2.788 * t1;\n"
            "t3 = tan(t2);\n"
            "disp(t3);",
            mystery=(
                "function y = mystery()\n"
                "n = floor(rand(1) * 5) + 1;\n"
                "y = rand(n, n) * 4i;\n"
            ),
        )
        plan = result.plan
        # cleanup may rename t0..t3; locate the chain by its operations
        instrs = func.instructions()
        t1 = [i for i in instrs if i.op == "sub"][-1].results[0]
        t2 = [i for i in instrs if i.op in ("mul", "elmul")][-1].results[0]
        t3 = [i for i in instrs if i.op == "call:tan"][-1].results[0]
        names = [t1, t2, t3]
        gids = {plan.group_of[n] for n in names}
        assert len(gids) == 1, "the chain shares one group"
        group = plan.groups[gids.pop()]
        assert group.storage is StorageClass.HEAP
        # t1..t3 definitions need no resize (∘ in the paper's notation)
        for n in (t2, t3):
            assert plan.resize_marks[n] == NO_RESIZE

    def test_example2_growable(self):
        """Example 2: b = subsasgn(eye(x, y), …) shares a's storage and
        is marked grow-only."""
        func, env, result = compile_to_gctd(
            "x = mystery(); y = mystery();\n"
            "a = eye(x, y);\n"
            "a(1, 2) = 1;\n"
            "disp(a);",
            mystery=(
                "function v = mystery()\n"
                "v = floor(rand(1) * 9) + 2;\n"
            ),
            cleanup=True,
        )
        plan = result.plan
        a_versions = versions_of(func, "a")
        assert len(a_versions) >= 2
        first, second = a_versions[0], a_versions[1]
        assert plan.same_storage(first, second)
        group = plan.group(first)
        assert group.storage is StorageClass.HEAP
        assert plan.resize_marks[second] in (GROW_ONLY, NO_RESIZE)

    def test_section5_nonoptimality(self):
        """§5: sizes 4/2/3, one edge A–B.  The greedy minimal coloring
        can aggregate 7 units where 6 would do — demonstrate that the
        implementation is (knowingly) nonoptimal."""
        from repro.core.coloring import color_graph
        from repro.core.interference import InterferenceGraph

        g = InterferenceGraph()
        g.add_edge("A", "B")
        g.add_node("C")
        coloring = color_graph(g, ["A", "B", "C"])
        assert coloring.num_colors == 2
        # greedy lexical order puts C with A (both color 0): aggregate
        # max(4,3) + 2 = 6 here — but order ["B", "A", "C"] gives
        # C with B: max(2,3) + 4 = 7.  Either way a minimal coloring;
        # the aggregate depends on the order, proving nonoptimality.
        c2 = color_graph(g, ["B", "A", "C"])
        agg1 = _aggregate(coloring, {"A": 4, "B": 2, "C": 3})
        agg2 = _aggregate(c2, {"A": 4, "B": 2, "C": 3})
        assert {agg1, agg2} == {6, 7}


def _aggregate(coloring, sizes):
    classes = {}
    for name, color in coloring.color_of.items():
        classes.setdefault(color, []).append(sizes[name])
    return sum(max(v) for v in classes.values())


class TestAllocationPlan:
    def test_scalars_are_stack(self):
        func, env, result = compile_to_gctd("x = 1 + 2; disp(x);")
        for group in result.plan.groups:
            assert group.is_stack

    def test_symbolic_arrays_are_heap(self):
        func, env, result = compile_to_gctd(
            "n = mystery(); a = zeros(n); disp(a);",
            mystery="function y = mystery()\ny = rand(1) * 50 + 1;\n",
        )
        a = versions_of(func, "a")[0]
        assert result.plan.group(a).storage is StorageClass.HEAP

    def test_stats_count_subsumption(self):
        # rand (impure) keeps the two arrays distinct under CSE; a's
        # whole web is dead before b is created, so b can reuse it
        func, env, result = compile_to_gctd(
            "a = rand(10); disp(sum(sum(a)));\n"
            "b = rand(10); disp(sum(sum(b)));\n"
        )
        stats = result.plan.stats
        assert stats.original_variable_count > 0
        # a and b are coalescible: at least one static subsumption
        assert stats.static_subsumed >= 1
        assert stats.storage_reduction_bytes >= 10 * 10 * 8

    def test_disabled_gctd_trivial_plan(self):
        func, env, result = compile_to_gctd(
            "a = zeros(4); b = a + 1; disp(b);",
            options=GCTDOptions(enabled=False),
        )
        plan = result.plan
        assert plan.stats.static_subsumed == 0
        assert plan.stats.dynamic_subsumed == 0
        assert all(len(g.members) == 1 for g in plan.groups)

    def test_trivial_and_fallback_plans_skip_the_analyses(
        self, monkeypatch
    ):
        import repro.core.gctd as gctd

        def refuse(func):
            raise AssertionError("analysis run for a plan that reads none")

        monkeypatch.setattr(gctd, "compute_liveness", refuse)
        monkeypatch.setattr(gctd, "compute_availability", refuse)
        func, env, result = compile_to_gctd(
            "a = zeros(4); b = a + 1; disp(b);",
            options=GCTDOptions(enabled=False),
        )
        assert all(len(g.members) == 1 for g in result.plan.groups)
        fallback = gctd.mcc_fallback_result(func, env)
        assert all(
            g.storage is StorageClass.HEAP for g in fallback.plan.groups
        )

    def test_stack_frame_bytes(self):
        func, env, result = compile_to_gctd(
            "a = zeros(10); disp(a);"
        )
        assert result.plan.stack_frame_bytes() >= 800

    def test_plan_covers_all_variables(self):
        func, env, result = compile_to_gctd(
            "a = rand(3); b = a + 1;\n"
            "if b(1, 1) > 0.5\n c = b * 2;\nelse\n c = b;\nend\n"
            "disp(sum(sum(c)));"
        )
        for name in func.defined_vars():
            assert name in result.plan.group_of

    def test_reduction_vs_variable_count(self):
        func, env, result = compile_to_gctd(
            "a = zeros(8); s = sum(sum(a)); b = zeros(8);"
            " t = sum(sum(b)); disp(s + t);"
        )
        stats = result.plan.stats
        subsumed = stats.static_subsumed + stats.dynamic_subsumed
        assert subsumed < stats.original_variable_count
