"""Unit tests for Phase 1: interference graph, opsem edges, coalescing,
coloring."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.pass_manager import run_cleanup_pipeline
from repro.bench.suite import BENCHMARK_NAMES, load_sources
from repro.compiler.pipeline import compile_program
from repro.core.coalesce import coalesce_phi_webs
from repro.core.coloring import (
    color_graph,
    coloring_order,
    verify_coloring,
)
from repro.core.interference import (
    InterferenceGraph,
    build_interference_graph,
)
from repro.core.opsem import OpsemConfig, add_operator_semantics_interference
from repro.frontend.parser import parse_program
from repro.ir.lower import lower_program
from repro.ssa.construct import base_name, construct_ssa
from repro.typing.infer import infer_types


def prepare(text, cleanup=True, **sources):
    files = {"main.m": text}
    for name, src in sources.items():
        files[f"{name}.m"] = src
    func = construct_ssa(lower_program(parse_program(files)))
    if cleanup:
        run_cleanup_pipeline(func)
    env = infer_types(func)
    return func, env


def last_version(func, base):
    versions = [
        r
        for i in func.instructions()
        for r in i.results
        if base_name(r) == base
    ]
    assert versions, f"no versions of {base}"
    return versions[-1]


class TestGraphStructure:
    def test_union_find_coalesce(self):
        g = InterferenceGraph()
        for n in "abcd":
            g.add_node(n)
        g.add_edge("a", "b")
        assert g.coalesce("c", "d")
        assert g.find("c") == g.find("d")
        assert set(g.members("c")) == {"c", "d"}

    def test_coalesce_interfering_fails(self):
        g = InterferenceGraph()
        g.add_edge("a", "b")
        assert not g.coalesce("a", "b")

    def test_edges_survive_coalescing(self):
        g = InterferenceGraph()
        g.add_edge("a", "b")
        g.add_node("c")
        g.coalesce("b", "c")
        # a must now interfere with the merged node, via either name
        assert g.interferes("a", "c")
        assert g.interferes("a", "b")

    def test_idempotent_edges(self):
        g = InterferenceGraph()
        assert g.add_edge("a", "b")
        assert not g.add_edge("b", "a")
        assert not g.add_edge("a", "a")
        assert g.edge_count() == 1

    def test_coalescing_merges_shared_edges(self):
        g = InterferenceGraph()
        g.add_edge("a", "x")
        g.add_edge("b", "x")
        g.add_edge("b", "y")
        assert g.coalesce("a", "b")
        assert g.edge_count() == 2 == _recounted_edges(g)
        assert not g.add_edge("a", "y")  # now one node, already joined

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["edge", "coalesce"]),
                st.sampled_from("abcdef"),
                st.sampled_from("abcdef"),
            ),
            max_size=40,
        )
    )
    def test_running_edge_count_matches_adjacency(self, ops):
        g = InterferenceGraph()
        for op, a, b in ops:
            if op == "edge":
                new = g.find(a) != g.find(b) and not g.interferes(a, b)
                assert g.add_edge(a, b) == new
            else:
                g.coalesce(a, b)
            assert g.edge_count() == _recounted_edges(g)


def _recounted_edges(graph):
    return sum(len(graph.neighbors(n)) for n in graph.nodes()) // 2


class TestSuiteEdgeCounters:
    """Telemetry counts each edge of the graph once (before coalescing)."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_counters_match_the_graph(self, name):
        result = compile_program(load_sources(name), f"{name}_drv")
        func, env = result.ssa_func, result.env
        graph, stats = build_interference_graph(func)
        add_operator_semantics_interference(
            func, graph, env, OpsemConfig(), stats
        )
        assert stats.duchain_edges + stats.opsem_edges == graph.edge_count()
        assert graph.edge_count() == _recounted_edges(graph)


class TestDuChainInterference:
    def test_overlapping_duchains_interfere(self):
        # paper §2.1: a and b have overlapping du-chains
        func, env = prepare(
            "a = rand(2, 2); b = rand(2, 2); c = a(1, 1); d = b + c;"
            " disp(d);"
        )
        graph, _ = build_interference_graph(func)
        assert graph.interferes(
            last_version(func, "a"), last_version(func, "b")
        )

    def test_sequential_dead_variables_dont_interfere(self):
        func, env = prepare(
            "a = rand(3); s = sum(sum(a)); b = rand(3); t = sum(sum(b));"
            " d = s + t; disp(d);"
        )
        graph, _ = build_interference_graph(func)
        assert not graph.interferes(
            last_version(func, "a"), last_version(func, "b")
        )

    def test_copy_does_not_interfere_with_source(self):
        func, env = prepare(
            "a = rand(2); b = a; disp(b);", cleanup=False
        )
        graph, _ = build_interference_graph(func)
        assert not graph.interferes(
            last_version(func, "a"), last_version(func, "b")
        )

    def test_branch_sides_dont_interfere(self):
        # x and y live on opposite sides: never both available
        func, env = prepare(
            "q = rand(1);\n"
            "if q > 0.5\n x = rand(4); s = sum(sum(x));\n"
            "else\n y = rand(4); s = sum(sum(y));\nend\ndisp(s);"
        )
        graph, _ = build_interference_graph(func)
        assert not graph.interferes(
            last_version(func, "x"), last_version(func, "y")
        )

    def test_loop_carried_interference(self):
        func, env = prepare(
            "a = rand(3); s = 0;\n"
            "for i = 1:3\n s = s + a(i, 1);\nend\ndisp(s);"
        )
        graph, _ = build_interference_graph(func)
        # `a` is live across the loop; every `s` version in the loop
        # interferes with it
        s_final = last_version(func, "s")
        assert graph.interferes(last_version(func, "a"), s_final)


class TestOperatorSemantics:
    def test_matrix_multiply_adds_edges(self):
        func, env = prepare(
            "a = rand(3); b = rand(3); c = a * b; disp(c);"
        )
        graph, _ = build_interference_graph(func)
        add_operator_semantics_interference(func, graph, env)
        c = last_version(func, "c")
        assert graph.interferes(c, last_version(func, "a"))
        assert graph.interferes(c, last_version(func, "b"))

    def test_scalar_operand_removes_conflict(self):
        # paper §2.3: c = a*b with scalar a ⇒ no opsem edges
        func, env = prepare("b = rand(3); c = 2 * b; disp(c);")
        graph, _ = build_interference_graph(func)
        added = add_operator_semantics_interference(func, graph, env)
        c = last_version(func, "c")
        assert not graph.interferes(c, last_version(func, "b"))

    def test_without_type_info_conservative(self):
        func, env = prepare("b = rand(3); c = 2 * b; disp(c);")
        graph, _ = build_interference_graph(func)
        config = OpsemConfig(use_type_info=False)
        add_operator_semantics_interference(func, graph, env, config)
        # `2` is a literal (still provably scalar even without the env)…
        # use a variable scalar to see the difference:
        func2, env2 = prepare(
            "k = rand(1); b = rand(3); c = k * b; disp(c);"
        )
        g2, _ = build_interference_graph(func2)
        add_operator_semantics_interference(
            func2, g2, env2, OpsemConfig(use_type_info=False)
        )
        assert g2.interferes(
            last_version(func2, "c"), last_version(func2, "b")
        )
        g3, _ = build_interference_graph(func2)
        add_operator_semantics_interference(func2, g3, env2)
        assert not g3.interferes(
            last_version(func2, "c"), last_version(func2, "b")
        )

    def test_array_add_no_edges(self):
        # §2.3.1: array + is always in-place computable
        func, env = prepare(
            "a = rand(3); b = rand(3); c = a + b; disp(c);"
        )
        graph, _ = build_interference_graph(func)
        add_operator_semantics_interference(func, graph, env)
        c = last_version(func, "c")
        assert not graph.interferes(c, last_version(func, "a"))
        assert not graph.interferes(c, last_version(func, "b"))

    def test_subsref_scalar_subscript_inplace(self):
        # §2.3.2: c = a(1) can be computed in place in a
        func, env = prepare("a = rand(2); c = a(1, 1); disp(c);")
        graph, _ = build_interference_graph(func)
        add_operator_semantics_interference(func, graph, env)
        assert not graph.interferes(
            last_version(func, "c"), last_version(func, "a")
        )

    def test_subsref_array_subscript_conflicts(self):
        # §2.3.2: a(4:-1:1) permutes — no in-place
        func, env = prepare(
            "a = rand(2); e = 4:-1:1; c = a(e); disp(c);"
        )
        graph, _ = build_interference_graph(func)
        add_operator_semantics_interference(func, graph, env)
        assert graph.interferes(
            last_version(func, "c"), last_version(func, "a")
        )

    def test_subsasgn_never_conflicts_with_base(self):
        # §2.3.3.1: b formed in a by computing elements backward
        func, env = prepare(
            "a = eye(4); a(2, 2) = 5; disp(a);", cleanup=False
        )
        graph, _ = build_interference_graph(func)
        add_operator_semantics_interference(func, graph, env)
        versions = [
            r
            for i in func.instructions()
            for r in i.results
            if base_name(r) == "a"
        ]
        assert len(versions) >= 2
        first, second = versions[0], versions[1]
        assert not graph.interferes(first, second)

    def test_transpose_matrix_conflicts(self):
        func, env = prepare("a = rand(3, 4); b = a'; disp(b);")
        graph, _ = build_interference_graph(func)
        add_operator_semantics_interference(func, graph, env)
        assert graph.interferes(
            last_version(func, "b"), last_version(func, "a")
        )

    def test_transpose_vector_inplace(self):
        # a row→column transpose keeps the column-major layout
        func, env = prepare("a = rand(1, 5); b = a'; disp(b);")
        graph, _ = build_interference_graph(func)
        add_operator_semantics_interference(func, graph, env)
        assert not graph.interferes(
            last_version(func, "b"), last_version(func, "a")
        )

    def test_elementwise_builtin_inplace(self):
        func, env = prepare("a = rand(4); b = sqrt(a); disp(b);")
        graph, _ = build_interference_graph(func)
        add_operator_semantics_interference(func, graph, env)
        assert not graph.interferes(
            last_version(func, "b"), last_version(func, "a")
        )

    def test_permuting_builtin_conflicts(self):
        func, env = prepare("a = rand(4); b = fliplr(a); disp(b);")
        graph, _ = build_interference_graph(func)
        add_operator_semantics_interference(func, graph, env)
        assert graph.interferes(
            last_version(func, "b"), last_version(func, "a")
        )

    def test_disabled_opsem_adds_nothing(self):
        func, env = prepare(
            "a = rand(3); b = rand(3); c = a * b; disp(c);"
        )
        graph, _ = build_interference_graph(func)
        added = add_operator_semantics_interference(
            func, graph, env, OpsemConfig(enabled=False)
        )
        assert added == 0


class TestPhiCoalescing:
    def test_branch_phi_coalesced(self):
        func, env = prepare(
            "q = rand(1);\n"
            "if q > 0.5\n b = rand(4);\nelse\n b = rand(4) + 1;\nend\n"
            "disp(sum(sum(b)));"
        )
        graph, _ = build_interference_graph(func)
        merged = coalesce_phi_webs(func, graph)
        assert merged >= 1

    def test_interfering_phi_not_coalesced(self):
        # the paper's s1/t2 pattern: operand still live after the φ def
        func, env = prepare(
            "s = rand(3); t = rand(3);\n"
            "for k = 1:3\n u = t; t = s; s = u + 1;\nend\n"
            "disp(sum(sum(s))); disp(sum(sum(t)));",
            cleanup=False,
        )
        graph, _ = build_interference_graph(func)
        coalesce_phi_webs(func, graph)
        # correctness: coalesced nodes never interfere internally
        for node in graph.nodes():
            assert node not in graph.neighbors(node)


class TestColoring:
    def test_coloring_valid_on_program(self):
        func, env = prepare(
            "a = rand(3); b = a + 1; c = b * 2; d = c(1, 1); disp(d);"
        )
        graph, _ = build_interference_graph(func)
        add_operator_semantics_interference(func, graph, env)
        coalesce_phi_webs(func, graph)
        coloring = color_graph(graph, coloring_order(func))
        verify_coloring(graph, coloring)

    def test_triangle_needs_three_colors(self):
        g = InterferenceGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("a", "c")
        coloring = color_graph(g, ["a", "b", "c"])
        assert coloring.num_colors == 3

    def test_chain_needs_two_colors(self):
        g = InterferenceGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        coloring = color_graph(g, ["a", "b", "c"])
        assert coloring.num_colors == 2
        assert coloring.color_of["a"] == coloring.color_of["c"]

    def test_coalesced_nodes_share_color(self):
        g = InterferenceGraph()
        g.add_edge("a", "b")
        g.add_node("c")
        g.coalesce("a", "c")
        coloring = color_graph(g, ["a", "b", "c"])
        assert coloring.color_of["a"] == coloring.color_of["c"]

    def test_verify_rejects_bad_coloring(self):
        g = InterferenceGraph()
        g.add_edge("a", "b")
        from repro.core.coloring import Coloring

        bad = Coloring(color_of={"a": 0, "b": 0}, num_colors=1)
        with pytest.raises(AssertionError):
            verify_coloring(g, bad)


def test_branch_condition_interferes_with_later_definitions():
    # CSE merges the `if` condition with the dead `u > 0.5` of the first
    # `&&`, so the condition is defined well before the branch reads it
    func, _ = prepare(
        "s = rand(1); u = rand(1);\n"
        "t = (u > 0.5 && s < 0.5);\n"
        "t = (s > 0.5 && s < 0.5);\n"
        "s = t + 1;\n"
        "if u > 0.5\n s = 2;\nend\ndisp(s);"
    )
    graph, _ = build_interference_graph(func)
    block = next(
        b for b in func.blocks.values()
        if getattr(b.terminator, "condition", None) is not None
    )
    condition = block.terminator.condition.name
    defined = [r for instr in block.instrs for r in instr.results]
    later = defined[defined.index(condition) + 1:]
    assert later
    for name in later:
        assert graph.interferes(condition, name), name
