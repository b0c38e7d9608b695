"""Unit tests for liveness, availability, du-chains, and cleanup passes."""

import pytest

from repro.analysis.availability import compute_availability
from repro.analysis.constfold import fold_constants
from repro.analysis.copyprop import propagate_copies
from repro.analysis.cse import eliminate_common_subexpressions
from repro.analysis.dce import eliminate_dead_code
from repro.analysis.duchains import compute_du_chains
from repro.analysis.liveness import compute_liveness
from repro.analysis.pass_manager import run_cleanup_pipeline
from repro.bench.suite import BENCHMARK_NAMES, compile_benchmark
from repro.frontend.parser import parse_program
from repro.ir.instr import Const, Var
from repro.ir.lower import lower_program
from repro.ssa.construct import base_name, construct_ssa
from repro.ssa.verify import verify_ssa


def to_ssa(text, **sources):
    files = {"main.m": text}
    for name, src in sources.items():
        files[f"{name}.m"] = src
    return construct_ssa(lower_program(parse_program(files)))


def find_versions(func, base):
    return [
        r
        for i in func.instructions()
        for r in i.results
        if base_name(r) == base
    ]


class TestLiveness:
    def test_loop_variable_live_around_backedge(self):
        func = to_ssa("i = 0;\nwhile i < 10\n i = i + 1;\nend\ndisp(i);")
        live = compute_liveness(func)
        phi = next(i for i in func.instructions() if i.is_phi)
        # the φ result is live out of the loop-header block somewhere
        assert any(
            phi.results[0] in s for s in live.live_out.values()
        )

    def test_dead_after_last_use(self):
        func = to_ssa("a = 1; b = a + 1; disp(b);")
        live = compute_liveness(func)
        a_versions = find_versions(func, "a")
        # straight-line single block: `a` never live out of it
        assert all(
            v not in live.live_out[bid]
            for v in a_versions
            for bid in live.live_out
        )

    def test_phi_operand_live_out_of_pred(self):
        func = to_ssa("a = 1;\nif a > 0\n b = 1;\nelse\n b = 2;\nend\ndisp(b);")
        live = compute_liveness(func)
        # each branch side's `b` version is live out of its block (φ use)
        all_out = set().union(*live.live_out.values())
        b_versions = set(find_versions(func, "b"))
        assert b_versions & all_out


class TestAvailability:
    def test_sequential_availability(self):
        func = to_ssa("a = 1; b = a + 1; c = b * 2; disp(c);")
        avail = compute_availability(func)
        a = find_versions(func, "a")[0]
        c = find_versions(func, "c")[0]
        assert avail.available_at_definition_of(a, c)
        assert not avail.available_at_definition_of(c, a)

    def test_reflexive(self):
        func = to_ssa("a = 1; disp(a);")
        avail = compute_availability(func)
        a = find_versions(func, "a")[0]
        assert avail.available_at_definition_of(a, a)

    def test_branch_sides_not_mutually_available(self):
        func = to_ssa(
            "q = 1;\nif q > 0\n a = 1;\nelse\n b = 2;\nend\n"
        )
        avail = compute_availability(func)
        a = find_versions(func, "a")[0]
        b = find_versions(func, "b")[0]
        assert not avail.available_at_definition_of(a, b)
        assert not avail.available_at_definition_of(b, a)

    def test_may_availability_through_loop(self):
        # defs inside a loop body are (may-)available at the header on
        # the next iteration
        func = to_ssa(
            "i = 0;\nwhile i < 3\n x = i; i = i + 1;\nend\ndisp(i);"
        )
        avail = compute_availability(func)
        x = find_versions(func, "x")[0]
        i_phi = next(
            i for i in func.instructions()
            if i.is_phi and base_name(i.results[0]) == "i"
        )
        assert avail.available_at_definition_of(x, i_phi.results[0])


def blocks_after(func, bid):
    """Blocks reached from ``bid`` along one CFG edge or more."""
    seen, stack = set(), list(func.blocks[bid].successors())
    while stack:
        nxt = stack.pop()
        if nxt not in seen:
            seen.add(nxt)
            stack.extend(func.blocks[nxt].successors())
    return seen


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_availability_matches_path_reachability(name):
    """u is available at v's definition iff some CFG path runs from a
    definition of u to it; parameters are defined on entry, and nothing
    is available at a parameter's definition but itself."""
    func = compile_benchmark(name).ssa_func
    avail = compute_availability(func)
    sites = {}
    for bid in func.block_order():
        for position, instr in enumerate(func.blocks[bid].instrs):
            for res in instr.results:
                sites.setdefault(res, (bid, position))
    after = {bid: blocks_after(func, bid) for bid in func.block_order()}
    names = sorted(set(sites) | set(func.params))
    for v in names:
        for u in names:
            if u == v:
                expected = True
            elif v not in sites:
                expected = False
            elif u not in sites:
                expected = True  # a parameter: entry reaches every block
            else:
                (u_block, u_pos), (v_block, v_pos) = sites[u], sites[v]
                expected = (u_block == v_block and u_pos < v_pos) or (
                    v_block in after[u_block]
                )
            assert avail.available_at_definition_of(u, v) == expected, (u, v)


class TestDuChains:
    def test_definition_and_uses_recorded(self):
        func = to_ssa("a = 1; b = a + a; disp(b);")
        chains = compute_du_chains(func)
        a = find_versions(func, "a")[0]
        assert chains.use_count(a) == 2

    def test_dead_variable_has_no_uses(self):
        func = to_ssa("a = 1; b = 2; disp(b);")
        chains = compute_du_chains(func)
        a = find_versions(func, "a")[0]
        assert chains.is_dead(a)

    def test_phi_use_records_pred(self):
        func = to_ssa("i = 0;\nwhile i < 3\n i = i + 1;\nend\ndisp(i);")
        chains = compute_du_chains(func)
        phi_uses = [
            u
            for uses in chains.uses.values()
            for u in uses
            if u.phi_pred is not None
        ]
        assert phi_uses


class TestCopyPropagation:
    def test_copy_uses_rewritten(self):
        func = to_ssa("a = rand(2,2); b = a; c = b + 1; disp(c);")
        propagate_copies(func)
        add = next(i for i in func.instructions() if i.op == "add")
        assert base_name(add.args[0].name) == "a"

    def test_copy_chain_followed(self):
        func = to_ssa("a = rand(2); b = a; c = b; d = c + 1; disp(d);")
        propagate_copies(func)
        add = next(i for i in func.instructions() if i.op == "add")
        assert base_name(add.args[0].name) == "a"

    def test_then_dce_removes_copies(self):
        func = to_ssa("a = rand(2); b = a; c = b + 1; disp(c);")
        propagate_copies(func)
        eliminate_dead_code(func)
        assert not any(i.op == "copy" for i in func.instructions())


class TestDCE:
    def test_unused_def_removed(self):
        func = to_ssa("a = 1; b = 2; disp(b);")
        removed = eliminate_dead_code(func)
        assert removed >= 1
        assert not find_versions(func, "a")

    def test_display_roots_kept(self):
        func = to_ssa("a = 42\n")  # no semicolon: display
        eliminate_dead_code(func)
        assert any(i.op == "display" for i in func.instructions())

    def test_transitive_liveness(self):
        func = to_ssa("a = 1; b = a + 1; c = b * 2; disp(c);")
        eliminate_dead_code(func)
        assert find_versions(func, "a")

    def test_branch_condition_kept(self):
        func = to_ssa(
            "a = rand(1);\nif a > 0.5\n disp(1);\nelse\n disp(2);\nend"
        )
        eliminate_dead_code(func)
        assert any(i.op == "gt" for i in func.instructions())


class TestConstantFolding:
    def test_arith_folds(self):
        func = to_ssa("x = 2 + 3 * 4; disp(x);")
        fold_constants(func)
        x = find_versions(func, "x")[0]
        const = next(
            i for i in func.instructions() if x in i.results
        )
        assert const.op == "const"
        assert const.args[0] == Const(complex(14.0))

    def test_propagates_into_calls(self):
        func = to_ssa("n = 10; a = zeros(n, n); disp(a);")
        fold_constants(func)
        call = next(i for i in func.instructions() if i.op == "call:zeros")
        assert all(isinstance(a, Const) for a in call.args)

    def test_division_by_zero_not_folded(self):
        func = to_ssa("x = 1 / 0; disp(x);")
        fold_constants(func)
        div = next(
            i for i in func.instructions()
            if find_versions(func, "x")[0] in i.results
        )
        assert div.op == "div"

    def test_builtin_floor_folds(self):
        func = to_ssa("x = floor(3.7); disp(x);")
        fold_constants(func)
        x_def = next(
            i for i in func.instructions()
            if find_versions(func, "x")[0] in i.results
        )
        assert x_def.op == "const"
        assert x_def.args[0] == Const(complex(3.0))


class TestCSE:
    def test_repeated_expression_becomes_copy(self):
        func = to_ssa(
            "a = rand(3); b = a + a; c = a + a; d = b + c; disp(d);"
        )
        n = eliminate_common_subexpressions(func)
        assert n == 1

    def test_impure_calls_not_merged(self):
        func = to_ssa("a = rand(3); b = rand(3); c = a + b; disp(c);")
        eliminate_common_subexpressions(func)
        rands = [i for i in func.instructions() if i.op == "call:rand"]
        assert len(rands) == 2

    def test_dominance_respected(self):
        # the two `a * 2` live on opposite branch sides: no merging
        func = to_ssa(
            "a = rand(1); q = 1;\n"
            "if q > 0\n x = a * 2;\nelse\n x = a * 2;\nend\ndisp(x);"
        )
        n = eliminate_common_subexpressions(func)
        assert n == 0


class TestPipeline:
    def test_reaches_fixed_point(self):
        func = to_ssa(
            "a = 2 + 3; b = a; c = b * 2; d = c; e = d + 0; disp(e);"
        )
        stats = run_cleanup_pipeline(func)
        assert stats.iterations < 25
        verify_ssa(func)

    def test_pipeline_shrinks_code(self):
        func = to_ssa(
            "a = rand(4); b = a; c = b; d = c + 1; unused = 7; disp(d);"
        )
        before = len(func.instructions())
        run_cleanup_pipeline(func)
        assert len(func.instructions()) < before
