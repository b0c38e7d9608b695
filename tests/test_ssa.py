"""Unit tests for SSA construction and inversion."""

import pytest

from repro.frontend.parser import parse_program
from repro.ir.cfg import IRError
from repro.ir.instr import Instr, Var
from repro.ir.lower import lower_program
from repro.ssa.construct import base_name, construct_ssa
from repro.ssa.invert import (
    _sequentialize_parallel_copies,
    invert_ssa,
    split_critical_edges,
)
from repro.ssa.verify import verify_ssa


def to_ssa(text, **sources):
    files = {"main.m": text}
    for name, src in sources.items():
        files[f"{name}.m"] = src
    func = lower_program(parse_program(files))
    return construct_ssa(func)


class TestConstruction:
    def test_straightline_versions(self):
        func = to_ssa("x = 1; x = x + 1; x = x * 2;")
        verify_ssa(func)
        versions = [
            r for i in func.instructions() for r in i.results
            if base_name(r) == "x"
        ]
        assert len(versions) == len(set(versions)) == 3

    def test_if_join_gets_phi(self):
        func = to_ssa(
            "a = 1;\nif a > 0\n b = 1;\nelse\n b = 2;\nend\nc = b;"
        )
        verify_ssa(func)
        phis = [i for i in func.instructions() if i.is_phi]
        assert any(base_name(p.results[0]) == "b" for p in phis)

    def test_loop_header_phi(self):
        func = to_ssa("i = 0;\nwhile i < 10\n i = i + 1;\nend\nd = i;")
        verify_ssa(func)
        phis = [i for i in func.instructions() if i.is_phi]
        assert any(base_name(p.results[0]) == "i" for p in phis)

    def test_local_temp_gets_no_phi(self):
        # single-block temporaries must not grow φs (semi-pruned SSA)
        func = to_ssa(
            "a = 1;\nif a > 0\n b = 2 + 3 * a;\nelse\n b = 0;\nend\nc = b;"
        )
        verify_ssa(func)
        for phi in (i for i in func.instructions() if i.is_phi):
            assert not base_name(phi.results[0]).endswith("$")

    def test_use_before_def_synthesizes_undef(self):
        # `b` defined only on one path but used after the join
        func = to_ssa(
            "a = 1;\nif a > 0\n b = 2;\nend\nc = b;"
        )
        verify_ssa(func)
        assert any(i.op == "undef" for i in func.instructions())

    def test_verify_rejects_double_def(self):
        func = to_ssa("x = 1; y = x;")
        # manually break SSA
        func.entry_block().append(
            Instr(op="const", results=[func.entry_block().instrs[0].results[0]])
        )
        func.entry_block().terminator, saved = None, func.entry_block().terminator
        func.entry_block().terminator = saved
        with pytest.raises(IRError):
            verify_ssa(func)

    def test_nested_loops(self):
        func = to_ssa(
            "s = 0;\nfor i = 1:3\n for j = 1:3\n  s = s + i * j;\n end\nend"
        )
        verify_ssa(func)

    def test_all_uses_renamed(self):
        func = to_ssa("x = 1;\nwhile x < 5\n x = x + 1;\nend\ny = x;")
        for instr in func.instructions():
            for arg in instr.args:
                if isinstance(arg, Var) and instr.op != "undef":
                    assert "#" in arg.name, f"unrenamed use in {instr}"


class TestParallelCopies:
    def test_independent_copies_kept(self):
        temps = iter([f"tmp{i}$" for i in range(10)])
        out = _sequentialize_parallel_copies(
            [("a", Var("x")), ("b", Var("y"))], lambda: next(temps)
        )
        assert ("a", Var("x")) in out and ("b", Var("y")) in out

    def test_chain_ordered_correctly(self):
        temps = iter([f"tmp{i}$" for i in range(10)])
        # b := a must run after c := b reads the old b
        out = _sequentialize_parallel_copies(
            [("b", Var("a")), ("c", Var("b"))], lambda: next(temps)
        )
        assert out.index(("c", Var("b"))) < out.index(("b", Var("a")))

    def test_swap_cycle_uses_temp(self):
        temps = iter([f"tmp{i}$" for i in range(10)])
        out = _sequentialize_parallel_copies(
            [("a", Var("b")), ("b", Var("a"))], lambda: next(temps)
        )
        assert len(out) == 3  # temp save + two moves
        dests = [d for d, _ in out]
        assert "tmp0$" in dests

    def test_identity_copy_elided(self):
        out = _sequentialize_parallel_copies(
            [("a", Var("a"))], lambda: "t$"
        )
        assert out == []


class TestInversion:
    def test_phis_removed(self):
        func = to_ssa("i = 0;\nwhile i < 4\n i = i + 1;\nend\nz = i;")
        func = invert_ssa(func)
        assert not any(i.is_phi for i in func.instructions())
        func.verify()

    def test_copies_inserted_on_edges(self):
        func = to_ssa(
            "a = 1;\nif a > 0\n b = 1;\nelse\n b = 2;\nend\nc = b;"
        )
        n_phis = sum(1 for i in func.instructions() if i.is_phi)
        assert n_phis >= 1
        func = invert_ssa(func)
        copies = [i for i in func.instructions() if i.op == "copy"]
        assert len(copies) >= 2 * n_phis  # one per incoming edge

    def test_ssa_function_left_untouched(self):
        ssa = to_ssa(
            "a = 1; b = 2;\nfor k = 1:3\n t = a; a = b; b = t;\nend\n"
            "if a > b\n c = a;\nelse\n c = b;\nend\ndisp(c);"
        )
        before = str(ssa)
        exec_func = invert_ssa(ssa)
        assert str(ssa) == before
        verify_ssa(ssa)
        assert not any(i.is_phi for i in exec_func.instructions())
        exec_func.verify()
        # every non-φ instruction of the SSA form is reused, not copied
        shared = {id(i) for i in exec_func.instructions()}
        non_phis = [i for i in ssa.instructions() if not i.is_phi]
        assert non_phis and all(id(i) in shared for i in non_phis)

    def test_critical_edge_split(self):
        # while-loop exit edge from the header (2 succs) to a join with
        # the preheader would be critical once phis exist there.
        func = to_ssa(
            "a = 1;\nif a > 0\n b = 1;\nelse\n b = 2;\nend\nc = b;"
        )
        before = len(func.blocks)
        split_critical_edges(func)
        assert len(func.blocks) >= before  # splitting never removes blocks
        func.verify()

    def test_inverted_function_still_executes_structure(self):
        func = to_ssa(
            "s = 0;\nfor i = 1:5\n s = s + i;\nend\ndisp(s);"
        )
        invert_ssa(func)
        func.verify()

    def test_swap_pattern_through_loop(self):
        # classic swap: values rotate each iteration; inversion must not
        # clobber one before the other is copied.
        func = to_ssa(
            "a = 1; b = 2;\nfor k = 1:3\n t = a; a = b; b = t;\nend\n"
            "disp(a); disp(b);"
        )
        verify_ssa(func)
        invert_ssa(func)
        func.verify()
