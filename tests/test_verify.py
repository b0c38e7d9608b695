"""Tests for the independent plan checker (:mod:`repro.verify`).

Four angles: the full benchmark suite must verify clean (the checker
agrees with the optimizer it distrusts), the verifier's own dataflow
must agree with the analysis package it deliberately does not share
code with, hand-tampered plans must trip each check individually, and
the mutation self-test must prove the checker can catch a real
unsound coalescing decision."""

import copy

import pytest

from repro.analysis.availability import compute_availability
from repro.analysis.liveness import compute_liveness
from repro.bench.suite import BENCHMARK_NAMES, compile_benchmark
from repro.compiler.pipeline import CompilerOptions, compile_program
from repro.core.allocation import NO_RESIZE, MAY_RESIZE
from repro.core.gctd import GCTDOptions
from repro.ir.instr import MATRIX_BINARY
from repro.verify import (
    ALL_CHECKS,
    PlanViolation,
    VerificationReport,
    flip_one_coalescing,
    recompute_availability,
    recompute_liveness,
    verify_compilation,
    verify_plan,
)

_COMPILED = {}


def compiled(name):
    if name not in _COMPILED:
        _COMPILED[name] = compile_benchmark(name)
    return _COMPILED[name]


#: small enough to mutate/tamper repeatedly without slowing the lane.
FAST_NAMES = ("edit", "adpt", "clos", "nb1d")


def merge_groups(plan, a: str, b: str) -> None:
    """Force ``a`` and ``b`` into one group (an unsound plan edit)."""
    target, source = plan.group_of[a], plan.group_of[b]
    if target == source:
        return
    for member in plan.groups[source].members:
        plan.group_of[member] = target
        plan.groups[target].members.append(member)
    plan.groups[source].members = []


# --------------------------------------------------------------------------
# report types
# --------------------------------------------------------------------------


class TestReportTypes:
    def test_empty_report_is_ok(self):
        report = VerificationReport(variables_checked=3, groups_checked=2)
        assert report.ok
        assert report.counts() == {check: 0 for check in ALL_CHECKS}
        assert "plan OK" in report.summary()
        assert "3 variables" in report.summary()

    def test_violations_flip_verdict(self):
        violation = PlanViolation("liveness", "clash", ("a", "b"))
        report = VerificationReport(violations=[violation])
        assert not report.ok
        assert report.counts()["liveness"] == 1
        assert "plan UNSOUND" in report.summary()
        assert "[liveness] clash" in report.summary()

    def test_to_dict_round_trips_to_wire_shape(self):
        violation = PlanViolation("stack", "too small", ("x",))
        doc = VerificationReport(
            violations=[violation],
            variables_checked=7,
            groups_checked=4,
        ).to_dict()
        assert doc["ok"] is False
        assert doc["variables"] == 7
        assert doc["groups"] == 4
        assert doc["violations"] == [
            {"check": "stack", "message": "too small", "names": ["x"]}
        ]


# --------------------------------------------------------------------------
# the suite verifies clean
# --------------------------------------------------------------------------


class TestSuiteIsSound:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_benchmark_plan_verifies_clean(self, name):
        result = compiled(name)
        report = verify_compilation(result)
        assert report.ok, report.summary()
        assert report.variables_checked > 0
        assert report.groups_checked == len(result.plan.groups)

    def test_trivial_no_gctd_plan_verifies_clean(self):
        result = compile_program(
            {"t.m": "a = ones(4); b = a * 2; disp(sum(sum(b)));\n"},
            options=CompilerOptions(gctd=GCTDOptions(enabled=False)),
        )
        report = verify_compilation(result)
        assert report.ok, report.summary()

    def test_verify_plan_equals_verify_compilation(self):
        result = compiled("edit")
        direct = verify_plan(result.ssa_func, result.env, result.plan)
        wrapped = verify_compilation(result)
        assert direct.to_dict() == wrapped.to_dict()


# --------------------------------------------------------------------------
# the two dataflow implementations agree
# --------------------------------------------------------------------------


class TestIndependentDataflowAgrees:
    """`repro.verify.dataflow` (FIFO worklist) vs `repro.analysis`
    (round-robin): different algorithms, same fixed point."""

    @pytest.mark.parametrize("name", FAST_NAMES)
    def test_liveness_fixed_points_match(self, name):
        func = compiled(name).ssa_func
        ours = recompute_liveness(func)
        theirs = compute_liveness(func)
        for bid in func.blocks:
            assert ours.live_in[bid] == theirs.live_in[bid], bid
            assert ours.live_out[bid] == theirs.live_out[bid], bid

    @pytest.mark.parametrize("name", FAST_NAMES)
    def test_availability_fixed_points_match(self, name):
        func = compiled(name).ssa_func
        ours = recompute_availability(func)
        theirs = compute_availability(func)

        def names(mask):
            return {n for n, bit in theirs.bit.items() if mask >> bit & 1}

        for bid in func.blocks:
            assert ours.avail_in[bid] == names(theirs.avail_in[bid]), bid
            assert ours.avail_out[bid] == names(theirs.avail_out[bid]), bid
        everything = sorted(theirs.bit)
        for v in everything:
            for u in everything:
                assert ours.available_at_definition_of(
                    u, v
                ) == theirs.available_at_definition_of(u, v), (u, v)


# --------------------------------------------------------------------------
# hand-tampered plans trip each check
# --------------------------------------------------------------------------


def tampered(name="edit"):
    result = compiled(name)
    return result, copy.deepcopy(result.plan)


class TestTamperedPlans:
    def test_unassigned_variable_trips_coverage(self):
        result, plan = tampered()
        victim = sorted(plan.group_of)[0]
        del plan.group_of[victim]
        report = verify_plan(result.ssa_func, result.env, plan)
        assert report.counts()["coverage"] >= 1
        assert any(
            victim in v.names
            for v in report.violations
            if v.check == "coverage"
        )

    def test_member_list_mismatch_trips_coverage(self):
        result, plan = tampered()
        victim = sorted(plan.group_of)[0]
        group = plan.groups[plan.group_of[victim]]
        group.members.remove(victim)
        report = verify_plan(result.ssa_func, result.env, plan)
        assert any(
            "not in its member list" in v.message
            for v in report.violations
            if v.check == "coverage"
        )

    def test_stack_group_without_static_size_trips_stack(self):
        result, plan = tampered()
        group = next(g for g in plan.groups if g.is_stack)
        group.static_size = None
        report = verify_plan(result.ssa_func, result.env, plan)
        assert any(
            "no static size" in v.message
            for v in report.violations
            if v.check == "stack"
        )

    def test_undersized_stack_buffer_trips_stack(self):
        result, plan = tampered()
        group = next(
            g
            for g in plan.groups
            if g.is_stack and g.members and g.static_size
        )
        group.static_size = 0
        report = verify_plan(result.ssa_func, result.env, plan)
        assert any(
            "reserves only 0" in v.message
            for v in report.violations
            if v.check == "stack"
        )

    def test_missing_resize_mark_trips_resize(self):
        for name in FAST_NAMES:
            result, plan = tampered(name)
            heap_marked = [
                var
                for var, gid in plan.group_of.items()
                if not plan.groups[gid].is_stack
                and var in plan.resize_marks
            ]
            if not heap_marked:
                continue
            victim = sorted(heap_marked)[0]
            del plan.resize_marks[victim]
            report = verify_plan(result.ssa_func, result.env, plan)
            assert any(
                "no resize annotation" in v.message
                for v in report.violations
                if v.check == "resize"
            )
            return
        pytest.skip("no heap-resident definitions in the fast set")

    def test_downgraded_resize_mark_trips_resize(self):
        for name in BENCHMARK_NAMES:
            result, plan = tampered(name)
            resizable = [
                var
                for var, mark in plan.resize_marks.items()
                if mark == MAY_RESIZE
                and not plan.groups[plan.group_of[var]].is_stack
            ]
            if not resizable:
                continue
            victim = sorted(resizable)[0]
            plan.resize_marks[victim] = NO_RESIZE  # lie: claim ∘ for ±
            report = verify_plan(result.ssa_func, result.env, plan)
            assert any(
                victim in v.names
                for v in report.violations
                if v.check == "resize"
            ), report.summary()
            return
        pytest.skip("suite has no ± heap definition to downgrade")

    def test_inplace_illegal_merge_trips_opsem(self):
        # c = a * b is matrix multiply: c may alias neither operand, so
        # forcing c and a into one group must raise an opsem violation.
        result = compile_program(
            {
                "t.m": (
                    "a = rand(3); b = rand(3);\n"
                    "c = a * b;\n"
                    "disp(sum(sum(c)));\n"
                )
            }
        )
        matmul = next(
            i
            for i in result.ssa_func.instructions()
            if i.op in MATRIX_BINARY
        )
        res, operand = matmul.results[0], matmul.args[0].name
        plan = copy.deepcopy(result.plan)
        assert not plan.same_storage(res, operand)
        merge_groups(plan, res, operand)
        report = verify_plan(result.ssa_func, result.env, plan)
        assert any(
            {res, operand} <= set(v.names)
            for v in report.violations
            if v.check == "opsem"
        ), report.summary()

    def test_tampering_never_touches_the_original(self):
        result = compiled("edit")
        before = verify_compilation(result).to_dict()
        _, plan = tampered()
        plan.group_of.clear()
        assert verify_compilation(result).to_dict() == before


# --------------------------------------------------------------------------
# mutation self-test
# --------------------------------------------------------------------------


class TestMutationSelfTest:
    @pytest.mark.parametrize("name", FAST_NAMES)
    def test_flipped_coalescing_is_flagged(self, name):
        result = compiled(name)
        mutation = flip_one_coalescing(result)
        assert mutation is not None, (
            f"{name}: no interfering pair to flip"
        )
        report = verify_plan(
            result.ssa_func, result.env, mutation.plan
        )
        assert not report.ok, (
            f"{name}: verifier missed the unsound merge of "
            f"{mutation.merged}"
        )

    def test_mutation_merges_an_interfering_pair(self):
        result = compiled("edit")
        mutation = flip_one_coalescing(result)
        a, b = mutation.merged
        assert result.gctd.graph.interferes(a, b)
        assert mutation.plan.same_storage(a, b)
        assert not result.plan.same_storage(a, b)  # original untouched

    def test_no_gctd_plan_has_nothing_to_flip(self):
        result = compile_program(
            {"t.m": "a = ones(4); b = a * 2; disp(sum(sum(b)));\n"},
            options=CompilerOptions(gctd=GCTDOptions(enabled=False)),
        )
        assert flip_one_coalescing(result) is None
