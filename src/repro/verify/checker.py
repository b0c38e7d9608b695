"""Static soundness checks for an allocation plan.

``verify_plan`` re-derives, from the SSA function and inferred types
alone, every property a :class:`~repro.core.allocation.AllocationPlan`
must satisfy, using the verifier's own dataflow
(:mod:`repro.verify.dataflow`) rather than anything cached in the
GCTD result:

* **coverage** — every defined variable belongs to exactly one group
  and the group's member list agrees with the ``group_of`` index;
* **liveness** — no two variables sharing a group are simultaneously
  live-and-available at any assignment (the paper's §2 interference
  criterion, including the φ parallel-copy points at predecessor
  block ends and branch-condition reads at block exits);
* **opsem** — no result shares storage with an operand the §2.3
  operator-semantics rules say it cannot be computed over in place;
* **resize** — every heap definition's ∘/+/± annotation is justified
  by Relation 1 on the verifier's own availability: ∘ requires an
  available member of provably equal size, + an available member of
  symbolically smaller-or-equal size (so marks are monotone along
  within-group ⪯ chains);
* **stack** — stack groups are truly static: every member's size is
  statically estimable and fits the group buffer.

A clean report means the plan is sound *by the paper's own criteria*;
the differential harness (:mod:`repro.verify.differential`) then
checks the criteria against actual execution.
"""

from __future__ import annotations

from repro.core.allocation import (
    AllocationPlan,
    GROW_ONLY,
    MAY_RESIZE,
    NO_RESIZE,
)
from repro.ir.cfg import IRFunction
from repro.ir.instr import (
    Branch,
    Const,
    ELEMENTWISE_BINARY,
    ELEMENTWISE_UNARY,
    Instr,
    MATRIX_BINARY,
    Operand,
    StrConst,
    Var,
)
from repro.runtime.names import BUILTINS
from repro.typing.infer import TypeEnvironment
from repro.typing.shape import ConstDim

from repro.verify.dataflow import (
    VerifierAvailability,
    recompute_availability,
    recompute_liveness,
)
from repro.verify.report import (
    CHECK_COVERAGE,
    CHECK_LIVENESS,
    CHECK_OPSEM,
    CHECK_RESIZE,
    CHECK_STACK,
    PlanViolation,
    VerificationReport,
)


def verify_plan(
    func: IRFunction,
    env: TypeEnvironment,
    plan: AllocationPlan,
) -> VerificationReport:
    """Run every static check; ``func`` must be the SSA function the
    plan was built for (``CompilationResult.ssa_func``)."""
    report = VerificationReport(
        variables_checked=len(func.defined_vars()),
        groups_checked=len(plan.groups),
    )
    _check_coverage(func, plan, report.violations)
    _check_liveness(func, plan, report.violations)
    _check_opsem(func, env, plan, report.violations)
    avail = recompute_availability(func)
    _check_resize(func, env, plan, avail, report.violations)
    _check_stack(env, plan, report.violations)
    return report


def verify_compilation(result) -> VerificationReport:
    """Convenience wrapper over a pipeline result."""
    return verify_plan(result.ssa_func, result.env, result.plan)


# --------------------------------------------------------------------------
# coverage
# --------------------------------------------------------------------------


def _check_coverage(
    func: IRFunction, plan: AllocationPlan, out: list[PlanViolation]
) -> None:
    for name in func.defined_vars():
        gid = plan.group_of.get(name)
        if gid is None:
            out.append(
                PlanViolation(
                    CHECK_COVERAGE,
                    f"variable '{name}' has no storage group",
                    (name,),
                )
            )
        elif name not in plan.groups[gid].members:
            out.append(
                PlanViolation(
                    CHECK_COVERAGE,
                    f"'{name}' maps to group {gid} but is not in its "
                    f"member list",
                    (name,),
                )
            )


# --------------------------------------------------------------------------
# liveness: the §2 interference criterion, re-run against the plan
# --------------------------------------------------------------------------


def _check_liveness(
    func: IRFunction, plan: AllocationPlan, out: list[PlanViolation]
) -> None:
    live = recompute_liveness(func)
    avail = recompute_availability(func)
    reported: set[frozenset[str]] = set()

    def conflict(a: str, b: str, where: str) -> None:
        if a == b or not plan.same_storage(a, b):
            return
        key = frozenset((a, b))
        if key in reported:
            return
        reported.add(key)
        out.append(
            PlanViolation(
                CHECK_LIVENESS,
                f"'{a}' and '{b}' share group {plan.group_of[a]} but "
                f"are simultaneously live at {where}",
                (a, b),
            )
        )

    for bid in func.block_order():
        block = func.blocks[bid]
        current = set(live.live_out[bid]) & set(avail.avail_out[bid])

        # The branch condition is read at the very end of the block —
        # *after* the parallel copies SSA inversion places before the
        # terminator — so it must survive every definition below,
        # including φ destinations materialized on the outgoing edges.
        term = block.terminator
        if isinstance(term, Branch) and isinstance(term.condition, Var):
            current.add(term.condition.name)

        # φ destinations are defined here by the edge parallel copy;
        # they conflict with everything live at the block end except
        # their own sources (same value).
        for succ in block.successors():
            for phi in func.blocks[succ].phis():
                assert phi.phi_blocks is not None
                own_sources = {
                    a.name
                    for a, origin in zip(phi.args, phi.phi_blocks)
                    if origin == bid and isinstance(a, Var)
                }
                if not own_sources:
                    continue
                dest = phi.results[0]
                for other in current:
                    if other != dest and other not in own_sources:
                        conflict(
                            dest,
                            other,
                            f"the parallel copy ending block {bid}",
                        )

        for instr in reversed(block.instrs):
            same_value = _same_value_sources(instr)
            for i, res_a in enumerate(instr.results):
                for res_b in instr.results[i + 1 :]:
                    conflict(
                        res_a,
                        res_b,
                        f"a multi-result '{instr.op}' in block {bid}",
                    )
            for res in instr.results:
                for other in current:
                    if other != res and other not in same_value:
                        conflict(
                            res,
                            other,
                            f"the definition of '{res}' in block {bid}",
                        )
            for res in instr.results:
                current.discard(res)
            if instr.is_phi:
                continue  # φ operands are edge uses, handled above
            current.update(instr.used_vars())


def _same_value_sources(instr: Instr) -> set[str]:
    if instr.op == "copy":
        return {a.name for a in instr.args if isinstance(a, Var)}
    return set()


# --------------------------------------------------------------------------
# opsem: §2.3 in-place legality against the plan
# --------------------------------------------------------------------------


def _check_opsem(
    func: IRFunction,
    env: TypeEnvironment,
    plan: AllocationPlan,
    out: list[PlanViolation],
) -> None:
    for instr in func.instructions():
        for operand in _illegal_inplace_operands(instr, env):
            for res in instr.results:
                if res != operand.name and plan.same_storage(
                    res, operand.name
                ):
                    out.append(
                        PlanViolation(
                            CHECK_OPSEM,
                            f"result '{res}' of '{instr.op}' shares "
                            f"group {plan.group_of[res]} with operand "
                            f"'{operand.name}', which it cannot be "
                            f"computed over in place",
                            (res, operand.name),
                        )
                    )


def _scalar(operand: Operand, env: TypeEnvironment) -> bool:
    if isinstance(operand, Const):
        return True
    if isinstance(operand, StrConst):
        return False
    return env.of(operand.name).is_scalar


def _vector(operand: Operand, env: TypeEnvironment) -> bool:
    if _scalar(operand, env):
        return True
    if not isinstance(operand, Var):
        return False
    shape = env.of(operand.name).shape
    if not shape.exact:
        return False
    unit_dims = sum(
        1 for d in shape.dims if isinstance(d, ConstDim) and d.value == 1
    )
    return unit_dims >= shape.rank - 1


#: ops whose result may always alias an operand buffer (§2.3.1 and the
#: value-producing pseudo-ops, which allocate fresh or read nothing).
_ALWAYS_INPLACE = frozenset(
    {"copy", "const", "phi", "undef", "empty", "range", "forindex",
     "display"}
)

def _illegal_inplace_operands(
    instr: Instr, env: TypeEnvironment
) -> list[Var]:
    """Var operands the result may not overwrite while computing.

    An independent restatement of §2.3 (cf.
    :func:`repro.core.opsem._conflicting_operands`): identical rules,
    so a divergence between the two is itself a bug signal.
    """
    op = instr.op
    if (
        op in _ALWAYS_INPLACE
        or op in ELEMENTWISE_BINARY
        or op in ELEMENTWISE_UNARY
    ):
        return []
    hazards: list[Operand]
    if op in MATRIX_BINARY:
        a, b = instr.args[0], instr.args[1]
        # one scalar operand makes the op elementwise at run time
        hazards = [] if _scalar(a, env) or _scalar(b, env) else [a, b]
    elif op in ("transpose", "ctranspose"):
        # vectors keep their column-major layout under transposition
        hazards = [] if _vector(instr.args[0], env) else [instr.args[0]]
    elif op == "subsref":
        subs = instr.args[1:]
        all_scalar_subs = all(
            _scalar(s, env) for s in subs if not isinstance(s, StrConst)
        ) and not any(isinstance(s, StrConst) for s in subs)
        hazards = [] if all_scalar_subs else [instr.args[0]]
    elif op == "subsasgn":
        # the indexed array itself is always in-place legal (§2.3.3.1)
        hazards = [
            arg
            for arg in instr.args[1:]
            if not isinstance(arg, StrConst) and not _scalar(arg, env)
        ]
    elif op in ("horzcat", "vertcat"):
        hazards = list(instr.args)
    elif (
        instr.is_call
        and instr.callee in BUILTINS
        and BUILTINS[instr.callee].opsem != "general"
    ):
        hazards = []
    else:
        hazards = [
            arg
            for arg in instr.args
            if isinstance(arg, Var) and not _scalar(arg, env)
        ]
    return [h for h in hazards if isinstance(h, Var)]


# --------------------------------------------------------------------------
# resize marks: Relation 1 justification, recomputed
# --------------------------------------------------------------------------

#: safety order: each mark may only be *more* conservative than the
#: strongest claim the verifier can justify.
_MARK_RANK = {NO_RESIZE: 0, GROW_ONLY: 1, MAY_RESIZE: 2}


def _check_resize(
    func: IRFunction,
    env: TypeEnvironment,
    plan: AllocationPlan,
    avail: VerifierAvailability,
    out: list[PlanViolation],
) -> None:
    for instr in func.instructions():
        for res in instr.results:
            gid = plan.group_of.get(res)
            if gid is None or plan.groups[gid].is_stack:
                continue
            claimed = plan.resize_marks.get(res)
            if claimed is None:
                out.append(
                    PlanViolation(
                        CHECK_RESIZE,
                        f"heap definition of '{res}' carries no "
                        f"resize annotation",
                        (res,),
                    )
                )
                continue
            justified = _justified_mark(
                res, plan.groups[gid].members, env, avail
            )
            if _MARK_RANK[claimed] < _MARK_RANK[justified]:
                out.append(
                    PlanViolation(
                        CHECK_RESIZE,
                        f"'{res}' is annotated '{claimed}' but only "
                        f"'{justified}' is justified by Relation 1",
                        (res,),
                    )
                )


def _justified_mark(
    name: str,
    members: list[str],
    env: TypeEnvironment,
    avail: VerifierAvailability,
) -> str:
    """Strongest ∘/+/± claim Relation 1 supports for this definition."""
    own_shape = env.of(name).shape
    grow_only = False
    for other in members:
        if other == name:
            continue
        if not avail.available_at_definition_of(other, name):
            continue
        other_shape = env.of(other).shape
        if other_shape.numel() == own_shape.numel():
            return NO_RESIZE
        if other_shape.storage_le(own_shape):
            grow_only = True
    return GROW_ONLY if grow_only else MAY_RESIZE


# --------------------------------------------------------------------------
# stack groups: statically sized, buffer adequate
# --------------------------------------------------------------------------


def _check_stack(
    env: TypeEnvironment, plan: AllocationPlan, out: list[PlanViolation]
) -> None:
    for group in plan.groups:
        if not group.is_stack:
            continue
        if group.static_size is None:
            out.append(
                PlanViolation(
                    CHECK_STACK,
                    f"stack group {group.gid} (root '{group.root}') "
                    f"has no static size",
                    (group.root,),
                )
            )
            continue
        for member in group.members:
            size = env.of(member).static_storage_size()
            if size is None:
                out.append(
                    PlanViolation(
                        CHECK_STACK,
                        f"stack group {group.gid} contains '{member}' "
                        f"whose size is not statically estimable",
                        (member,),
                    )
                )
            elif size > group.static_size:
                out.append(
                    PlanViolation(
                        CHECK_STACK,
                        f"'{member}' needs {size} bytes but stack "
                        f"group {group.gid} reserves only "
                        f"{group.static_size}",
                        (member,),
                    )
                )
