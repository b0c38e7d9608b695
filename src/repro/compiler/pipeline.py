"""The mat2c-style compilation pipeline.

``compile_source``/``compile_program`` run the paper's translator
stages end to end:

parse → lower to SO-form IR (inlining user calls) → SSA → cleanup
passes (copy propagation, DCE, constant folding, CSE) → type/shape
inference ⇄ shape-query folding (iterated: each folding round can turn
more shapes static) → **GCTD** → SSA inversion with identity-copy
folding → executable IR + allocation plan (+ C, via the back end).

The result object can execute the program under the mat2c VM, the mcc
baseline model, and the AST interpreter, so one compilation supports
the paper's whole comparison matrix; :meth:`CompilationResult.run_meters`
prices one VM evaluation under several models at once.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.analysis.pass_manager import run_cleanup_pipeline
from repro.core.gctd import (
    GCTDOptions,
    GCTDResult,
    mcc_fallback_result,
    run_gctd,
)
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse_program
from repro.interp.interpreter import InterpResult, interpret
from repro.ir.cfg import IRFunction
from repro.ir.lower import lower_program
from repro.mccsim.executor import MccMeter
from repro.runtime.builtins import RuntimeContext
from repro.ssa.construct import construct_ssa
from repro.ssa.invert import invert_ssa
from repro.typing.infer import TypeEnvironment, infer_types
from repro.typing.shape import FreshDims
from repro.typing.shapefold import fold_shape_queries
from repro.vm.base import Engine, ExecutionResult
from repro.vm.executor import Mat2CMeter

_MAX_INFERENCE_ROUNDS = 4

#: Version of the translation pipeline itself.  Part of every artifact
#: fingerprint (see :mod:`repro.service.fingerprint`); bump it whenever
#: a pass change makes previously cached compilation results stale.
#: "2": CompilationResult grew the `verification` field (plan checker).
#: "3": the pickled result changed shape (GCTDResult holds only graph,
#: plan and interference stats; no `pass_stats`), so a "2" pickle must
#: miss rather than load with fields the classes no longer have.
PIPELINE_VERSION = "3"


class _NullSpan:
    """Detail sink used when no tracer is injected."""

    __slots__ = ("details", "instructions")

    def __init__(self) -> None:
        self.details: dict = {}
        self.instructions: int | None = None


class _NullTracer:
    """Do-nothing stand-in for :class:`repro.service.telemetry.Tracer`.

    The pipeline only ever talks to this interface, so the service
    layer stays an optional dependency: injecting a real tracer turns
    on pass-level telemetry, omitting it costs (almost) nothing.
    """

    @contextmanager
    def span(self, name: str, func: IRFunction | None = None):
        yield _NullSpan()

    def event(self, name: str, **details) -> None:
        pass


_NULL_TRACER = _NullTracer()


@dataclass(slots=True)
class CompilerOptions:
    gctd: GCTDOptions = field(default_factory=GCTDOptions)
    enable_cse: bool = True
    enable_constfold: bool = True
    enable_shapefold: bool = True
    max_steps: int = 20_000_000


@dataclass(slots=True)
class CompilationResult:
    program: ast.Program
    ssa_func: IRFunction          # SSA form (as GCTD saw it)
    exec_func: IRFunction         # inverted, executable IR
    env: TypeEnvironment
    gctd: GCTDResult
    options: CompilerOptions
    identity_copies_folded: int = 0
    #: result of the independent plan checker (see :mod:`repro.verify`);
    #: None unless the compilation ran with ``verify_plan=True``.
    verification: object = None
    #: True when GCTD failed and the plan is the mcc all-heap fallback.
    degraded: bool = False
    #: why the compilation degraded (empty when it did not).
    degraded_reason: str = ""

    @property
    def plan(self):
        return self.gctd.plan

    @property
    def report(self):
        return self.gctd.plan.stats

    # -- execution front doors ------------------------------------------

    def run_mat2c(
        self, ctx: RuntimeContext | None = None, aliased: bool = False
    ) -> ExecutionResult:
        """Execute under the GCTD-allocated mat2c model.

        ``aliased=True`` routes reads and writes through the shared
        group buffers (like the generated C), which validates that the
        coalescing itself preserves the program's meaning.
        """
        meter = Mat2CMeter(self.exec_func, self.plan)
        if not aliased:
            return self.run_meters([meter], ctx)[0]
        engine = Engine(
            self.exec_func, [meter], ctx, self.options.max_steps,
            plan=self.plan, types=self.env,
        )
        return engine.run()[0]

    def run_mcc(self, ctx: RuntimeContext | None = None) -> ExecutionResult:
        """Execute under the mcc library/mxArray model."""
        return self.run_meters([MccMeter(self.exec_func)], ctx)[0]

    def run_meters(
        self, meters: list, ctx: RuntimeContext | None = None
    ) -> list[ExecutionResult]:
        """Evaluate the executable IR once, priced by every meter.

        Returns one result per meter, in order; they share the output
        and the step count.  A meter built from another compilation's
        plan prices this one's IR, which is sound because GCTD options
        never change the executable IR.
        """
        return Engine(
            self.exec_func, meters, ctx, self.options.max_steps
        ).run()

    def run_interpreter(
        self, ctx: RuntimeContext | None = None
    ) -> InterpResult:
        """Execute under the AST interpreter (semantic oracle)."""
        return interpret(
            self.program, ctx, max_steps=self.options.max_steps
        )

    def generate_c(self) -> str:
        """Emit the C translation (see :mod:`repro.backend.cgen`)."""
        from repro.backend.cgen import generate_c

        return generate_c(self)


def compile_program(
    sources: dict[str, str],
    entry: str | None = None,
    options: CompilerOptions | None = None,
    *,
    tracer=None,
    cache=None,
    verify_plan: bool = False,
    degrade: bool = False,
    injector=None,
) -> CompilationResult:
    """Compile a set of M-files (filename → text).

    ``tracer`` and ``cache`` are optional injected dependencies (see
    :mod:`repro.service`): a tracer records per-pass wall time and IR
    statistics, a cache short-circuits the whole pipeline when an
    identical request (same sources, options, and pipeline version)
    has been compiled before.

    ``verify_plan=True`` runs the independent plan checker
    (:mod:`repro.verify`) as a post-pass and stores its report on
    ``result.verification``.  Verification never alters the artifact
    — it is not part of the fingerprint, so a cached result is
    verified on retrieval when the cached copy lacks a report.

    ``degrade=True`` turns a GCTD failure (an exception out of the
    pass) into a *degraded* result instead of an error: the allocation
    plan falls back to the mcc all-heap model, ``result.degraded`` is
    set, and the fallback plan is still checked for soundness.  Degraded
    results are never cached — the failure may be transient, and a
    later compile should get another shot at the real plan.  These
    knobs are deliberately keyword-only and outside
    :class:`CompilerOptions` so they never perturb artifact
    fingerprints.  ``injector`` is an optional
    :class:`repro.faults.FaultInjector` consulted at the ``gctd.run``
    site (chaos testing).
    """
    options = options or CompilerOptions()
    tracer = tracer if tracer is not None else _NULL_TRACER
    if cache is not None:
        cached = cache.get_program(sources, entry, options, tracer=tracer)
        if cached is not None:
            if verify_plan and cached.verification is None:
                _verify_result(cached, tracer)
            return cached
    # One fresh-dimension source per compile, so the result depends on
    # the request alone, not on what this process compiled before.
    with FreshDims().active() as fresh:
        result = _run_pipeline(
            sources,
            entry,
            options,
            tracer,
            fresh,
            degrade=degrade,
            injector=injector,
        )
    if verify_plan:
        _verify_result(result, tracer)
    if cache is not None and not result.degraded:
        cache.put_program(sources, entry, options, result, tracer=tracer)
    return result


def _verify_result(result: CompilationResult, tracer) -> None:
    from repro.verify import verify_compilation

    with tracer.span("verify", result.ssa_func) as sp:
        result.verification = verify_compilation(result)
        sp.details["violations"] = len(result.verification.violations)


def _run_pipeline(
    sources: dict[str, str],
    entry: str | None,
    options: CompilerOptions,
    tracer,
    fresh: FreshDims,
    *,
    degrade: bool = False,
    injector=None,
) -> CompilationResult:
    with tracer.span("parse"):
        program = parse_program(sources, entry)
    with tracer.span("lower") as sp:
        func = lower_program(program)
        sp.details["functions_inlined"] = len(program.functions) - 1
    with tracer.span("ssa", func):
        construct_ssa(func)
    with tracer.span("cleanup", func) as sp:
        sp.details["iterations"] = run_cleanup_pipeline(
            func,
            enable_cse=options.enable_cse,
            enable_constfold=options.enable_constfold,
        ).iterations
    with tracer.span("infer", func):
        env = infer_types(func, fresh)
    if options.enable_shapefold:
        for round_no in range(_MAX_INFERENCE_ROUNDS):
            with tracer.span("shapefold", func) as sp:
                folded = fold_shape_queries(func, env)
                sp.details["queries_folded"] = folded
            if not folded:
                break
            with tracer.span("cleanup", func):
                run_cleanup_pipeline(
                    func,
                    enable_cse=options.enable_cse,
                    enable_constfold=options.enable_constfold,
                )
            with tracer.span("infer", func):
                env = infer_types(func, fresh)

    with tracer.span("gctd", func) as sp:
        degraded_reason = ""
        try:
            if injector is not None:
                injector.interrupt("gctd.run")
            gctd = run_gctd(func, env, options.gctd)
        except Exception as exc:
            if not degrade:
                raise
            degraded_reason = f"gctd failed: {exc}"
            gctd = mcc_fallback_result(func, env)
            _check_fallback_plan(func, env, gctd.plan)
            sp.details["degraded"] = degraded_reason
        stats = gctd.interference_stats
        sp.details["interference_edges"] = (
            stats.duchain_edges + stats.opsem_edges
        )
        sp.details["interference_nodes"] = len(gctd.graph.nodes())
        sp.details["colors"] = gctd.plan.stats.color_count
        sp.details["groups"] = gctd.plan.stats.group_count

    with tracer.span("invert") as sp:
        exec_func = invert_ssa(func)
        # the pass's output is a new function, so count it here
        sp.instructions = len(exec_func.instructions())
        # Identity copies (same storage group) stay in the executable
        # IR — the environment is name-keyed — but they cost nothing in
        # the mat2c model and the C back end emits no code for them.
        # Count them here for the report.
        folded_copies = _count_identity_copies(exec_func, gctd.plan)
        sp.details["identity_copies_folded"] = folded_copies

    return CompilationResult(
        program=program,
        ssa_func=func,
        exec_func=exec_func,
        env=env,
        gctd=gctd,
        options=options,
        identity_copies_folded=folded_copies,
        degraded=bool(degraded_reason),
        degraded_reason=degraded_reason,
    )


def _check_fallback_plan(func: IRFunction, env, plan) -> None:
    """Degraded is allowed; unsound is not.  Check before proceeding."""
    from repro.verify.checker import verify_plan as _verify

    report = _verify(func, env, plan)
    if not report.ok:
        raise RuntimeError(
            "mcc fallback plan failed verification: "
            + "; ".join(v.message for v in report.violations)
        )


def _count_identity_copies(func: IRFunction, plan) -> int:
    from repro.ir.instr import Var

    count = 0
    for instr in func.instructions():
        if (
            instr.op == "copy"
            and len(instr.args) == 1
            and isinstance(instr.args[0], Var)
            and plan.same_storage(instr.results[0], instr.args[0].name)
        ):
            count += 1
    return count


def compile_source(
    text: str,
    name: str = "main",
    options: CompilerOptions | None = None,
    *,
    tracer=None,
    cache=None,
) -> CompilationResult:
    """Compile a single M-file given as a string."""
    return compile_program(
        {f"{name}.m": text}, options=options, tracer=tracer, cache=cache
    )
