"""The IR execution engine: one evaluation, priced by many meters.

The mat2c model (GCTD-allocated storage, :mod:`repro.vm.executor`) and
the mcc model (everything a heap ``mxArray``, :mod:`repro.mccsim`)
differ only in what an instruction *costs*, never in what it computes.
So :class:`Engine` evaluates the SSA-inverted IR once and hands every
instruction — its operand values, its results and its
:func:`~repro.vm.work.computation_work`, computed once — to a list of
meters.  Each meter keeps its own clock, heap, stack and memory meter
and answers the hooks ``start``, ``decode``, ``branch``, ``block_end``,
``finish`` and ``report``.  ``decode`` may return None for an
instruction that costs the meter nothing, and ``block_end`` may be None
for a meter that does nothing at a block's end; the engine then skips
the call.  One run yields one :class:`ExecutionResult` per meter; the
output and step count are the evaluation's and so are shared.

Each run first *decodes* the function, once: every operand becomes an
environment key (constants are prebuilt, read-only values stored under
keys of their own), every instruction a fetch, an evaluator that also
stores its results, a work function and one pricing function per
meter (``meter.decode(instr)``), and every terminator its targets and
condition key.  The step loop then only calls what was decoded.  The
decoded tables belong to the run and go with it.

The engine keys its environment by name, or — given the allocation
``plan`` (and the ``types`` that prove operands scalar) — by storage
group, so reads and writes go through shared buffers like the
generated C (the aliased mat2c run).  There an out-of-place indexed
store also follows the C's emit order: it reads the scalars
:func:`~repro.core.opsem.scalars_read_first` names, writes the base
copy into the result's group, and only then reads the other operands.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.opsem import scalars_read_first
from repro.frontend.source import MatlabError
from repro.ir.cfg import IRFunction
from repro.ir.instr import Branch, Const, Instr, Jump, Ret, Var
from repro.memsim.meter import MemoryReport
from repro.runtime import ops
from repro.runtime.builtins import RuntimeContext, call_builtin, lookup_builtin
from repro.runtime.errors import MatlabRuntimeError
from repro.runtime.indexing import COLON, subsasgn, subsref
from repro.runtime.marray import MArray
from repro.vm.work import work_function


class ExecutionLimitExceeded(MatlabError):
    pass


@dataclass(slots=True)
class ExecutionResult:
    output: str
    report: MemoryReport
    steps: int


_BINOPS = {
    "add": ops.add,
    "sub": ops.sub,
    "elmul": ops.elmul,
    "eldiv": ops.eldiv,
    "elldiv": ops.elldiv,
    "elpow": ops.elpow,
    "mul": ops.mul,
    "div": ops.div,
    "ldiv": ops.ldiv,
    "pow": ops.pow_,
    "lt": ops.lt,
    "le": ops.le,
    "gt": ops.gt,
    "ge": ops.ge,
    "eq": ops.eq,
    "ne": ops.ne,
    "and": ops.and_,
    "or": ops.or_,
}

_UNARY = {
    "neg": ops.neg,
    "not": ops.not_,
    "transpose": lambda a: ops.transpose(a, conjugate=False),
    "ctranspose": lambda a: ops.transpose(a, conjugate=True),
}


class Engine:
    """Executes non-SSA IR once; each of ``meters`` prices the run."""

    def __init__(
        self,
        func: IRFunction,
        meters: list,
        ctx: RuntimeContext | None = None,
        max_steps: int = 20_000_000,
        plan=None,
        types=None,
    ) -> None:
        self.func = func
        self.meters = meters
        self.ctx = ctx or RuntimeContext()
        self.max_steps = max_steps
        #: the allocation plan of an aliased run (None: keyed by name)
        self.plan = plan
        self.types = types
        self.env: dict = {}
        self.steps = 0

    def run(self) -> list[ExecutionResult]:
        meters = self.meters
        for meter in meters:
            meter.start()
        code = self._decode()
        block_ends = [m.block_end for m in meters if m.block_end is not None]
        branches = [meter.branch for meter in meters]
        env = self.env
        limit = self.max_steps
        steps = self.steps
        block_id = self.func.entry
        while True:
            instrs, terminator = code[block_id]
            for fetch, evaluate, work_of, prices, instr in instrs:
                steps += 1
                if steps > limit:
                    raise ExecutionLimitExceeded(
                        f"exceeded {limit} executed instructions"
                    )
                try:
                    args = fetch()
                except KeyError:
                    raise self._undefined(instr) from None
                results = evaluate(args)
                if prices:
                    work = work_of(args, results)
                    for price in prices:
                        price(args, results, work)
            for block_end in block_ends:
                block_end(block_id)
            # count the control transfer too: an empty loop (all body
            # instructions dead-coded away) must still hit the limit
            steps += 1
            if steps > limit:
                raise ExecutionLimitExceeded(
                    f"exceeded {limit} executed instructions"
                )
            if terminator is None:
                break
            if terminator.__class__ is int:
                block_id = terminator
                continue
            if terminator is _MISSING:
                raise MatlabRuntimeError("block without terminator")
            condition, true_target, false_target, term = terminator
            try:
                cond = env[condition]
            except KeyError:
                raise self._undefined(term) from None
            for branch in branches:
                branch()
            block_id = true_target if cond.is_true() else false_target
        self.steps = steps
        for meter in meters:
            meter.finish()
        output = self.ctx.captured()
        return [
            ExecutionResult(output, meter.report(), steps)
            for meter in meters
        ]

    def _undefined(self, user) -> MatlabRuntimeError:
        operands = (
            user.args if isinstance(user, Instr) else [user.condition]
        )
        for operand in operands:
            if isinstance(operand, Var) and self._key(operand.name) not in (
                self.env
            ):
                return MatlabRuntimeError(
                    f"use of undefined variable {operand.name!r}"
                )
        return MatlabRuntimeError("use of an undefined variable")

    # -- decoding --------------------------------------------------------

    def _key(self, name: str) -> str:
        gid = None if self.plan is None else self.plan.group_of.get(name)
        return name if gid is None else f"@group{gid}"

    def _decode(self) -> dict:
        """Block id → (decoded instructions, decoded terminator).

        A terminator decodes to None (return), a target block id
        (jump) or ``(condition key, true, false, branch)``.
        """
        code = {}
        for block_id, block in self.func.blocks.items():
            instrs = [self._decode_instr(instr) for instr in block.instrs]
            term = block.terminator
            if isinstance(term, Ret):
                decoded = None
            elif isinstance(term, Jump):
                decoded = term.target
            elif isinstance(term, Branch):
                decoded = (
                    self._operand_key(term.condition),
                    term.true_target,
                    term.false_target,
                    term,
                )
            else:
                decoded = _MISSING
            code[block_id] = (instrs, decoded)
        return code

    def _operand_key(self, operand, indexing: bool = False):
        """The env key ``operand`` is read from; a constant is built
        once, made read-only and stored under a key of its own."""
        if isinstance(operand, Var):
            return self._key(operand.name)
        if isinstance(operand, Const):
            value = MArray.from_scalar(operand.value)
        elif indexing and operand.value == ":":
            value = COLON
        else:
            value = MArray.from_string(operand.value)
        if isinstance(value, MArray):
            value.data.flags.writeable = False
        key = _ConstKey()
        self.env[key] = value
        return key

    def _decode_instr(self, instr: Instr) -> tuple:
        op = instr.op
        operands = instr.args[:1] if op == "display" else instr.args
        indexing = op in ("subsref", "subsasgn")
        keys = [self._operand_key(a, indexing) for a in operands]
        out = [self._key(name) for name in instr.results]
        fetch = _fetcher(self.env, keys)
        if op == "subsasgn" and self.plan is not None:
            base = instr.args[0]
            if isinstance(base, Var) and not self.plan.same_storage(
                instr.results[0], base.name
            ):
                fetch = self._store_order_fetcher(
                    instr, keys, out[0],
                    scalars_read_first(instr, self.plan, self.types),
                )
        return (
            fetch,
            _evaluator(instr, self.env, out, self.ctx),
            work_function(instr),
            tuple(
                price for meter in self.meters
                if (price := meter.decode(instr)) is not None
            ),
            instr,
        )

    def _store_order_fetcher(self, instr, keys, out_key, first):
        """Operands of an out-of-place store in the C's order: the
        scalars in ``first``, then the base copy is written into the
        result's group, then the rest (which now see that copy)."""
        env = self.env
        early = [pos for pos, a in enumerate(instr.args) if a in first]
        late = [pos for pos in range(len(keys)) if pos not in early]
        base_key = keys[0]

        def fetch():
            args = [None] * len(keys)
            for pos in early:
                args[pos] = env[keys[pos]]
            env[out_key] = env[base_key]
            for pos in late:
                args[pos] = env[keys[pos]]
            return args

        return fetch


class _ConstKey:
    """The env key of one decoded constant operand (never a name)."""

    __slots__ = ()


#: the decoded terminator of a block that has none
_MISSING = ()


def _fetcher(env: dict, keys: list):
    """A function returning the operand values read from ``env``."""
    if not keys:
        return list
    if len(keys) == 1:
        (k0,) = keys
        return lambda: [env[k0]]
    if len(keys) == 2:
        k0, k1 = keys
        return lambda: [env[k0], env[k1]]
    if len(keys) == 3:
        k0, k1, k2 = keys
        return lambda: [env[k0], env[k1], env[k2]]
    return lambda: [env[k] for k in keys]


def _evaluator(instr: Instr, env: dict, out: list, ctx: RuntimeContext):
    """A function from operand values to results that also stores the
    results in ``env`` under the ``out`` keys."""
    op = instr.op
    compute = _single(instr)
    if compute is not None and len(out) == 1:
        (key,) = out

        def evaluate(args):
            value = compute(args)
            env[key] = value
            return [value]

        return evaluate
    if compute is not None:
        return _storing(lambda args: [compute(args)], env, out)
    if op == "display":
        label = instr.args[1].value  # type: ignore[union-attr]

        def display(args):
            ctx.write(f"{label} =\n")
            call_builtin(ctx, "disp", [args[0]])
            return []

        return display
    if instr.is_call and (fn := lookup_builtin(instr.callee)) is not None:
        nargout = max(1, len(instr.results))
        return _storing(lambda args: fn(ctx, args, nargout), env, out)
    return _raiser(instr)


def _storing(compute, env: dict, out: list):
    def evaluate(args):
        results = compute(args)
        for key, value in zip(out, results):
            env[key] = value
        return results

    return evaluate


def _single(instr: Instr):
    """``args → value`` for a one-result op; None for calls (whose
    results are a list) and unsupported ops."""
    op = instr.op
    if op in _BINOPS:
        fn = _BINOPS[op]
        return lambda args: fn(args[0], args[1])
    if op in ("const", "copy"):
        return lambda args: args[0]
    if op in _UNARY:
        fn = _UNARY[op]
        return lambda args: fn(args[0])
    if op == "range":
        return lambda args: ops.make_range(args[0], args[1], args[2])
    if op == "forindex":
        # start + counter*step (bounds args[2] carried for analysis)
        return lambda args: MArray.from_scalar(
            args[0].scalar() + args[3].scalar() * args[1].scalar()
        )
    if op == "subsref":
        return lambda args: subsref(args[0], args[1:])
    if op == "subsasgn":
        return lambda args: subsasgn(args[0], args[1], args[2:])
    if op == "horzcat":
        return ops.horzcat
    if op == "vertcat":
        return ops.vertcat
    if op in ("empty", "undef"):
        return lambda args: MArray.empty()
    return None


def _raiser(instr: Instr):
    """The evaluator of an instruction that fails when it executes."""
    if instr.is_call:
        message = f"unknown builtin {instr.callee!r}"
    else:
        message = f"unsupported IR op {instr.op!r}"

    def fail(args):
        raise MatlabRuntimeError(message)

    return fail
