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
environment key (constants are prebuilt values stored under keys of
their own: a scalar as an immutable float, an array read-only), every
instruction one *step* closure, and every terminator its targets and
condition key.  A step reads its operands from the environment,
computes, stores its results, works out the
:func:`~repro.vm.work.computation_work` and calls each meter's price
(``meter.decode(instr)``).  Binary ops, ``copy``/``const``, ``subsref``
with one or two subscripts and ``forindex`` get steps of their own,
with the two-float case inline; every other instruction's step
composes a fetch, an evaluator that also stores, and a work function.
The step loop then only calls the steps.  The decoded tables belong to
the run and go with it.

The environment holds every rank-2 1×1 REAL value as a Python float and
every rank-2 1×1 logical as a bool (:func:`~repro.runtime.marray.unbox`);
everything else — complex, char, rank-3 and non-scalar values — stays
an :class:`~repro.runtime.marray.MArray`.  Scalar arithmetic,
comparisons and ``forindex`` evaluate floats directly, in the IEEE
operations :mod:`repro.runtime.ops` performs on them, and so do
``subsref`` and ``subsasgn`` at float subscripts; any other operand,
op or builtin call is boxed first and its result unboxed again, so
every value and every price is what the boxed evaluation gives.

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
from math import isfinite

from repro.core.opsem import scalars_read_first
from repro.frontend.source import MatlabError
from repro.ir.cfg import IRFunction
from repro.ir.instr import Branch, Const, Instr, Jump, Ret, Var
from repro.memsim.meter import MemoryReport
from repro.runtime import ops
from repro.runtime.builtins import (
    RuntimeContext,
    call_builtin,
    call_builtin_unboxed,
    lookup_builtin,
)
from repro.runtime.errors import MatlabRuntimeError
from repro.runtime.indexing import (
    COLON,
    subsasgn_unboxed,
    subsref_unboxed,
)
from repro.runtime.marray import MArray, box, boxed_call, is_true, unbox
from repro.vm.work import work_function


class ExecutionLimitExceeded(MatlabError):
    pass


@dataclass(slots=True)
class ExecutionResult:
    output: str
    report: MemoryReport
    steps: int


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
            for step, instr in instrs:
                steps += 1
                if steps > limit:
                    raise ExecutionLimitExceeded(
                        f"exceeded {limit} executed instructions"
                    )
                try:
                    step()
                except KeyError:
                    error = self._undefined(instr)
                    if error is None:
                        raise
                    raise error from None
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
                # only the key of a Var can be missing
                raise self._undefined(term) from None
            for branch in branches:
                branch()
            block_id = true_target if is_true(cond) else false_target
        self.steps = steps
        for meter in meters:
            meter.finish()
        output = self.ctx.captured()
        return [
            ExecutionResult(output, meter.report(), steps)
            for meter in meters
        ]

    def _undefined(self, user) -> MatlabRuntimeError | None:
        """The error naming an operand of ``user`` that is not in the
        environment; None when every operand is there."""
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
        return None

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
        once, unboxed or made read-only, and stored under a key of its
        own."""
        if isinstance(operand, Var):
            return self._key(operand.name)
        if isinstance(operand, Const):
            value = unbox(MArray.from_scalar(operand.value))
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
        """``(step, instr)``: the closure that executes and prices one
        execution of ``instr``."""
        op = instr.op
        operands = instr.args[:1] if op == "display" else instr.args
        indexing = op in ("subsref", "subsasgn")
        keys = [self._operand_key(a, indexing) for a in operands]
        out = [self._key(name) for name in instr.results]
        prices = tuple(
            price for meter in self.meters
            if (price := meter.decode(instr)) is not None
        )
        env = self.env
        fetch = None
        if op == "subsasgn" and self.plan is not None:
            base = instr.args[0]
            if isinstance(base, Var) and not self.plan.same_storage(
                instr.results[0], base.name
            ):
                fetch = self._store_order_fetcher(
                    instr, keys, out[0],
                    scalars_read_first(instr, self.plan, self.types),
                )
        if fetch is None and len(out) == 1:
            arity = len(keys)
            if op in ops.FLOAT_BINOPS and arity == 2:
                step = _binop_step(env, keys, out[0], instr, prices)
            elif op in ("copy", "const") and arity == 1:
                step = _copy_step(env, keys[0], out[0], prices)
            elif op == "subsref" and arity in (2, 3):
                step = _subsref_step(env, keys, out[0], prices)
            elif op == "forindex" and arity == 4:
                step = _forindex_step(env, keys, out[0], prices)
            else:
                step = None
            if step is not None:
                return step, instr
        step = _composed_step(
            fetch or _fetcher(env, keys),
            _evaluator(instr, env, out, self.ctx),
            work_function(instr),
            prices,
        )
        return step, instr

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


def _composed_step(fetch, evaluate, work_of, prices: tuple):
    """The step of an instruction without a step builder of its own."""
    if not prices:
        return lambda: evaluate(fetch())

    def step():
        args = fetch()
        results = evaluate(args)
        work = work_of(args, results)
        for price in prices:
            price(args, results, work)

    return step


def _binop_step(env: dict, keys: list, key, instr: Instr, prices: tuple):
    """A binary op with a float rule: two floats compute by
    ``ops.FLOAT_BINOPS`` (a division by zero, where Python raises and
    numpy gives inf or nan, takes the boxed op) and price 1.0 of work,
    the one element they produce; anything else takes the boxed op of
    ``ops.BINOPS`` and ``work_function``'s price."""
    k0, k1 = keys
    fast = ops.FLOAT_BINOPS[instr.op]
    boxed = ops.BINOPS[instr.op]
    work_of = work_function(instr)

    def step():
        a = env[k0]
        b = env[k1]
        if a.__class__ is float and b.__class__ is float:
            try:
                value = fast(a, b)
            except ZeroDivisionError:
                value = boxed_call(boxed, (a, b))
            env[key] = value
            if prices:
                args, results = [a, b], [value]
                for price in prices:
                    price(args, results, 1.0)
            return
        value = boxed_call(boxed, (a, b))
        env[key] = value
        if prices:
            args, results = [a, b], [value]
            work = work_of(args, results)
            for price in prices:
                price(args, results, work)

    return step


def _copy_step(env: dict, k0, key, prices: tuple):
    """``copy`` or ``const``: the work is the value's element count."""

    def step():
        value = env[k0]
        env[key] = value
        if prices:
            _price_element_count(prices, [value], value)

    return step


def _subsref_step(env: dict, keys: list, key, prices: tuple):
    """``subsref`` with one or two subscripts: the work is the result's
    element count."""
    if len(keys) == 2:
        kb, k0 = keys

        def step():
            a = env[kb]
            s0 = env[k0]
            value = subsref_unboxed(a, [s0])
            env[key] = value
            if prices:
                _price_element_count(prices, [a, s0], value)

        return step

    kb, k0, k1 = keys

    def step2():
        a = env[kb]
        s0 = env[k0]
        s1 = env[k1]
        value = subsref_unboxed(a, [s0, s1])
        env[key] = value
        if prices:
            _price_element_count(prices, [a, s0, s1], value)

    return step2


def _price_element_count(prices: tuple, args: list, value) -> None:
    """Price an execution whose work is the element count of its one
    result, ``value``."""
    work = float(value.data.size) if value.__class__ is MArray else 1.0
    results = [value]
    for price in prices:
        price(args, results, work)


def _forindex_step(env: dict, keys: list, key, prices: tuple):
    """``forindex``: the work is the result's element count."""
    k0, k1, k2, k3 = keys

    def step():
        args = [env[k0], env[k1], env[k2], env[k3]]
        value = _forindex(args)
        env[key] = value
        if prices:
            _price_element_count(prices, args, value)

    return step


def _evaluator(instr: Instr, env: dict, out: list, ctx: RuntimeContext):
    """A function from operand values to results that also stores the
    results in ``env`` under the ``out`` keys.  Operands and results
    are unboxed (see :func:`~repro.runtime.marray.unbox`)."""
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
            call_builtin(ctx, "disp", [box(args[0])])
            return []

        return display
    if instr.is_call and lookup_builtin(instr.callee) is not None:
        name = instr.callee
        nargout = max(1, len(instr.results))
        return _storing(
            lambda args: call_builtin_unboxed(ctx, name, args, nargout),
            env, out,
        )
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
    if op in ops.BINOPS:
        binop = ops.unboxed_binop(op)
        return lambda args: binop(*args)
    if op in ("const", "copy"):
        return lambda args: args[0]
    if op in _UNARY:
        return _boxed(_UNARY[op])
    if op == "range":
        return _boxed(ops.make_range)
    if op == "forindex":
        return _forindex
    if op == "subsref":
        return lambda args: subsref_unboxed(args[0], args[1:])
    if op == "subsasgn":
        return lambda args: subsasgn_unboxed(args[0], args[1], args[2:])
    if op == "horzcat":
        return _boxed(lambda *parts: ops.horzcat(parts))
    if op == "vertcat":
        return _boxed(lambda *parts: ops.vertcat(parts))
    if op in ("empty", "undef"):
        return lambda args: MArray.empty()
    return None


def _boxed(fn):
    """``args → value`` by ``fn`` on the boxed operands."""
    return lambda args: boxed_call(fn, args)


def _forindex(args):
    """``start + counter*step`` (the bounds, ``args[2]``, are carried
    for analysis).  The boxed op computes in complex arithmetic, whose
    real part is the float result when every operand is finite."""
    start, step, _, counter = args
    if (
        start.__class__ is float
        and step.__class__ is float
        and counter.__class__ is float
        and isfinite(start)
        and isfinite(step)
        and isfinite(counter)
    ):
        return start + counter * step
    return unbox(MArray.from_scalar(
        box(start).scalar() + box(counter).scalar() * box(step).scalar()
    ))


def _raiser(instr: Instr):
    """The evaluator of an instruction that fails when it executes."""
    if instr.is_call:
        message = f"unknown builtin {instr.callee!r}"
    else:
        message = f"unsupported IR op {instr.op!r}"

    def fail(args):
        raise MatlabRuntimeError(message)

    return fail
