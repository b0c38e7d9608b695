"""The executors' unboxed scalar kernels against the boxed runtime ops.

The engine and the interpreter keep a rank-2 1×1 REAL value as a Python
float and a rank-2 1×1 logical as a bool, and evaluate the common
scalar ops on them directly.  For every such kernel, boxing its result
must give exactly the boxed op's result — dtype, class flags, shape and
bits — and an invalid subscript must raise the same error.  Each
kernel is checked on every combination of the special values below
and, by hypothesis with a fixed seed, on arbitrary floats.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.interp import interpreter
from repro.ir.instr import AST_BINOP_TO_IR, Instr, Var
from repro.runtime import indexing, ops
from repro.runtime.errors import MatlabRuntimeError
from repro.runtime.indexing import (
    subsasgn,
    subsasgn_unboxed,
    subsref,
    subsref_unboxed,
)
from repro.runtime.marray import (
    MArray,
    box,
    byte_size,
    is_true,
    numel,
    unbox,
)
from repro.vm import base

SEED = 20030609
KERNELS = settings(max_examples=100, database=None)

SPECIAL = [
    0.0, -0.0, 1.0, -1.0, 0.5, 3.0,
    math.inf, -math.inf, math.nan,
    2.0**53 - 1, 2.0**53, 2.0**53 + 2, -(2.0**53) - 2,
    1e308, -1e308, 5e-324,
]
#: besides floats, what an executor holds: bools and boxed 1×1×1 values
OTHERS = [
    True,
    False,
    MArray(np.array(2.5, ndmin=3)),
    MArray(np.array(1.0, ndmin=3), is_logical=True),
]
OPERANDS = SPECIAL + OTHERS
operands = st.one_of(st.floats(), st.sampled_from(OPERANDS))

def assert_same(got, want) -> None:
    got, want = box(got), box(want)
    assert got.data.dtype == want.data.dtype
    assert (got.is_logical, got.is_char) == (want.is_logical, want.is_char)
    assert got.data.shape == want.data.shape
    assert got.data.tobytes() == want.data.tobytes()


def same_outcome(unboxed, boxed) -> None:
    """``unboxed()`` returns what ``boxed()`` returns, or raises the
    same error class with the same message."""
    try:
        want = boxed()
    except MatlabRuntimeError as error:
        with pytest.raises(type(error)) as raised:
            unboxed()
        assert str(raised.value) == str(error)
        return
    assert_same(unboxed(), want)


def engine_binop(op: str):
    return base._single(Instr(op, ["r"], [Var("a"), Var("b")]))


# -- binary ops ------------------------------------------------------------


def check_binop(op: str, a, b) -> None:
    want = ops.BINOPS[op](box(a), box(b))
    assert_same(engine_binop(op)([a, b]), want)
    for symbol, binop in interpreter._BINOPS.items():
        if AST_BINOP_TO_IR[symbol] == op:
            assert_same(binop(a, b), want)


@pytest.mark.parametrize("op", sorted(ops.FLOAT_BINOPS))
def test_binop_on_every_pair_of_special_values(op):
    for a, b in itertools.product(OPERANDS, repeat=2):
        check_binop(op, a, b)


@pytest.mark.parametrize("op", sorted(ops.FLOAT_BINOPS))
@seed(SEED)
@KERNELS
@given(a=operands, b=operands)
def test_binop_equals_the_boxed_op(op, a, b):
    check_binop(op, a, b)


@pytest.mark.parametrize("op", ["div", "eldiv"])
def test_division_by_zero_is_a_float_from_the_boxed_op(op):
    for x, zero in itertools.product(SPECIAL, (0.0, -0.0)):
        assert engine_binop(op)([x, zero]).__class__ is float


# -- forindex --------------------------------------------------------------


def check_forindex(start, step, counter) -> None:
    want = MArray.from_scalar(
        box(start).scalar() + box(counter).scalar() * box(step).scalar()
    )
    assert_same(base._forindex([start, step, 9.0, counter]), want)


def test_forindex_on_every_triple_of_special_values():
    for start, step, counter in itertools.product(OPERANDS, repeat=3):
        check_forindex(start, step, counter)


@seed(SEED)
@KERNELS
@given(start=operands, step=operands, counter=operands)
def test_forindex_equals_the_boxed_op(start, step, counter):
    check_forindex(start, step, counter)


# -- scalar subscripts -----------------------------------------------------

#: in range, at and one past the element count or each extent of the
#: bases, non-integral, or no index at all; none far past the extents,
#: because a store grows to it
SUBSCRIPTS = [
    1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0, 10.0, 0.0, -0.0, -1.0, 0.5, 1.5,
    2.5, math.inf, -math.inf, math.nan, True, False,
]
subscripts = st.one_of(
    st.floats(min_value=-2, max_value=11), st.sampled_from(SUBSCRIPTS)
)
BASES = [
    MArray.from_numpy(
        np.arange(1.0, 1.0 + rows * cols).reshape((rows, cols), order="F")
        - 2.5
    )
    for rows in range(4)
    for cols in range(4)
] + [
    MArray.from_numpy(np.array([[True, False]])),
    MArray.from_numpy(np.array([[True, False], [False, True]])),
    # a logical −0.0 is read as a boxed 1×1 logical, as unbox leaves it
    MArray(np.array([[-0.0, 1.0, 0.0]]), is_logical=True),
    MArray.from_string("abc"),
    MArray(np.asfortranarray([[97.0, 98.0], [99.0, 100.0]]), is_char=True),
    MArray(np.full((2, 1, 2), -0.0, order="F")),
    MArray.from_numpy(np.array([[1 + 2j, 3.0]])),
    7.0,
]
RIGHT_SIDES = [2.5, -0.0, math.nan, True, MArray(np.array(4.0, ndmin=3))]


def check_subsref(a, subs) -> None:
    same_outcome(
        lambda: subsref_unboxed(a, subs),
        lambda: subsref(box(a), [box(sub) for sub in subs]),
    )


def check_subsasgn(a, rhs, subs) -> None:
    same_outcome(
        lambda: subsasgn_unboxed(a, rhs, subs),
        lambda: subsasgn(box(a), box(rhs), [box(sub) for sub in subs]),
    )


def _subscript_lists():
    yield from ([s] for s in SUBSCRIPTS)
    yield from (list(p) for p in itertools.product(SUBSCRIPTS, repeat=2))


@pytest.mark.parametrize("index", range(len(BASES)))
def test_subsref_on_every_special_subscript(index):
    for subs in _subscript_lists():
        check_subsref(BASES[index], subs)


@pytest.mark.parametrize("index", range(len(BASES)))
def test_subsasgn_on_every_special_subscript(index):
    for subs in _subscript_lists():
        for rhs in RIGHT_SIDES:
            check_subsasgn(BASES[index], rhs, subs)


@seed(SEED)
@KERNELS
@given(
    a=st.sampled_from(BASES),
    subs=st.lists(subscripts, min_size=1, max_size=2),
)
def test_subsref_equals_the_boxed_op(a, subs):
    check_subsref(a, subs)


@seed(SEED)
@KERNELS
@given(
    a=st.sampled_from(BASES),
    rhs=operands,
    subs=st.lists(subscripts, min_size=1, max_size=2),
)
def test_subsasgn_equals_the_boxed_op(a, rhs, subs):
    check_subsasgn(a, rhs, subs)


def test_scalar_subscripts_in_range_never_box(monkeypatch):
    def boxed(*args):
        raise AssertionError("took the boxed op")

    monkeypatch.setattr(indexing, "subsref", boxed)
    monkeypatch.setattr(indexing, "subsasgn", boxed)
    row = MArray.from_numpy(np.array([[1.0, 2.0, 3.0]]))
    assert subsasgn_unboxed(row, 9.0, [3.0]).data.tolist() == [[1, 2, 9]]
    assert subsasgn_unboxed(row, 9.0, [1.0, 2.0]).data.tolist() == [
        [1, 9, 3]
    ]
    assert_same(subsref_unboxed(MArray.from_string("ab"), [2.0]),
                MArray.from_string("b"))
    logical = MArray.from_numpy(np.array([[True, False], [False, True]]))
    assert subsref_unboxed(logical, [4.0]) is True
    assert subsref_unboxed(logical, [2.0, 1.0]) is False


# -- the representation ----------------------------------------------------


def test_box_unbox_and_the_size_readers():
    for value in OPERANDS:
        boxed = box(value)
        assert_same(unbox(boxed), boxed)
        assert numel(value) == boxed.numel
        assert byte_size(value) == boxed.byte_size()
        assert is_true(value) == boxed.is_true()


def test_unbox_keeps_what_is_not_a_rank_2_real_scalar():
    kept = [
        MArray.from_scalar(2 + 1j),
        MArray.from_string("a"),
        MArray(np.ones((1, 1, 1))),
        MArray.from_numpy(np.ones((1, 2))),
        MArray.empty(),
        # a logical that is not 0 or 1 (nor -0) would not box back
        MArray(np.array(-0.0, ndmin=2), is_logical=True),
        MArray(np.array(2.0, ndmin=2), is_logical=True),
    ]
    for value in kept:
        assert unbox(value) is value
    assert unbox(MArray.from_scalar(2.5)).__class__ is float
    assert unbox(MArray.from_scalar(True)) is True
    assert unbox(MArray.from_scalar(False)) is False
