"""Symbolic shape tuples (paper §3.1–3.2).

A shape tuple s(u) is a tuple of dimension *extents*.  Extents are
symbolic expressions:

* :class:`ConstDim` — a compile-time integer;
* :class:`ValueDim` — "the run-time value of SSA variable v" (how
  ``zeros(n, m)`` gets the shape ``(⌊n⌋, ⌊m⌋)``; two arrays built from
  the same SSA variables get *structurally equal* shapes, which is the
  reproduction of MAGICA's symbolic-equivalence reuse [18]);
* :class:`FreshDim` — an opaque unknown, unique per allocation site;
* :class:`OpDim` — ``max``/``add``/``mul``/``rangelen`` over extents,
  built through smart constructors that canonicalize and fold.

``dim_le`` is the symbolic ≤ used by Relation 1's second criterion: it
proves S(u) ≤ S(v) when v's extents contain u's under ``max`` (the
``subsasgn`` growth pattern of the paper's Example 2) or match exactly
(Example 1's elementwise chains).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import reduce


# --------------------------------------------------------------------------
# Dimension expressions
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ConstDim:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class ValueDim:
    """Extent equal to (the floor of) SSA variable ``var``'s value."""

    var: str

    def __str__(self) -> str:
        return f"⌊{self.var}⌋"


@dataclass(frozen=True, slots=True)
class FreshDim:
    ident: int

    def __str__(self) -> str:
        return f"?{self.ident}"


@dataclass(frozen=True, slots=True)
class OpDim:
    op: str  # 'max' | 'add' | 'mul' | 'rangelen'
    args: tuple["Dim", ...]

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.op}({inner})"


Dim = ConstDim | ValueDim | FreshDim | OpDim


class FreshDims:
    """The fresh-dimension source of one compile.

    Numbering starts at 0 for every source, so the ``?N`` extents in a
    compile's types and report do not depend on what the process, or
    another thread, compiled before.  :meth:`active` makes this the
    source :func:`fresh_dim` draws from in the current thread (or
    task); :meth:`memo` makes dims repeat across re-runs of one block.
    """

    __slots__ = ("_next", "_table", "_key", "_calls")

    def __init__(self) -> None:
        self._next = itertools.count()
        self._table: dict | None = None
        self._key: object = None
        self._calls = 0

    def __call__(self) -> FreshDim:
        if self._table is None:
            return FreshDim(next(self._next))
        memo_key = (self._key, self._calls)
        self._calls += 1
        dim = self._table.get(memo_key)
        if dim is None:
            dim = self._table[memo_key] = FreshDim(next(self._next))
        return dim

    @contextmanager
    def active(self) -> Iterator["FreshDims"]:
        token = _ACTIVE.set(self)
        try:
            yield self
        finally:
            _ACTIVE.reset(token)

    @contextmanager
    def memo(self, table: dict, key: object) -> Iterator[None]:
        """Memoize the block's dims in ``table`` per (key, call index).

        A fixpoint engine re-running a transfer function then gets the
        *same* dims each pass — otherwise φ joins accumulate
        ever-growing max() terms.
        """
        self._table, self._key, self._calls = table, key, 0
        try:
            yield
        finally:
            self._table = None


_ACTIVE: ContextVar[FreshDims | None] = ContextVar("fresh_dims", default=None)

#: dims made outside any active source (e.g. the unknown type of a name
#: looked up after its compile): negative, so never equal to a
#: compile's own dims.
_UNSCOPED = itertools.count(-1, -1)


def fresh_dim() -> FreshDim:
    source = _ACTIVE.get()
    if source is None:
        return FreshDim(next(_UNSCOPED))
    return source()


# -- smart constructors -----------------------------------------------------


def dim_max(*dims: Dim) -> Dim:
    """max over extents, flattened, deduplicated, constants folded."""
    flat: list[Dim] = []
    for d in dims:
        if isinstance(d, OpDim) and d.op == "max":
            flat.extend(d.args)
        else:
            flat.append(d)
    consts = [d.value for d in flat if isinstance(d, ConstDim)]
    rest: list[Dim] = []
    for d in flat:
        if not isinstance(d, ConstDim) and d not in rest:
            rest.append(d)
    if consts:
        folded = ConstDim(max(consts))
        if not rest:
            return folded
        rest.append(folded)
    if len(rest) == 1:
        return rest[0]
    # canonical order so max(a,b) == max(b,a)
    rest.sort(key=str)
    return OpDim("max", tuple(rest))


def dim_add(a: Dim, b: Dim) -> Dim:
    if isinstance(a, ConstDim) and isinstance(b, ConstDim):
        return ConstDim(a.value + b.value)
    if isinstance(a, ConstDim) and a.value == 0:
        return b
    if isinstance(b, ConstDim) and b.value == 0:
        return a
    parts = []
    for d in (a, b):
        if isinstance(d, OpDim) and d.op == "add":
            parts.extend(d.args)
        else:
            parts.append(d)
    parts.sort(key=str)
    return OpDim("add", tuple(parts))


def dim_mul(a: Dim, b: Dim) -> Dim:
    if isinstance(a, ConstDim) and isinstance(b, ConstDim):
        return ConstDim(a.value * b.value)
    if isinstance(a, ConstDim) and a.value == 1:
        return b
    if isinstance(b, ConstDim) and b.value == 1:
        return a
    if (isinstance(a, ConstDim) and a.value == 0) or (
        isinstance(b, ConstDim) and b.value == 0
    ):
        return ConstDim(0)
    parts = []
    for d in (a, b):
        if isinstance(d, OpDim) and d.op == "mul":
            parts.extend(d.args)
        else:
            parts.append(d)
    parts.sort(key=str)
    return OpDim("mul", tuple(parts))


def dim_rangelen(start: Dim, step: Dim, stop: Dim) -> Dim:
    """Number of elements of ``start:step:stop`` (0 when empty)."""
    if (
        isinstance(start, ConstDim)
        and isinstance(step, ConstDim)
        and isinstance(stop, ConstDim)
        and step.value != 0
    ):
        n = (stop.value - start.value) // step.value + 1
        return ConstDim(max(0, n))
    return OpDim("rangelen", (start, step, stop))


def dim_le(a: Dim, b: Dim) -> bool:
    """Sound symbolic test for extent(a) ≤ extent(b); False = unknown."""
    if a == b:
        return True
    if isinstance(a, ConstDim) and isinstance(b, ConstDim):
        return a.value <= b.value
    if isinstance(b, OpDim) and b.op == "max":
        # a ≤ max(..., m, ...) if a ≤ m for some argument m
        return any(dim_le(a, m) for m in b.args)
    if isinstance(a, OpDim) and a.op == "max":
        # max(xs) ≤ b iff every x ≤ b
        return all(dim_le(x, b) for x in a.args)
    return False


# --------------------------------------------------------------------------
# Shape tuples
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Shape:
    """A shape tuple: extents plus exactness flags.

    ``exact``      — dims are the true run-time extents (safe to fold
                     ``size``/``numel`` against);
    ``rank_exact`` — the *number* of dimensions is certain even when
                     the extents are not.

    An inexact shape is still a sound **upper bound** on storage, which
    is all Phase 2 of GCTD needs.
    """

    dims: tuple[Dim, ...]
    exact: bool = True
    rank_exact: bool = True

    # -- constructors ----------------------------------------------------

    @staticmethod
    def scalar() -> "Shape":
        return Shape((ConstDim(1), ConstDim(1)))

    @staticmethod
    def matrix(rows: int, cols: int) -> "Shape":
        return Shape((ConstDim(rows), ConstDim(cols)))

    @staticmethod
    def row_vector(n: Dim) -> "Shape":
        return Shape((ConstDim(1), n))

    @staticmethod
    def column_vector(n: Dim) -> "Shape":
        return Shape((n, ConstDim(1)))

    @staticmethod
    def unknown(rank: int = 2) -> "Shape":
        return Shape(
            tuple(fresh_dim() for _ in range(rank)),
            exact=False,
            rank_exact=False,
        )

    @staticmethod
    def empty() -> "Shape":
        return Shape((ConstDim(0), ConstDim(0)))

    # -- queries ---------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def is_static(self) -> bool:
        """Paper §3.2.1 case 1: the shape tuple is explicit."""
        return all(isinstance(d, ConstDim) for d in self.dims)

    @property
    def is_scalar(self) -> bool:
        """Definitely 1×1×···×1 (requires exact extents)."""
        return self.exact and all(
            isinstance(d, ConstDim) and d.value == 1 for d in self.dims
        )

    @property
    def maybe_scalar(self) -> bool:
        """Cannot rule out being scalar."""
        if self.is_scalar:
            return True
        if not self.exact:
            return True
        return not any(
            isinstance(d, ConstDim) and d.value != 1 for d in self.dims
        )

    def numel(self) -> Dim:
        return reduce(dim_mul, self.dims, ConstDim(1))

    def static_numel(self) -> int | None:
        n = self.numel()
        return n.value if isinstance(n, ConstDim) else None

    def extent(self, dim_index: int) -> Dim:
        """1-based extent; trailing dimensions are 1 (MATLAB rule)."""
        if 1 <= dim_index <= len(self.dims):
            return self.dims[dim_index - 1]
        return ConstDim(1)

    # -- relations -----------------------------------------------------------

    def storage_le(self, other: "Shape") -> bool:
        """Symbolically prove numel(self) ≤ numel(other)."""
        if self.dims == other.dims:
            return True
        if self.numel() == other.numel():
            return True
        if self.rank == other.rank:
            if all(dim_le(a, b) for a, b in zip(self.dims, other.dims)):
                return True
        return dim_le(self.numel(), other.numel())

    def join(self, other: "Shape") -> "Shape":
        """Lattice join for φ merges.

        Equal shapes join to themselves; shapes of equal rank join to
        the per-extent ``max`` (a sound storage bound — the paper's
        static-estimation case 2 is the all-constant instance of this),
        exact only if they were equal.
        """
        if self == other:
            return self
        if self.rank == other.rank:
            dims = tuple(
                dim_max(a, b) for a, b in zip(self.dims, other.dims)
            )
            return Shape(
                dims,
                exact=False,
                rank_exact=self.rank_exact and other.rank_exact,
            )
        return Shape.unknown(max(self.rank, other.rank))

    def transposed(self) -> "Shape":
        if self.rank == 2:
            return Shape(
                (self.dims[1], self.dims[0]), self.exact, self.rank_exact
            )
        return Shape.unknown(self.rank)

    def with_exact(self, exact: bool) -> "Shape":
        return Shape(self.dims, exact, self.rank_exact)

    def __str__(self) -> str:
        inner = ", ".join(str(d) for d in self.dims)
        marker = "" if self.exact else "~"
        return f"{marker}({inner})"


def pick_better_shape(a: Shape, b: Shape) -> Shape:
    """Of two shapes known equal at run time, keep the more informative.

    Used for elementwise ops on two nonscalars: a legal MATLAB program
    guarantees the operand shapes agree, so either describes the result;
    we prefer static > exact-symbolic > inexact.
    """

    def score(s: Shape) -> int:
        if s.is_static:
            return 3
        if s.exact:
            return 2
        if s.rank_exact:
            return 1
        return 0

    return a if score(a) >= score(b) else b
