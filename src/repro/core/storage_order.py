"""The storage-size partial order ⪯ (paper §3.2, Relation 1).

    S(u) ⪯ S(v)  iff
      (static criterion)   both sizes statically estimable,
                           τ(u) = τ(v), and S(u) ≤ S(v);   or
      (symbolic criterion) both sizes statically inestimable,
                           u is available at the definition of v,
                           τ(u) = τ(v), and S(u) ≤ S(v) symbolically.

The two criteria are deliberately disjoint (a static and a symbolic
size are never related — the paper's Example 2 closing remark), and
both require *identical* intrinsic types so the generated C needs no
casts and meets no alignment issues.

The symbolic criterion's "available at the definition" clause is what
ties Phase 2 to control flow: chains built from it correspond to
definitions stepping through nondecreasingly-sized arrays along an
execution path, which is precisely the spatial-reuse pattern the paper
is after (§3.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.availability import AvailabilityInfo
from repro.typing.infer import TypeEnvironment
from repro.typing.intrinsic import Intrinsic


@dataclass(frozen=True, slots=True)
class StorageFacts:
    """What Relation 1 reads of one name's type, computed once."""

    intrinsic: Intrinsic
    #: statically estimable (paper §3.2.1): an explicit shape tuple.
    #: φ-joins of explicit tuples are folded to per-extent maxima by
    #: the shape lattice, so case 2 — ``max(S(v), S(w))`` at a join —
    #: is subsumed.
    is_static: bool
    #: storage size in bytes when it folds to a constant, else None
    size: int | None


@dataclass(slots=True)
class StorageOrder:
    """Decidable wrapper around ⪯ for one function's variables.

    Each name's :class:`StorageFacts` are derived from its type on
    first use and kept, so the order must not outlive the types it
    reads (one :func:`~repro.core.allocation.build_allocation_plan`).
    """

    env: TypeEnvironment
    availability: AvailabilityInfo
    use_symbolic: bool = True  # ablation: drop the second criterion
    _facts: dict[str, StorageFacts] = field(
        default_factory=dict, init=False, repr=False
    )

    def facts(self, name: str) -> StorageFacts:
        facts = self._facts.get(name)
        if facts is None:
            vartype = self.env.of(name)
            facts = self._facts[name] = StorageFacts(
                vartype.intrinsic,
                vartype.shape.is_static,
                vartype.static_storage_size(),
            )
        return facts

    def precedes(self, u: str, v: str) -> bool:
        """S(u) ⪯ S(v) under Relation 1 (reflexive)."""
        if u == v:
            return True
        fu, fv = self.facts(u), self.facts(v)
        if fu.intrinsic != fv.intrinsic:
            return False
        if fu.is_static and fv.is_static:
            assert fu.size is not None and fv.size is not None
            return fu.size <= fv.size
        if fu.is_static or fv.is_static:
            # sizes in different estimability classes are never related
            return False
        if not self.use_symbolic:
            return False
        if not self.availability.available_at_definition_of(u, v):
            return False
        return self.env.of(u).shape.storage_le(self.env.of(v).shape)
