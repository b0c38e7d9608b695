"""The combined abstract value: intrinsic × shape × value range."""

from __future__ import annotations

from dataclasses import dataclass

from repro.typing.intrinsic import Intrinsic, scalar_size
from repro.typing.ranges import Interval
from repro.typing.shape import ConstDim, Dim, Shape, dim_mul


@dataclass(frozen=True, slots=True)
class VarType:
    """What MAGICA infers per variable: τ(w), s(w) (and ρ implicitly
    as the shape's rank), and the value range ν(w)."""

    intrinsic: Intrinsic
    shape: Shape
    range: Interval
    #: symbolic upper bound: the value is ≤ ⌊value of SSA var sym_hi⌋
    #: (set for loop indices ``for k = 1:n``; lets Phase-2-relevant
    #: subscript checks prove in-boundedness against symbolic extents)
    sym_hi: str | None = None

    # -- constructors --------------------------------------------------

    @staticmethod
    def scalar(
        intrinsic: Intrinsic = Intrinsic.REAL,
        rng: Interval | None = None,
    ) -> "VarType":
        return VarType(intrinsic, Shape.scalar(), rng or Interval.top())

    @staticmethod
    def unknown() -> "VarType":
        return VarType(Intrinsic.COMPLEX, Shape.unknown(), Interval.top())

    # -- queries ---------------------------------------------------------

    @property
    def is_scalar(self) -> bool:
        return self.shape.is_scalar

    def storage_size(self) -> Dim:
        """|s(u)|·|τ(u)| as a (possibly symbolic) byte count."""
        return dim_mul(self.shape.numel(), ConstDim(scalar_size(self.intrinsic)))

    def static_storage_size(self) -> int | None:
        size = self.storage_size()
        return size.value if isinstance(size, ConstDim) else None

    # -- lattice -----------------------------------------------------------

    def join(self, other: "VarType") -> "VarType":
        return VarType(
            self.intrinsic.join(other.intrinsic),
            self.shape.join(other.shape),
            self.range.join(other.range),
            self.sym_hi if self.sym_hi == other.sym_hi else None,
        )

    def __str__(self) -> str:
        return f"{self.intrinsic.name}{self.shape}"
