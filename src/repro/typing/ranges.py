"""Value-range analysis domain: closed intervals with an integrality bit.

MAGICA infers a value range ν(w) for each variable (paper §3.1).  The
reproduction uses ranges for the same things the paper does:

* proving an operand *scalar-and-positive-integral* where subscript
  legality matters;
* proving subscripts stay within an array's extents (so ``subsasgn``
  does not expand storage and shape equivalence is preserved);
* refining intrinsic types (integral interval ⇒ INTEGER).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Interval:
    """[lo, hi] over the extended reals; ``integral`` = all values ∈ ℤ."""

    lo: float = -math.inf
    hi: float = math.inf
    integral: bool = False

    # -- constructors --------------------------------------------------

    @staticmethod
    def exact(value: float) -> "Interval":
        return Interval(value, value, integral=float(value).is_integer())

    @staticmethod
    def top() -> "Interval":
        return Interval()

    @staticmethod
    def nonnegative() -> "Interval":
        return Interval(0.0, math.inf)

    @staticmethod
    def bounded(lo: float, hi: float, integral: bool = False) -> "Interval":
        return Interval(lo, hi, integral)

    # -- queries ---------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi and math.isfinite(self.lo)

    @property
    def exact_value(self) -> float:
        assert self.is_exact
        return self.lo

    @property
    def is_positive(self) -> bool:
        return self.lo > 0

    @property
    def is_nonnegative(self) -> bool:
        return self.lo >= 0

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    # -- lattice -----------------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        return Interval(
            min(self.lo, other.lo),
            max(self.hi, other.hi),
            self.integral and other.integral,
        )

    def widen(self, previous: "Interval") -> "Interval":
        """Standard interval widening against the previous iterate."""
        lo = self.lo if self.lo >= previous.lo else -math.inf
        hi = self.hi if self.hi <= previous.hi else math.inf
        return Interval(lo, hi, self.integral and previous.integral)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(
            self.lo + other.lo,
            self.hi + other.hi,
            self.integral and other.integral,
        )

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(
            self.lo - other.hi,
            self.hi - other.lo,
            self.integral and other.integral,
        )

    def __mul__(self, other: "Interval") -> "Interval":
        candidates = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        finite = [c for c in candidates if not math.isnan(c)]
        if not finite:
            return Interval.top()
        return Interval(
            min(finite), max(finite), self.integral and other.integral
        )

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo, self.integral)

    def divide(self, other: "Interval") -> "Interval":
        if other.contains(0.0):
            return Interval.top()
        candidates = [
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        ]
        finite = [c for c in candidates if not math.isnan(c)]
        return Interval(min(finite), max(finite), False)

    def floor(self) -> "Interval":
        return Interval(
            math.floor(self.lo) if math.isfinite(self.lo) else self.lo,
            math.floor(self.hi) if math.isfinite(self.hi) else self.hi,
            True,
        )

    def absolute(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi), self.integral)
