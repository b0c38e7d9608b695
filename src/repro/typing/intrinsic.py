"""Intrinsic types and their lattice (paper §3.1, footnote 8).

MAGICA's intrinsic types are BOOLEAN, BYTE, INTEGER, REAL, COMPLEX,
NONREAL and the abstract illegal type ILLEGAL.  For inference we order
them in a chain BOOLEAN ⊑ BYTE ⊑ INTEGER ⊑ REAL ⊑ COMPLEX — each type's
value set embeds in the next — with NONREAL sitting between REAL and
COMPLEX as "any non-complex" and ILLEGAL as the error element.  The join
of two types is the least type whose value set contains both.

``storage_size`` is |τ(u)| in the paper: the byte size of one scalar of
that type in the C translation.  Relation 1 deliberately requires
*identical* intrinsic types on both sides, so these sizes are only ever
compared within one type.
"""

from __future__ import annotations

from enum import IntEnum


class Intrinsic(IntEnum):
    """Chain position doubles as the lattice height."""

    BOOLEAN = 1
    BYTE = 2
    INTEGER = 3
    REAL = 4
    NONREAL = 5   # abstract: any of BOOLEAN..REAL
    COMPLEX = 6
    ILLEGAL = 7   # intrinsic type error (lattice top)

    def join(self, other: "Intrinsic") -> "Intrinsic":
        return Intrinsic(max(self.value, other.value))


#: |τ| — bytes per scalar in the generated C (paper §3.2).
STORAGE_SIZE: dict[Intrinsic, int] = {
    Intrinsic.BOOLEAN: 4,   # mapped to C `int`
    Intrinsic.BYTE: 1,      # C `char`
    Intrinsic.INTEGER: 4,   # C `int`
    Intrinsic.REAL: 8,      # C `double`
    Intrinsic.NONREAL: 8,   # conservatively sized as REAL
    Intrinsic.COMPLEX: 16,  # two C `double`s
    Intrinsic.ILLEGAL: 0,
}


def scalar_size(intrinsic: Intrinsic) -> int:
    return STORAGE_SIZE[intrinsic]


def arithmetic_result(a: Intrinsic, b: Intrinsic) -> Intrinsic:
    """Intrinsic type of ``a ⊕ b`` for +, -, .*, * and friends.

    MATLAB arithmetic never yields BOOLEAN/BYTE results (logicals are
    promoted), so the result is at least INTEGER.
    """
    joined = a.join(b)
    if joined is Intrinsic.ILLEGAL:
        return joined
    return Intrinsic(max(joined.value, Intrinsic.INTEGER.value))


def division_result(a: Intrinsic, b: Intrinsic) -> Intrinsic:
    """Division generally leaves the integers (3/2 = 1.5)."""
    joined = arithmetic_result(a, b)
    if joined is Intrinsic.ILLEGAL:
        return joined
    return Intrinsic(max(joined.value, Intrinsic.REAL.value))


def comparison_result(a: Intrinsic, b: Intrinsic) -> Intrinsic:
    if Intrinsic.ILLEGAL in (a, b):
        return Intrinsic.ILLEGAL
    return Intrinsic.BOOLEAN


def intrinsic_of_literal(value: complex) -> Intrinsic:
    if value.imag != 0:
        return Intrinsic.COMPLEX
    real = value.real
    if real in (0.0, 1.0):
        # still INTEGER, not BOOLEAN: MATLAB literals are double
        return Intrinsic.INTEGER
    if real == int(real) and abs(real) < 2**31:
        return Intrinsic.INTEGER
    return Intrinsic.REAL
