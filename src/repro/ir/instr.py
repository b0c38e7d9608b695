"""Single-Operator (SO) form intermediate representation.

Per the paper's §2.3, every IR assignment has a right-hand side that is
at most a single MATLAB operation (or pseudo-operation such as φ).
Long source expressions are broken with compiler temporaries during
lowering, and those temporaries are exactly the variables the paper
reports as the "key contributors" to GCTD's coalescing wins.

Operand kinds: :class:`Var` (SSA or pre-SSA variable), :class:`Const`
(numeric literal, possibly complex), :class:`StrConst` (string literal,
used only by display/error builtins).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.frontend.source import Location, UNKNOWN_LOCATION


# --------------------------------------------------------------------------
# Operands
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Const:
    value: complex  # real constants stored with .imag == 0

    def __str__(self) -> str:
        v = self.value
        if v.imag == 0:
            r = v.real
            return str(int(r)) if r == int(r) else repr(r)
        return repr(v)

    @property
    def is_integer(self) -> bool:
        return self.value.imag == 0 and self.value.real == int(self.value.real)


@dataclass(frozen=True, slots=True)
class StrConst:
    value: str

    def __str__(self) -> str:
        return f"'{self.value}'"


Operand = Var | Const | StrConst


# --------------------------------------------------------------------------
# Opcodes
# --------------------------------------------------------------------------

#: Elementwise binary arithmetic — always conformable elementwise (one
#: operand may be scalar); results can be computed in place in a
#: sufficiently-sized operand (paper §2.3.1).
ELEMENTWISE_BINARY = frozenset(
    {
        "add",        # +
        "sub",        # -
        "elmul",      # .*
        "eldiv",      # ./
        "elldiv",     # .\
        "elpow",      # .^
        "lt",
        "le",
        "gt",
        "ge",
        "eq",
        "ne",
        "and",        # &
        "or",         # |
    }
)

#: Matrix-semantics binary ops: in-place evaluation is illegal unless
#: type inference proves an operand scalar (paper §2.3).
MATRIX_BINARY = frozenset(
    {
        "mul",   # *   (matrix multiply, elementwise if a scalar operand)
        "div",   # /   (right matrix divide)
        "ldiv",  # \   (left matrix divide)
        "pow",   # ^   (matrix power)
    }
)

#: Elementwise unary ops — always in-place legal.
ELEMENTWISE_UNARY = frozenset({"neg", "not", "conj_elem"})

#: Structural unary ops that permute element positions.
PERMUTING_UNARY = frozenset({"transpose", "ctranspose"})

BINARY_OPS = ELEMENTWISE_BINARY | MATRIX_BINARY

#: AST operator token → IR opcode.
AST_BINOP_TO_IR = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    ".*": "elmul",
    "/": "div",
    "./": "eldiv",
    "\\": "ldiv",
    ".\\": "elldiv",
    "^": "pow",
    ".^": "elpow",
    "<": "lt",
    "<=": "le",
    ">": "gt",
    ">=": "ge",
    "==": "eq",
    "~=": "ne",
    "&": "and",
    "|": "or",
    "&&": "and",  # scalar contexts only in our subset
    "||": "or",
}


# --------------------------------------------------------------------------
# Instructions
# --------------------------------------------------------------------------


@dataclass(slots=True)
class Instr:
    """One SO-form assignment ``results = op(args)``.

    Special ops:

    * ``copy``      — ``X = Y`` (single arg);
    * ``const``     — materialize a literal;
    * ``phi``       — SSA φ; ``phi_blocks[i]`` is the predecessor block
      that flows ``args[i]``;
    * ``subsref``   — R-indexing, ``args = [array, i1, ..., im]``;
    * ``subsasgn``  — L-indexing, ``args = [array, rhs, l1, ..., lm]``;
    * ``range``     — colon expression, ``args = [start, step, stop]``;
    * ``horzcat``/``vertcat`` — matrix-literal glue;
    * ``empty``     — the 0×0 empty array ``[]``;
    * ``call:NAME`` — builtin call (user calls are inlined away);
    * ``display``   — echo a variable (statement without ``;``).
    """

    op: str
    results: list[str] = field(default_factory=list)
    args: list[Operand] = field(default_factory=list)
    location: Location = UNKNOWN_LOCATION
    phi_blocks: list[int] | None = None

    @property
    def result(self) -> str | None:
        return self.results[0] if self.results else None

    @property
    def is_phi(self) -> bool:
        return self.op == "phi"

    @property
    def is_call(self) -> bool:
        return self.op.startswith("call:")

    @property
    def callee(self) -> str:
        assert self.is_call
        return self.op[5:]

    def used_vars(self) -> list[str]:
        """Names of variables read by this instruction (with repeats)."""
        return [a.name for a in self.args if isinstance(a, Var)]

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        if self.is_phi:
            pairs = ", ".join(
                f"{a}@B{b}"
                for a, b in zip(self.args, self.phi_blocks or [])
            )
            return f"{self.results[0]} = phi({pairs})"
        lhs = ", ".join(self.results)
        if lhs:
            return f"{lhs} = {self.op}({args})"
        return f"{self.op}({args})"


# --------------------------------------------------------------------------
# Terminators
# --------------------------------------------------------------------------


@dataclass(slots=True)
class Jump:
    target: int

    def successors(self) -> list[int]:
        return [self.target]

    def __str__(self) -> str:
        return f"jump B{self.target}"


@dataclass(slots=True)
class Branch:
    condition: Operand
    true_target: int = 0
    false_target: int = 0

    def successors(self) -> list[int]:
        return [self.true_target, self.false_target]

    def __str__(self) -> str:
        return (
            f"branch {self.condition} ? B{self.true_target} : "
            f"B{self.false_target}"
        )


@dataclass(slots=True)
class Ret:
    def successors(self) -> list[int]:
        return []

    def __str__(self) -> str:
        return "ret"


Terminator = Jump | Branch | Ret
