"""AST node definitions for the MATLAB subset.

The tree is deliberately small: MATLAB's expression grammar collapses
calls and indexing into one :class:`Apply` node (``a(i)`` is indexing if
``a`` is a variable and a call otherwise — only name resolution during
lowering can tell), which mirrors how MATLAB itself parses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.frontend.source import Location, UNKNOWN_LOCATION


@dataclass(slots=True)
class Node:
    pass


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass(slots=True)
class Expr(Node):
    location: Location = field(default=UNKNOWN_LOCATION, kw_only=True)


@dataclass(slots=True)
class Num(Expr):
    """Numeric literal; ``is_imag`` marks ``3i``-style imaginary literals."""

    value: float
    is_imag: bool = False


@dataclass(slots=True)
class Str(Expr):
    value: str


@dataclass(slots=True)
class Ident(Expr):
    name: str


@dataclass(slots=True)
class ColonAll(Expr):
    """A bare ``:`` subscript selecting a whole dimension."""


@dataclass(slots=True)
class EndMarker(Expr):
    """The ``end`` keyword inside a subscript list."""


@dataclass(slots=True)
class UnaryOp(Expr):
    op: str  # '-', '+', '~'
    operand: Expr = None  # type: ignore[assignment]


@dataclass(slots=True)
class BinaryOp(Expr):
    op: str  # '+', '-', '*', '.*', '/', './', '\\', '^', '.^', '==', ...
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass(slots=True)
class Transpose(Expr):
    operand: Expr
    conjugate: bool = True  # `'` conjugates; `.'` does not


@dataclass(slots=True)
class Range(Expr):
    """``start:stop`` or ``start:step:stop``."""

    start: Expr
    stop: Expr
    step: Expr | None = None


@dataclass(slots=True)
class Apply(Expr):
    """``f(args)`` — either a function call or an array index."""

    func: Expr
    args: list[Expr] = field(default_factory=list)


@dataclass(slots=True)
class MatrixLit(Expr):
    """``[r1c1, r1c2; r2c1, r2c2]`` — rows of horizontally-glued pieces."""

    rows: list[list[Expr]] = field(default_factory=list)


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass(slots=True)
class Stmt(Node):
    location: Location = field(default=UNKNOWN_LOCATION, kw_only=True)


@dataclass(slots=True)
class Assign(Stmt):
    """``lhs = rhs`` where lhs is an Ident or an Apply (L-indexing)."""

    target: Expr
    value: Expr = None  # type: ignore[assignment]
    display: bool = False  # no trailing `;` => echo the result


@dataclass(slots=True)
class MultiAssign(Stmt):
    """``[a, b] = f(...)`` — multiple return values."""

    targets: list[Expr]
    value: Expr = None  # type: ignore[assignment]
    display: bool = False


@dataclass(slots=True)
class ExprStmt(Stmt):
    """A bare expression statement (usually a call like ``disp(x)``)."""

    value: Expr
    display: bool = False


@dataclass(slots=True)
class If(Stmt):
    """``if/elseif/else`` — branches is a list of (condition, body)."""

    branches: list[tuple[Expr, list[Stmt]]] = field(default_factory=list)
    orelse: list[Stmt] = field(default_factory=list)


@dataclass(slots=True)
class While(Stmt):
    condition: Expr
    body: list[Stmt] = field(default_factory=list)


@dataclass(slots=True)
class For(Stmt):
    """``for var = iterable`` — iterable is typically a Range."""

    var: str
    iterable: Expr = None  # type: ignore[assignment]
    body: list[Stmt] = field(default_factory=list)


@dataclass(slots=True)
class Break(Stmt):
    pass


@dataclass(slots=True)
class Continue(Stmt):
    pass


@dataclass(slots=True)
class Return(Stmt):
    pass


# --------------------------------------------------------------------------
# Functions and programs
# --------------------------------------------------------------------------


@dataclass(slots=True)
class FunctionDef(Node):
    """One MATLAB function: ``function [outs] = name(ins)``."""

    name: str
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)
    location: Location = field(default=UNKNOWN_LOCATION, kw_only=True)

    def assigned_names(self) -> set[str]:
        """All names that appear as assignment targets (or loop/input
        vars): the names a call-or-index ``a(i)`` reads as a variable."""
        names = set(self.inputs)

        def scan_target(target: Expr) -> None:
            if isinstance(target, Ident):
                names.add(target.name)
            elif isinstance(target, Apply) and isinstance(target.func, Ident):
                names.add(target.func.name)

        def scan(stmts: list[Stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, Assign):
                    scan_target(stmt.target)
                elif isinstance(stmt, MultiAssign):
                    for t in stmt.targets:
                        scan_target(t)
                elif isinstance(stmt, If):
                    for _, body in stmt.branches:
                        scan(body)
                    scan(stmt.orelse)
                elif isinstance(stmt, While):
                    scan(stmt.body)
                elif isinstance(stmt, For):
                    names.add(stmt.var)
                    scan(stmt.body)

        scan(self.body)
        return names


@dataclass(slots=True)
class Program(Node):
    """A set of parsed M-files; the first function is the entry point.

    ``functions`` maps function name to definition.  A *script* M-file
    (statements with no ``function`` header) is wrapped into a function
    of no arguments named after the file.
    """

    functions: dict[str, FunctionDef] = field(default_factory=dict)
    entry: str = ""

    def entry_function(self) -> FunctionDef:
        return self.functions[self.entry]
