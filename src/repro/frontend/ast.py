"""Abstract syntax of PrivC, the mini-C frontend language.

PrivC is the C subset the paper's test programs are modelled in: global
variables, functions, integer/string/function-pointer values, full
control flow and calls (direct and through function pointers).  Types are
``int`` (i64), ``str`` (an opaque string handle) and ``fnptr``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

# -- positions -----------------------------------------------------------------


class Pos:
    """Line/column of a token, for diagnostics.

    Compared and hashed by value.  A plain slotted class rather than a
    frozen dataclass, whose constructor costs several times more: the
    parser makes one per syntax node.  Nothing assigns to a position
    once it is made.
    """

    __slots__ = ("line", "column")

    def __init__(self, line: int, column: int) -> None:
        self.line = line
        self.column = column

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Pos:
            return self.line == other.line and self.column == other.column
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.line, self.column))

    def __repr__(self) -> str:
        return f"Pos(line={self.line!r}, column={self.column!r})"

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


# -- expressions ----------------------------------------------------------------


@dataclasses.dataclass
class Expr:
    pos: Pos


@dataclasses.dataclass
class IntLit(Expr):
    value: int


@dataclasses.dataclass
class StrLit(Expr):
    value: str


@dataclasses.dataclass
class Ident(Expr):
    name: str


@dataclasses.dataclass
class AddrOf(Expr):
    """``&f`` — take the address of function ``f``."""

    name: str


@dataclasses.dataclass
class Unary(Expr):
    op: str  # "-" or "!"
    operand: Expr


@dataclasses.dataclass
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclasses.dataclass
class CallExpr(Expr):
    """A call; ``callee`` is an expression (an Ident names a function or a
    fnptr variable — sema decides which)."""

    callee: Expr
    args: List[Expr]


# -- statements -------------------------------------------------------------------


@dataclasses.dataclass
class Stmt:
    pos: Pos


@dataclasses.dataclass
class Block(Stmt):
    statements: List[Stmt]


@dataclasses.dataclass
class VarDecl(Stmt):
    type_name: str
    name: str
    init: Optional[Expr]


@dataclasses.dataclass
class Assign(Stmt):
    name: str
    value: Expr


@dataclasses.dataclass
class If(Stmt):
    cond: Expr
    then_body: Block
    else_body: Optional[Block]


@dataclasses.dataclass
class While(Stmt):
    cond: Expr
    body: Block


@dataclasses.dataclass
class For(Stmt):
    init: Optional[Stmt]
    cond: Optional[Expr]
    step: Optional[Stmt]
    body: Block


@dataclasses.dataclass
class Return(Stmt):
    value: Optional[Expr]


@dataclasses.dataclass
class Break(Stmt):
    pass


@dataclasses.dataclass
class Continue(Stmt):
    pass


@dataclasses.dataclass
class ExprStmt(Stmt):
    expr: Expr


# -- declarations ------------------------------------------------------------------


@dataclasses.dataclass
class GlobalDecl:
    pos: Pos
    name: str
    init: int


@dataclasses.dataclass
class FuncDecl:
    pos: Pos
    return_type: str  # "int", "str", "fnptr" or "void"
    name: str
    params: List[Tuple[str, str]]  # (type_name, name)
    body: Optional[Block]  # None for extern declarations


@dataclasses.dataclass
class Program:
    globals: List[GlobalDecl]
    functions: List[FuncDecl]
