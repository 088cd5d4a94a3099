"""Semantic analysis of PrivC programs.

Resolves names, checks calls and control flow, and exposes the builtin
constant vocabulary: ``CAP_*`` single-bit capability masks (so programs
write ``priv_raise(CAP_SETUID | CAP_CHOWN)``), signal numbers and the
``KEEP`` sentinel for ``setres[ug]id``.

Functions that are called but neither defined nor declared ``extern``
are implicitly declared external with the arity of the first call —
matching how the programs link against the VM's intrinsics table.  All
errors in a program are collected and reported together.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from repro.caps import Capability
from repro.frontend import ast
from repro.oskernel import signals


def builtin_constants() -> Dict[str, int]:
    """The constant names every PrivC program sees."""
    constants: Dict[str, int] = {}
    for cap in Capability:
        constants[cap.name] = 1 << int(cap)
    for name in (
        "SIGHUP",
        "SIGINT",
        "SIGQUIT",
        "SIGKILL",
        "SIGUSR1",
        "SIGUSR2",
        "SIGPIPE",
        "SIGALRM",
        "SIGTERM",
        "SIGCHLD",
        "SIGTSTP",
    ):
        constants[name] = getattr(signals, name)
    constants["KEEP"] = -1
    return constants


class SemaError(ValueError):
    """All semantic errors found in a program, reported together."""

    def __init__(self, problems: List[str]) -> None:
        super().__init__(
            "semantic errors:\n" + "\n".join(f"  - {problem}" for problem in problems)
        )
        self.problems = problems


@dataclasses.dataclass
class FunctionInfo:
    name: str
    return_type: str
    param_types: Tuple[str, ...]
    is_extern: bool
    #: Implicitly declared externs accept any argument count (like a
    #: C call through an empty () prototype).
    vararg: bool = False


@dataclasses.dataclass
class SemaResult:
    program: ast.Program
    functions: Dict[str, FunctionInfo]
    globals: Set[str]
    constants: Dict[str, int]


def analyze(program: ast.Program) -> SemaResult:
    """Check ``program``; returns the resolved tables or raises SemaError."""
    problems: List[str] = []
    constants = builtin_constants()
    globals_: Set[str] = set()
    functions: Dict[str, FunctionInfo] = {}

    for decl in program.globals:
        if decl.name in globals_:
            problems.append(f"{decl.pos}: duplicate global {decl.name!r}")
        if decl.name in constants:
            problems.append(f"{decl.pos}: global {decl.name!r} shadows a builtin constant")
        globals_.add(decl.name)

    for func in program.functions:
        if func.name in functions and not functions[func.name].is_extern:
            problems.append(f"{func.pos}: duplicate function {func.name!r}")
        functions[func.name] = FunctionInfo(
            func.name,
            func.return_type,
            tuple(ptype for ptype, _ in func.params),
            is_extern=func.body is None,
        )

    checker = _Checker(functions, globals_, constants, problems)
    for func in program.functions:
        if func.body is not None:
            checker.check_function(func)

    if problems:
        raise SemaError(problems)
    return SemaResult(program, functions, globals_, constants)


class _Checker:
    def __init__(
        self,
        functions: Dict[str, FunctionInfo],
        globals_: Set[str],
        constants: Dict[str, int],
        problems: List[str],
    ) -> None:
        self.functions = functions
        self.globals = globals_
        self.constants = constants
        self.problems = problems
        self.locals: List[Set[str]] = []
        self.loop_depth = 0
        self.current: Optional[ast.FuncDecl] = None

    # -- scope helpers ---------------------------------------------------------

    def _declared(self, name: str) -> bool:
        return self._is_variable(name) or name in self.constants

    def _is_variable(self, name: str) -> bool:
        for scope in self.locals:
            if name in scope:
                return True
        return name in self.globals

    def problem(self, pos: ast.Pos, message: str) -> None:
        self.problems.append(f"{pos}: {message}")

    # -- function / statements -----------------------------------------------------

    def check_function(self, func: ast.FuncDecl) -> None:
        self.current = func
        self.locals = [set()]
        seen_params: Set[str] = set()
        for _, name in func.params:
            if name in seen_params:
                self.problem(func.pos, f"duplicate parameter {name!r}")
            seen_params.add(name)
            self.locals[0].add(name)
        self.check_block(func.body)
        self.locals = []
        self.current = None

    def check_block(self, block: ast.Block) -> None:
        self.locals.append(set())
        for statement in block.statements:
            self.check_statement(statement)
        self.locals.pop()

    def check_statement(self, statement: ast.Stmt) -> None:
        if isinstance(statement, ast.ExprStmt):
            self.check_expr(statement.expr)
        elif isinstance(statement, ast.Block):
            self.check_block(statement)
        elif isinstance(statement, ast.VarDecl):
            if statement.init is not None:
                self.check_expr(statement.init)
            if statement.name in self.locals[-1]:
                self.problem(statement.pos, f"redeclaration of {statement.name!r}")
            if statement.name in self.constants:
                self.problem(
                    statement.pos, f"{statement.name!r} shadows a builtin constant"
                )
            self.locals[-1].add(statement.name)
        elif isinstance(statement, ast.Assign):
            if not self._is_variable(statement.name):
                if statement.name in self.constants:
                    self.problem(statement.pos, f"cannot assign to constant {statement.name!r}")
                else:
                    self.problem(statement.pos, f"assignment to undeclared {statement.name!r}")
            self.check_expr(statement.value)
        elif isinstance(statement, ast.If):
            self.check_expr(statement.cond)
            self.check_block(statement.then_body)
            if statement.else_body is not None:
                self.check_block(statement.else_body)
        elif isinstance(statement, ast.While):
            self.check_expr(statement.cond)
            self.loop_depth += 1
            self.check_block(statement.body)
            self.loop_depth -= 1
        elif isinstance(statement, ast.For):
            self.locals.append(set())
            if statement.init is not None:
                self.check_statement(statement.init)
            if statement.cond is not None:
                self.check_expr(statement.cond)
            if statement.step is not None:
                self.check_statement(statement.step)
            self.loop_depth += 1
            self.check_block(statement.body)
            self.loop_depth -= 1
            self.locals.pop()
        elif isinstance(statement, ast.Return):
            returns_value = statement.value is not None
            wants_value = self.current is not None and self.current.return_type != "void"
            if returns_value and not wants_value:
                self.problem(statement.pos, "void function returns a value")
            if not returns_value and wants_value:
                self.problem(statement.pos, "non-void function returns nothing")
            if statement.value is not None:
                self.check_expr(statement.value)
        elif isinstance(statement, (ast.Break, ast.Continue)):
            if self.loop_depth == 0:
                keyword = "break" if isinstance(statement, ast.Break) else "continue"
                self.problem(statement.pos, f"{keyword} outside a loop")
        else:  # pragma: no cover
            self.problem(statement.pos, f"unknown statement {type(statement).__name__}")

    # -- expressions ---------------------------------------------------------------------

    def check_expr(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.Ident):
            if not self._declared(expr.name) and expr.name not in self.functions:
                self.problem(expr.pos, f"use of undeclared {expr.name!r}")
            return
        if isinstance(expr, ast.CallExpr):
            self.check_call(expr)
            return
        if isinstance(expr, (ast.IntLit, ast.StrLit)):
            return
        if isinstance(expr, ast.AddrOf):
            if expr.name not in self.functions:
                self.problem(expr.pos, f"&{expr.name}: no such function")
            elif self.functions[expr.name].is_extern:
                self.problem(expr.pos, f"&{expr.name}: cannot take address of extern")
            return
        if isinstance(expr, ast.Unary):
            self.check_expr(expr.operand)
            return
        if isinstance(expr, ast.Binary):
            self.check_expr(expr.lhs)
            self.check_expr(expr.rhs)
            return
        self.problem(expr.pos, f"unknown expression {type(expr).__name__}")  # pragma: no cover

    def check_call(self, call: ast.CallExpr) -> None:
        for arg in call.args:
            self.check_expr(arg)
        callee = call.callee
        if isinstance(callee, ast.Ident) and not self._is_variable(callee.name):
            name = callee.name
            info = self.functions.get(name)
            if info is None:
                # Implicit extern: linked against the VM intrinsics table.
                self.functions[name] = FunctionInfo(
                    name, "int", tuple("int" for _ in call.args),
                    is_extern=True, vararg=True,
                )
                return
            if not info.vararg and len(info.param_types) != len(call.args):
                self.problem(
                    call.pos,
                    f"call to {name!r} passes {len(call.args)} args, "
                    f"declared with {len(info.param_types)}",
                )
            return
        # Indirect call through an expression (fnptr variable): any arity.
        self.check_expr(callee)
