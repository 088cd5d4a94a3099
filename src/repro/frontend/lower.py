"""Lowering: PrivC AST → IR.

Local variables become ``alloca`` slots with loads/stores (no SSA
construction needed, as in clang -O0); short-circuit ``&&``/``||`` lower
to control flow through a result slot; comparisons produce ``i1`` values
that are materialised to ``i64`` 0/1 with ``select`` when used as
integers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.frontend import ast
from repro.frontend.parser import parse
from repro.frontend.sema import SemaResult, analyze
from repro.ir import (
    BOOL,
    BasicBlock,
    ConstantInt,
    ConstantString,
    Function,
    I64,
    IRBuilder,
    Module,
    PTR,
    VOID,
    Value,
    verify_module,
)

_TYPE_MAP = {"int": I64, "str": PTR, "fnptr": PTR, "void": VOID}


class LowerError(ValueError):
    pass


class _FunctionLowering:
    def __init__(self, lowering: "_ModuleLowering", func: ast.FuncDecl) -> None:
        self.module_lowering = lowering
        self.func = func
        self.function = lowering.module.get_function(func.name)
        self.builder = IRBuilder()
        self.globals = lowering.module.globals
        #: The alloca slot each visible local name resolves to, and per
        #: open scope the (name, slot it shadowed or None) pairs to restore
        #: when the scope closes: one dict lookup finds a name.
        self.visible: Dict[str, Value] = {}
        self.scopes: List[List[Tuple[str, Optional[Value]]]] = []
        #: (break target, continue target) stack.
        self.loop_targets: List = []
        self._terminated = False

    # -- scope ------------------------------------------------------------------

    def lookup_slot(self, name: str) -> Optional[Value]:
        slot = self.visible.get(name)
        return self.globals.get(name) if slot is None else slot

    def _open_scope(self) -> None:
        self.scopes.append([])

    def _bind(self, name: str, slot: Value) -> None:
        self.scopes[-1].append((name, self.visible.get(name)))
        self.visible[name] = slot

    def _close_scope(self) -> None:
        for name, shadowed in reversed(self.scopes.pop()):
            if shadowed is None:
                del self.visible[name]
            else:
                self.visible[name] = shadowed

    # -- entry ------------------------------------------------------------------

    def lower(self) -> None:
        entry = self.function.add_block("entry")
        self.builder.position_at_end(entry)
        self._open_scope()
        for argument, (_, name) in zip(self.function.arguments, self.func.params):
            slot = self.builder.alloca(name)
            self.builder.store(argument, slot)
            self._bind(name, slot)
        self._terminated = False
        self.lower_block(self.func.body, new_scope=False)
        if not self._terminated:
            if self.function.return_type is VOID:
                self.builder.ret()
            else:
                self.builder.ret(0)
        self._close_scope()

    def _start_block(self, block: BasicBlock) -> None:
        self.builder.position_at_end(block)
        self._terminated = False

    def _terminate_with_jump(self, target: BasicBlock) -> None:
        if not self._terminated:
            self.builder.jmp(target)
        self._terminated = True

    # -- statements -----------------------------------------------------------------

    def lower_block(self, block: ast.Block, new_scope: bool = True) -> None:
        if new_scope:
            self._open_scope()
        for statement in block.statements:
            if self._terminated:
                # Unreachable source after return/break: drop it (clang
                # similarly emits nothing reachable).
                break
            self.lower_statement(statement)
        if new_scope:
            self._close_scope()

    def lower_statement(self, statement: ast.Stmt) -> None:
        if isinstance(statement, ast.ExprStmt):
            self.lower_expr(statement.expr, want_value=False)
        elif isinstance(statement, ast.Block):
            self.lower_block(statement)
        elif isinstance(statement, ast.VarDecl):
            slot = self.builder.alloca(statement.name)
            init_value = (
                self.lower_expr(statement.init) if statement.init is not None else 0
            )
            self.builder.store(init_value, slot)
            self._bind(statement.name, slot)
        elif isinstance(statement, ast.Assign):
            slot = self.lookup_slot(statement.name)
            if slot is None:
                raise LowerError(f"{statement.pos}: no slot for {statement.name!r}")
            self.builder.store(self.lower_expr(statement.value), slot)
        elif isinstance(statement, ast.If):
            self.lower_if(statement)
        elif isinstance(statement, ast.While):
            self.lower_while(statement)
        elif isinstance(statement, ast.For):
            self.lower_for(statement)
        elif isinstance(statement, ast.Return):
            if statement.value is not None:
                self.builder.ret(self.lower_expr(statement.value))
            else:
                self.builder.ret()
            self._terminated = True
        elif isinstance(statement, ast.Break):
            break_target, _ = self.loop_targets[-1]
            self.builder.jmp(break_target)
            self._terminated = True
        elif isinstance(statement, ast.Continue):
            _, continue_target = self.loop_targets[-1]
            self.builder.jmp(continue_target)
            self._terminated = True
        else:  # pragma: no cover
            raise LowerError(f"unknown statement {type(statement).__name__}")

    def lower_if(self, statement: ast.If) -> None:
        cond = self.lower_condition(statement.cond)
        then_block = self.function.add_block("if.then")
        merge_block = self.function.add_block("if.end")
        else_block = (
            self.function.add_block("if.else") if statement.else_body else merge_block
        )
        self.builder.br(cond, then_block, else_block)
        self._start_block(then_block)
        self.lower_block(statement.then_body)
        self._terminate_with_jump(merge_block)
        if statement.else_body is not None:
            self._start_block(else_block)
            self.lower_block(statement.else_body)
            self._terminate_with_jump(merge_block)
        self._start_block(merge_block)

    def lower_while(self, statement: ast.While) -> None:
        cond_block = self.function.add_block("while.cond")
        body_block = self.function.add_block("while.body")
        end_block = self.function.add_block("while.end")
        self._terminate_with_jump(cond_block)
        self._start_block(cond_block)
        cond = self.lower_condition(statement.cond)
        self.builder.br(cond, body_block, end_block)
        self._start_block(body_block)
        self.loop_targets.append((end_block, cond_block))
        self.lower_block(statement.body)
        self.loop_targets.pop()
        self._terminate_with_jump(cond_block)
        self._start_block(end_block)

    def lower_for(self, statement: ast.For) -> None:
        self._open_scope()
        if statement.init is not None:
            self.lower_statement(statement.init)
        cond_block = self.function.add_block("for.cond")
        body_block = self.function.add_block("for.body")
        step_block = self.function.add_block("for.step")
        end_block = self.function.add_block("for.end")
        self._terminate_with_jump(cond_block)
        self._start_block(cond_block)
        if statement.cond is not None:
            cond = self.lower_condition(statement.cond)
            self.builder.br(cond, body_block, end_block)
        else:
            self.builder.jmp(body_block)
        self._start_block(body_block)
        self.loop_targets.append((end_block, step_block))
        self.lower_block(statement.body)
        self.loop_targets.pop()
        self._terminate_with_jump(step_block)
        self._start_block(step_block)
        if statement.step is not None:
            self.lower_statement(statement.step)
        self._terminate_with_jump(cond_block)
        self._start_block(end_block)
        self._close_scope()

    # -- expressions -----------------------------------------------------------------

    def _to_int(self, value: Value) -> Value:
        """Materialise an i1 into an i64 0/1."""
        if value.type is BOOL:
            return self.builder.select(value, 1, 0)
        return value

    def _to_bool(self, value: Value) -> Value:
        """Turn an i64 (or i1) into an i1 condition."""
        if value.type is BOOL:
            return value
        return self.builder.icmp("ne", value, 0)

    def lower_condition(self, expr: ast.Expr) -> Value:
        """Lower an expression used as a branch condition (yields i1)."""
        return self._to_bool(self.lower_expr(expr, as_condition=True))

    def lower_expr(self, expr: ast.Expr, want_value: bool = True, as_condition: bool = False) -> Value:
        kind = expr.__class__
        if kind is ast.Ident:
            slot = self.lookup_slot(expr.name)
            if slot is not None:
                return self.builder.load(slot, name=expr.name)
            constants = self.module_lowering.sema.constants
            if expr.name in constants:
                return ConstantInt(I64, constants[expr.name])
            # A bare function name evaluates to its address.
            function = self.module_lowering.module.functions.get(expr.name)
            if function is not None:
                return function.ref()
            raise LowerError(f"{expr.pos}: unresolved identifier {expr.name!r}")
        if kind is ast.IntLit:
            return ConstantInt(I64, expr.value)
        if kind is ast.CallExpr:
            return self.lower_call(expr)
        if kind is ast.Binary:
            return self.lower_binary(expr, as_condition)
        if kind is ast.StrLit:
            return ConstantString(expr.value)
        if kind is ast.Unary:
            builder = self.builder
            operand = self.lower_expr(expr.operand)
            if expr.op == "-":
                return builder.sub(0, self._to_int(operand))
            if expr.op == "!":
                result = builder.icmp("eq", self._to_int(operand), 0)
                return result if as_condition else self._to_int(result)
            raise LowerError(f"{expr.pos}: unknown unary {expr.op}")
        if kind is ast.AddrOf:
            return self.module_lowering.module.get_function(expr.name).ref()
        raise LowerError(f"{expr.pos}: unknown expression {type(expr).__name__}")

    _CMP = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle", ">": "sgt", ">=": "sge"}
    _ARITH = {
        "+": "add",
        "-": "sub",
        "*": "mul",
        "/": "sdiv",
        "%": "srem",
        "&": "and",
        "|": "or",
        "^": "xor",
        "<<": "shl",
        ">>": "lshr",
    }

    def lower_binary(self, expr: ast.Binary, as_condition: bool) -> Value:
        builder = self.builder
        if expr.op in ("&&", "||"):
            return self.lower_short_circuit(expr, as_condition)
        lhs = self._to_int(self.lower_expr(expr.lhs))
        rhs = self._to_int(self.lower_expr(expr.rhs))
        if expr.op in self._CMP:
            result = builder.icmp(self._CMP[expr.op], lhs, rhs)
            return result if as_condition else self._to_int(result)
        if expr.op in self._ARITH:
            return builder.binop(self._ARITH[expr.op], lhs, rhs)
        raise LowerError(f"{expr.pos}: unknown binary {expr.op}")

    def lower_short_circuit(self, expr: ast.Binary, as_condition: bool) -> Value:
        builder = self.builder
        result_slot = builder.alloca("sc.result")
        rhs_block = self.function.add_block("sc.rhs")
        short_block = self.function.add_block("sc.short")
        merge_block = self.function.add_block("sc.end")

        lhs_cond = self.lower_condition(expr.lhs)
        if expr.op == "&&":
            builder.br(lhs_cond, rhs_block, short_block)
            short_value = 0
        else:  # "||"
            builder.br(lhs_cond, short_block, rhs_block)
            short_value = 1
        self._start_block(rhs_block)
        rhs_cond = self.lower_condition(expr.rhs)
        builder.store(self._to_int(rhs_cond), result_slot)
        builder.jmp(merge_block)
        self._start_block(short_block)
        builder.store(short_value, result_slot)
        builder.jmp(merge_block)
        self._start_block(merge_block)
        loaded = builder.load(result_slot)
        return self._to_bool(loaded) if as_condition else loaded

    def lower_call(self, call: ast.CallExpr) -> Value:
        builder = self.builder
        args = [self._to_int(self.lower_expr(arg)) for arg in call.args]
        callee = call.callee
        if isinstance(callee, ast.Ident) and self.lookup_slot(callee.name) is None:
            function = self.module_lowering.module.functions.get(callee.name)
            if function is None:
                raise LowerError(f"{call.pos}: unknown function {callee.name!r}")
            return builder.call(function, args)
        # Indirect call through a fnptr expression.
        target = self.lower_expr(callee)
        return builder.call(target, args)


class _ModuleLowering:
    def __init__(self, sema: SemaResult, name: str) -> None:
        self.sema = sema
        self.module = Module(name)

    def lower(self) -> Module:
        for decl in self.sema.program.globals:
            self.module.add_global(decl.name, decl.init)
        # Declare every known function first so forward references resolve.
        defined = {}
        for func in self.sema.program.functions:
            info = self.sema.functions[func.name]
            if func.body is None:
                self._declare(info)
            else:
                ret = _TYPE_MAP[func.return_type]
                params = [_TYPE_MAP[ptype] for ptype, _ in func.params]
                names = [pname for _, pname in func.params]
                defined[func.name] = self.module.add_function(
                    func.name, ret, params, names
                )
        # Implicit externs discovered by sema (calls to intrinsics).
        for info in self.sema.functions.values():
            if info.is_extern and info.name not in self.module.functions:
                self._declare(info)
        for func in self.sema.program.functions:
            if func.body is not None:
                _FunctionLowering(self, func).lower()
        verify_module(self.module)
        return self.module

    def _declare(self, info) -> None:
        ret = _TYPE_MAP.get(info.return_type, I64)
        params = [_TYPE_MAP.get(ptype, I64) for ptype in info.param_types]
        self.module.declare(info.name, ret, params, vararg=getattr(info, "vararg", False))


def compile_source(source: str, name: str = "privc") -> Module:
    """The full pipeline: parse → analyze → lower → verify."""
    program = parse(source)
    sema = analyze(program)
    return _ModuleLowering(sema, name).lower()
