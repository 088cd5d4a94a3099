"""IRBuilder: ergonomic construction of IR, LLVM-style.

The builder tracks an insertion block and provides one method per
instruction, coercing plain Python ints and strings into constants.  The
PrivC lowering (:mod:`repro.frontend.lower`) and the hand-written tests
both build IR through this class.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Branch,
    Call,
    ICmp,
    Jump,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Unreachable,
)
from repro.ir.types import I64, IntType, Type, VOID
from repro.ir.values import ConstantInt, ConstantString, Value

Operand = Union[Value, int, str]


class IRBuilder:
    """Appends instructions to a current basic block."""

    def __init__(self, block: Optional[BasicBlock] = None) -> None:
        self.block = block

    def position_at_end(self, block: BasicBlock) -> "IRBuilder":
        self.block = block
        return self

    # -- coercion ---------------------------------------------------------------

    @staticmethod
    def value(operand: Operand, vtype: IntType = I64) -> Value:
        """Coerce ints to :class:`ConstantInt` and strs to :class:`ConstantString`."""
        if isinstance(operand, Value):
            return operand
        if isinstance(operand, bool):
            from repro.ir.types import BOOL

            return ConstantInt(BOOL, int(operand))
        if isinstance(operand, int):
            return ConstantInt(vtype, operand)
        if isinstance(operand, str):
            return ConstantString(operand)
        raise TypeError(f"cannot coerce to IR value: {operand!r}")

    def _append(self, instruction):
        if self.block is None:
            raise ValueError("builder has no insertion point")
        return self.block.append(instruction)

    # -- memory -----------------------------------------------------------------

    def alloca(self, name: str = "") -> Alloca:
        return self._append(Alloca(name))

    def load(self, pointer: Value, vtype: Type = I64, name: str = "") -> Load:
        return self._append(Load(pointer, vtype, name))

    def store(self, value: Operand, pointer: Value) -> Store:
        return self._append(Store(self.value(value), pointer))

    # -- arithmetic ---------------------------------------------------------------

    def binop(self, op: str, lhs: Operand, rhs: Operand, name: str = "") -> BinOp:
        return self._append(BinOp(op, self.value(lhs), self.value(rhs), name))

    def add(self, lhs: Operand, rhs: Operand, name: str = "") -> BinOp:
        return self.binop("add", lhs, rhs, name)

    def sub(self, lhs: Operand, rhs: Operand, name: str = "") -> BinOp:
        return self.binop("sub", lhs, rhs, name)

    def mul(self, lhs: Operand, rhs: Operand, name: str = "") -> BinOp:
        return self.binop("mul", lhs, rhs, name)

    def sdiv(self, lhs: Operand, rhs: Operand, name: str = "") -> BinOp:
        return self.binop("sdiv", lhs, rhs, name)

    def srem(self, lhs: Operand, rhs: Operand, name: str = "") -> BinOp:
        return self.binop("srem", lhs, rhs, name)

    def icmp(self, predicate: str, lhs: Operand, rhs: Operand, name: str = "") -> ICmp:
        return self._append(ICmp(predicate, self.value(lhs), self.value(rhs), name))

    def select(self, cond: Value, if_true: Operand, if_false: Operand, name: str = "") -> Select:
        return self._append(Select(cond, self.value(if_true), self.value(if_false), name))

    def phi(self, vtype: Type = I64, name: str = "") -> Phi:
        return self._append(Phi(vtype, name))

    # -- calls ----------------------------------------------------------------------

    def call(self, callee: Union[Function, Value], args: Sequence[Operand] = (), name: str = "") -> Call:
        """Call a function (pass a :class:`Function` for a direct call)."""
        if isinstance(callee, Function):
            vtype = callee.return_type
            callee_value: Value = callee.ref()
        else:
            callee_value = callee
            vtype = I64 if callee.type is not VOID else VOID
        return self._append(
            Call(callee_value, [self.value(arg) for arg in args], vtype, name)
        )

    # -- control flow ------------------------------------------------------------------

    def br(self, cond: Value, if_true: BasicBlock, if_false: BasicBlock) -> Branch:
        return self._append(Branch(cond, if_true, if_false))

    def jmp(self, target: BasicBlock) -> Jump:
        return self._append(Jump(target))

    def ret(self, value: Optional[Operand] = None) -> Ret:
        return self._append(Ret(self.value(value) if value is not None else None))

    def unreachable(self) -> Unreachable:
        return self._append(Unreachable())
