"""The IR instruction set.

A compact LLVM-flavoured instruction vocabulary: memory (``alloca`` /
``load`` / ``store``), integer arithmetic, comparisons, control flow
(``br`` / ``jmp`` / ``ret`` / ``unreachable``), ``phi``/``select``, and
``call`` (direct or indirect).  Every instruction is a
:class:`~repro.ir.values.Value` so results feed straight into operand
lists.

ChronoPriv's instruction counting (§VI) counts these IR instructions,
omitting ``unreachable`` exactly as the paper does, since executing an
unreachable instruction terminates the program.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.types import BOOL, IntType, PTR, Type, VOID
from repro.ir.values import FunctionRef, Value


class Instruction(Value):
    """Base class; subclasses define ``opcode`` and their operand lists."""

    opcode = "?"
    #: True on the block-ending instructions (branches, ``ret``, ``unreachable``).
    is_terminator = False

    def __init__(self, vtype: Type, operands: Sequence[Value], name: str = "") -> None:
        # ``Value.__init__``, inlined: lowering builds one per IR instruction.
        self.type = vtype
        self.name = name
        self.operands: List[Value] = list(operands)

    def successors(self) -> Tuple:
        """Successor basic blocks (terminators only)."""
        return ()

    def render(self) -> str:
        """The instruction's textual form (without result assignment)."""
        ops = ", ".join(op.short() for op in self.operands)
        return f"{self.opcode} {ops}".rstrip()


class Alloca(Instruction):
    """Reserve one stack slot; yields a pointer to it."""

    opcode = "alloca"

    def __init__(self, name: str = "") -> None:
        super().__init__(PTR, [], name)


class Load(Instruction):
    """Read through a pointer."""

    opcode = "load"

    def __init__(self, pointer: Value, vtype: Type, name: str = "") -> None:
        super().__init__(vtype, [pointer], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class Store(Instruction):
    """Write a value through a pointer.  Produces no result."""

    opcode = "store"

    def __init__(self, value: Value, pointer: Value) -> None:
        super().__init__(VOID, [value, pointer])

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]


def _signed_div(a: int, b: int) -> int:
    """C-style truncating division (LLVM ``sdiv``)."""
    if a >= 0 and b > 0:
        return a // b
    if b == 0:
        raise ZeroDivisionError("sdiv by zero")
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _signed_rem(a: int, b: int) -> int:
    """C-style remainder: sign follows the dividend (LLVM ``srem``)."""
    if a >= 0 and b > 0:
        return a % b
    if b == 0:
        raise ZeroDivisionError("srem by zero")
    return a - _signed_div(a, b) * b


def _logical_shr(a: int, b: int) -> int:
    """Logical shift right of the 64-bit pattern (LLVM ``lshr``)."""
    return (a % (1 << 64)) >> b


#: Binary integer operations and their Python semantics, applied to
#: already-wrapped operands.  The raw result is unwrapped: whoever
#: applies the table wraps it to the instruction's width (the compiled
#: VM inlines that wrap, constant folding calls ``IntType.wrap``).
BINARY_OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "sdiv": _signed_div,
    "srem": _signed_rem,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
    "shl": operator.lshift,
    "lshr": _logical_shr,
}


class BinOp(Instruction):
    """An integer arithmetic/logical operation."""

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary op: {op}")
        vtype = lhs.type if isinstance(lhs.type, IntType) else rhs.type
        super().__init__(vtype, [lhs, rhs], name)
        self.op = op

    @property
    def opcode(self) -> str:  # type: ignore[override]
        return self.op


#: Signed comparison predicates (LLVM ``icmp``).
ICMP_PREDICATES = {
    "eq": operator.eq,
    "ne": operator.ne,
    "slt": operator.lt,
    "sle": operator.le,
    "sgt": operator.gt,
    "sge": operator.ge,
}


class ICmp(Instruction):
    """Integer comparison; yields an ``i1``."""

    opcode = "icmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate: {predicate}")
        super().__init__(BOOL, [lhs, rhs], name)
        self.predicate = predicate

    def render(self) -> str:
        lhs, rhs = self.operands
        return f"icmp {self.predicate} {lhs.short()}, {rhs.short()}"


class Select(Instruction):
    """``select cond, a, b`` — a branch-free conditional."""

    opcode = "select"

    def __init__(self, cond: Value, if_true: Value, if_false: Value, name: str = "") -> None:
        super().__init__(if_true.type, [cond, if_true, if_false], name)


class Phi(Instruction):
    """SSA ϕ-node: value depends on the predecessor block just executed."""

    opcode = "phi"

    def __init__(self, vtype: Type, name: str = "") -> None:
        super().__init__(vtype, [], name)
        #: Mapping from predecessor block to incoming value.
        self.incoming: Dict = {}

    def add_incoming(self, value: Value, block) -> None:
        self.incoming[block] = value
        self.operands.append(value)

    def render(self) -> str:
        parts = ", ".join(
            f"[{value.short()}, %{block.name}]" for block, value in self.incoming.items()
        )
        return f"phi {parts}"


class Call(Instruction):
    """A function call, direct (constant callee) or indirect (through a pointer)."""

    opcode = "call"

    def __init__(self, callee: Value, args: Sequence[Value], vtype: Type, name: str = "") -> None:
        super().__init__(vtype, [callee, *args], name)

    @property
    def callee(self) -> Value:
        return self.operands[0]

    @property
    def args(self) -> List[Value]:
        return self.operands[1:]

    @property
    def direct_target(self):
        """The called :class:`~repro.ir.function.Function`, if direct."""
        callee = self.operands[0]
        return callee.function if isinstance(callee, FunctionRef) else None

    def render(self) -> str:
        args = ", ".join(arg.short() for arg in self.args)
        return f"call {self.callee.short()}({args})"


class Branch(Instruction):
    """Conditional branch on an ``i1``."""

    opcode = "br"
    is_terminator = True

    def __init__(self, cond: Value, if_true, if_false) -> None:
        super().__init__(VOID, [cond])
        self.if_true = if_true
        self.if_false = if_false

    def successors(self) -> Tuple:
        return (self.if_true, self.if_false)

    def render(self) -> str:
        return (
            f"br {self.operands[0].short()}, "
            f"label %{self.if_true.name}, label %{self.if_false.name}"
        )


class Jump(Instruction):
    """Unconditional branch."""

    opcode = "jmp"
    is_terminator = True

    def __init__(self, target) -> None:
        super().__init__(VOID, [])
        self.target = target

    def successors(self) -> Tuple:
        return (self.target,)

    def render(self) -> str:
        return f"jmp label %{self.target.name}"


class Ret(Instruction):
    """Return from the current function."""

    opcode = "ret"
    is_terminator = True

    def __init__(self, value: Optional[Value] = None) -> None:
        super().__init__(VOID, [value] if value is not None else [])

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    def render(self) -> str:
        return f"ret {self.value.short()}" if self.operands else "ret void"


class Unreachable(Instruction):
    """Marks a point that must never execute.

    ChronoPriv omits unreachable instructions from its dynamic counts
    (§VI); our instrumentation pass does the same.
    """

    opcode = "unreachable"
    is_terminator = True

    def __init__(self) -> None:
        super().__init__(VOID, [])
