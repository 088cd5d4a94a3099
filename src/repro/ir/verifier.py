"""Structural verification of IR modules.

The verifier enforces the invariants the rest of the toolchain relies on,
and reports *all* violations rather than stopping at the first — a
module built by a buggy lowering usually has several related problems.
"""

from __future__ import annotations

from typing import List

from repro.ir.function import Function
from repro.ir.instructions import Branch, Call, Instruction, Phi
from repro.ir.module import Module
from repro.ir.types import BOOL
from repro.ir.values import Argument, ConstantInt, ConstantString, FunctionRef, GlobalVariable, UndefValue


class VerificationError(ValueError):
    """Raised by :func:`verify_module` with every problem found."""

    def __init__(self, problems: List[str]) -> None:
        super().__init__("IR verification failed:\n" + "\n".join(f"  - {p}" for p in problems))
        self.problems = problems


def verify_module(module: Module) -> None:
    """Check every defined function; raise :class:`VerificationError` on problems."""
    problems: List[str] = []
    for function in module.defined_functions():
        problems.extend(_verify_function(module, function))
    if problems:
        raise VerificationError(problems)


#: Operands any function may use, and operands it must define itself.
_SHARED_OPERANDS = (ConstantInt, ConstantString, FunctionRef, GlobalVariable, UndefValue)
_LOCAL_OPERANDS = (Argument, Instruction)


def _label(function: Function, block, instruction: Instruction) -> str:
    return f"@{function.name}:%{block.name}: {instruction.opcode}"


def _verify_function(module: Module, function: Function) -> List[str]:
    # Labels are formatted only for a problem: a clean module builds none.
    problems: List[str] = []
    blocks = function.blocks
    block_set = set(blocks)
    defined_values = set(function.arguments)
    for block in blocks:
        defined_values.update(block.instructions)

    for block in blocks:
        instructions = block.instructions
        if not instructions or not instructions[-1].is_terminator:
            problems.append(f"@{function.name}:%{block.name}: block lacks a terminator")
        last = len(instructions) - 1
        for index, instruction in enumerate(instructions):
            if instruction.is_terminator:
                if index != last:
                    problems.append(
                        f"@{function.name}:%{block.name}: "
                        f"terminator {instruction.opcode} not at block end"
                    )
                # Branch targets must be blocks of this function.
                for target in instruction.successors():
                    if target not in block_set:
                        problems.append(
                            f"{_label(function, block, instruction)}: "
                            f"branch target %{target.name} not in function"
                        )

            # Operands must be constants, globals, or values defined in this function.
            for operand in instruction.operands:
                if isinstance(operand, _LOCAL_OPERANDS):
                    if operand not in defined_values:
                        problems.append(
                            f"{_label(function, block, instruction)}: "
                            f"operand {operand.short()} defined in another function"
                        )
                elif not isinstance(operand, _SHARED_OPERANDS):
                    problems.append(
                        f"{_label(function, block, instruction)}: "
                        f"unsupported operand kind {type(operand).__name__}"
                    )

            # Direct calls must match the callee's arity (varargs excepted).
            if isinstance(instruction, Call):
                target = instruction.direct_target
                if target is not None and not target.type.vararg:
                    expected = len(target.type.param_types)
                    actual = len(instruction.operands) - 1
                    if expected != actual:
                        problems.append(
                            f"{_label(function, block, instruction)}: call to "
                            f"@{target.name} passes {actual} args, expects {expected}"
                        )

            # Phi nodes must cover their predecessors (checked loosely: each
            # incoming block must be a block of this function).
            elif isinstance(instruction, Phi):
                for incoming_block in instruction.incoming:
                    if incoming_block not in block_set:
                        problems.append(
                            f"{_label(function, block, instruction)}: "
                            "phi incoming from foreign block"
                        )

            # Conditional branches need an i1 condition.
            elif isinstance(instruction, Branch):
                cond = instruction.operands[0]
                if cond.type is not BOOL:
                    problems.append(
                        f"{_label(function, block, instruction)}: "
                        f"branch condition is {cond.type}, not i1"
                    )
    return problems
