"""Discovering where a program uses privileges.

A *privilege use* is a call to the AutoPriv runtime wrapper
``priv_raise(mask)`` (§II): the program is about to perform an operation
requiring those capabilities.  The mask argument is usually a constant
expression (``CAP_SETUID | CAP_CHOWN``); we fold IR constant expressions
to recover it.  A mask we cannot resolve statically is treated as "all
capabilities" — the conservative answer.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.caps import CapabilitySet
from repro.ir import BinOp, Call, ConstantInt, Function, FunctionRef, Instruction, Module, Value
from repro.ir.instructions import BINARY_OPS

#: Name of the runtime wrapper whose argument names the capabilities used.
PRIV_RAISE = "priv_raise"
#: The other wrappers, recognised so analyses can treat them specially.
PRIV_LOWER = "priv_lower"
PRIV_REMOVE = "priv_remove"
#: Registering a signal handler makes the handler's privilege uses
#: asynchronous (§VII-C: "signal handlers can be called at any time").
SIGNAL_REGISTER = "signal"

FULL_MASK = CapabilitySet.full()
FULL_BITS = FULL_MASK.to_mask()
_USE_WRAPPERS = (PRIV_RAISE, PRIV_LOWER)


def fold_constant(value: Value) -> Optional[int]:
    """Evaluate an integer-constant IR expression, or None.

    Handles the shapes lowering produces for capability masks: integer
    literals and trees of binary operations over them.
    """
    if isinstance(value, ConstantInt):
        return value.value
    if isinstance(value, BinOp):
        lhs = fold_constant(value.operands[0])
        rhs = fold_constant(value.operands[1])
        if lhs is None or rhs is None:
            return None
        try:
            return value.type.wrap(BINARY_OPS[value.op](lhs, rhs))
        except ZeroDivisionError:
            return None
    return None


def argument_mask(call: Call) -> int:
    """The kernel bit mask named by a ``priv_*`` call's mask argument.

    A mask that does not fold to a constant, or names no valid capability
    set, is every capability.
    """
    operands = call.operands  # the callee, then the arguments
    mask = fold_constant(operands[1]) if len(operands) > 1 else None
    if mask is None or not 0 <= mask <= FULL_BITS:
        return FULL_BITS
    return mask


def mask_argument(call: Call) -> CapabilitySet:
    """The capability set named by a ``priv_*`` call's mask argument."""
    return CapabilitySet.from_mask(argument_mask(call))


def is_priv_call(call: Call, wrapper: str) -> bool:
    target = call.direct_target
    return target is not None and target.name == wrapper


def _is_use(instruction: Instruction) -> bool:
    """Is this instruction a privilege *use*?

    Programs following the AutoPriv discipline bracket privileged
    operations with ``priv_raise`` / ``priv_lower`` (§II).  Both wrappers
    count as uses: the privilege must stay permitted from the raise
    through the bracketed system calls up to the matching lower — so the
    closing ``priv_lower`` is the last point the privilege is needed, and
    removal happens after it.
    """
    if not isinstance(instruction, Call):
        return False
    target = instruction.direct_target
    return target is not None and target.name in _USE_WRAPPERS


def direct_uses(function: Function) -> CapabilitySet:
    """Capabilities used by raise/lower brackets directly inside ``function``."""
    used = CapabilitySet.empty()
    for instruction in function.instructions():
        if _is_use(instruction):
            used = used | mask_argument(instruction)
    return used


def instruction_uses(instruction: Instruction) -> CapabilitySet:
    """Capabilities used by this one instruction (non-transitively)."""
    return CapabilitySet.from_mask(use_mask(instruction))


def use_mask(instruction: Instruction) -> int:
    """:func:`instruction_uses` as a kernel bit mask."""
    return argument_mask(instruction) if _is_use(instruction) else 0


def registered_handlers(call: Call) -> List[Function]:
    """The functions ``call`` registers as signal handlers (none unless it
    is a ``signal()`` call)."""
    if not is_priv_call(call, SIGNAL_REGISTER):
        return []
    return [arg.function for arg in call.operands[1:] if isinstance(arg, FunctionRef)]


def registered_signal_handlers(module: Module) -> Set[Function]:
    """Functions passed as handlers to ``signal()`` anywhere in the module."""
    handlers: Set[Function] = set()
    for function in module.defined_functions():
        for instruction in function.instructions():
            if isinstance(instruction, Call):
                handlers.update(registered_handlers(instruction))
    return handlers
