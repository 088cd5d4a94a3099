"""IR optimisation passes.

A small pass pipeline in the LLVM tradition: constant folding, branch
simplification and unreachable-block elimination.  The PrivAnalyzer
pipeline runs these before AutoPriv when optimisation is requested —
folding makes capability-mask expressions literal (helping
:func:`repro.autopriv.privuse.mask_argument`) and removing unreachable
blocks trims both the liveness work list and ChronoPriv's static counts.

Passes are semantics-preserving by construction; the test suite checks
that by differential execution.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.ir.cfg import reachable_blocks
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    BINARY_OPS,
    BinOp,
    Branch,
    Call,
    ICMP_PREDICATES,
    ICmp,
    Instruction,
    Jump,
    Phi,
    Select,
)
from repro.ir.module import Module
from repro.ir.types import BOOL
from repro.ir.values import ConstantInt, Value


@dataclasses.dataclass
class PassReport:
    """What one optimisation run changed."""

    folded_instructions: int = 0
    simplified_branches: int = 0
    removed_blocks: int = 0

    @property
    def changed(self) -> bool:
        return bool(
            self.folded_instructions or self.simplified_branches or self.removed_blocks
        )

    def merge(self, other: "PassReport") -> "PassReport":
        return PassReport(
            self.folded_instructions + other.folded_instructions,
            self.simplified_branches + other.simplified_branches,
            self.removed_blocks + other.removed_blocks,
        )


def _as_constant(value: Value):
    return value if isinstance(value, ConstantInt) else None


def fold_constants(function: Function) -> PassReport:
    """Replace constant-operand arithmetic/compares/selects with literals.

    Folded instructions are substituted into their users and deleted.
    """
    report = PassReport()
    replacements: Dict[Instruction, ConstantInt] = {}
    for block in function.blocks:
        for instruction in block.instructions:
            # Rewrite operands already known to be constant.
            for index, operand in enumerate(instruction.operands):
                if operand in replacements:
                    instruction.operands[index] = replacements[operand]
            if isinstance(instruction, Phi):
                for pred, incoming in list(instruction.incoming.items()):
                    if incoming in replacements:
                        instruction.incoming[pred] = replacements[incoming]
            folded = _try_fold(instruction)
            if folded is not None:
                replacements[instruction] = folded
    if not replacements:
        return report
    for block in function.blocks:
        kept: List[Instruction] = []
        for instruction in block.instructions:
            if instruction in replacements:
                report.folded_instructions += 1
                continue
            kept.append(instruction)
        block.instructions = kept
    # A second operand sweep catches uses later in the same block list.
    for block in function.blocks:
        for instruction in block.instructions:
            for index, operand in enumerate(instruction.operands):
                if operand in replacements:
                    instruction.operands[index] = replacements[operand]
            if isinstance(instruction, Phi):
                for pred, incoming in list(instruction.incoming.items()):
                    if incoming in replacements:
                        instruction.incoming[pred] = replacements[incoming]
    return report


def _try_fold(instruction: Instruction):
    if isinstance(instruction, BinOp):
        lhs = _as_constant(instruction.operands[0])
        rhs = _as_constant(instruction.operands[1])
        if lhs is not None and rhs is not None:
            try:
                raw = BINARY_OPS[instruction.op](lhs.value, rhs.value)
            except ZeroDivisionError:
                return None  # keep the trap at runtime
            return ConstantInt(instruction.type, raw)
    if isinstance(instruction, ICmp):
        lhs = _as_constant(instruction.operands[0])
        rhs = _as_constant(instruction.operands[1])
        if lhs is not None and rhs is not None:
            result = ICMP_PREDICATES[instruction.predicate](lhs.value, rhs.value)
            return ConstantInt(BOOL, int(result))
    if isinstance(instruction, Select):
        cond = _as_constant(instruction.operands[0])
        if cond is not None:
            chosen = instruction.operands[1] if cond.value else instruction.operands[2]
            constant = _as_constant(chosen)
            if constant is not None:
                return constant
    return None


def simplify_branches(function: Function) -> PassReport:
    """Turn ``br`` on a constant condition into an unconditional jump."""
    report = PassReport()
    for block in function.blocks:
        terminator = block.terminator
        if not isinstance(terminator, Branch):
            continue
        cond = _as_constant(terminator.operands[0])
        if cond is None:
            continue
        target = terminator.if_true if cond.value else terminator.if_false
        block.instructions[-1] = Jump(target)
        report.simplified_branches += 1
    return report


def remove_unreachable_blocks(function: Function) -> PassReport:
    """Drop blocks no path from the entry reaches; prune stale phi inputs."""
    report = PassReport()
    reachable = reachable_blocks(function)
    removed = [block for block in function.blocks if block not in reachable]
    if not removed:
        return report
    function.blocks = [block for block in function.blocks if block in reachable]
    report.removed_blocks = len(removed)
    dead = set(removed)
    for block in function.blocks:
        for instruction in block.instructions:
            if isinstance(instruction, Phi):
                for pred in list(instruction.incoming):
                    if pred in dead:
                        del instruction.incoming[pred]
    return report


def optimize_function(function: Function, max_iterations: int = 8) -> PassReport:
    """Run the pipeline to a fixpoint (bounded)."""
    total = PassReport()
    for _ in range(max_iterations):
        round_report = PassReport()
        round_report = round_report.merge(fold_constants(function))
        round_report = round_report.merge(simplify_branches(function))
        round_report = round_report.merge(remove_unreachable_blocks(function))
        total = total.merge(round_report)
        if not round_report.changed:
            break
    return total


def optimize_module(module: Module) -> PassReport:
    """Optimise every defined function in the module."""
    total = PassReport()
    for function in module.defined_functions():
        total = total.merge(optimize_function(function))
    return total
