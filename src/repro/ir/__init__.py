"""An LLVM-flavoured intermediate representation.

The substrate under AutoPriv and ChronoPriv: modules of functions made of
basic blocks of instructions, plus the analyses the paper's passes need —
CFG utilities, dominators, a call graph with conservative indirect-call
resolution, and a generic data-flow framework.
"""

from repro.ir.builder import IRBuilder
from repro.ir.callgraph import CallGraph
from repro.ir.cfg import (
    dominators,
    immediate_dominators,
    postorder,
    predecessors,
    reachable_blocks,
    reverse_postorder,
)
from repro.ir.dataflow import DataflowResult, FlowGraph, SetDataflowProblem, flow_graph, solve
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Branch,
    Call,
    ICmp,
    Instruction,
    Jump,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Unreachable,
)
from repro.ir.module import Module
from repro.ir.passes import (
    PassReport,
    fold_constants,
    optimize_function,
    optimize_module,
    remove_unreachable_blocks,
    simplify_branches,
)
from repro.ir.printer import print_function, print_module
from repro.ir.types import BOOL, FunctionType, I8, I32, I64, IntType, PTR, PointerType, Type, VOID, VoidType
from repro.ir.values import (
    Argument,
    ConstantInt,
    ConstantString,
    FunctionRef,
    GlobalVariable,
    UndefValue,
    Value,
    const_int,
)
from repro.ir.verifier import VerificationError, verify_module

__all__ = [
    "Alloca",
    "Argument",
    "BOOL",
    "BasicBlock",
    "BinOp",
    "Branch",
    "Call",
    "CallGraph",
    "ConstantInt",
    "ConstantString",
    "DataflowResult",
    "FlowGraph",
    "Function",
    "FunctionRef",
    "FunctionType",
    "GlobalVariable",
    "I32",
    "I64",
    "I8",
    "ICmp",
    "IRBuilder",
    "Instruction",
    "IntType",
    "Jump",
    "Load",
    "Module",
    "PTR",
    "PassReport",
    "Phi",
    "PointerType",
    "Ret",
    "Select",
    "SetDataflowProblem",
    "Store",
    "Type",
    "UndefValue",
    "Unreachable",
    "VOID",
    "Value",
    "VerificationError",
    "VoidType",
    "const_int",
    "dominators",
    "flow_graph",
    "fold_constants",
    "immediate_dominators",
    "optimize_function",
    "optimize_module",
    "remove_unreachable_blocks",
    "simplify_branches",
    "postorder",
    "predecessors",
    "print_function",
    "print_module",
    "reachable_blocks",
    "reverse_postorder",
    "solve",
    "verify_module",
]
