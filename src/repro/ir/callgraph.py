"""The call graph, with conservative indirect-call resolution.

AutoPriv propagates privilege-use information along a *conservatively
correct* call graph (§VII-C): a direct call has one target, while an
indirect call (through a function pointer) may target *any
address-taken function whose type matches the call*.  The paper blames
exactly this over-approximation for sshd retaining privileges through its
client-handling loop — an indirect call inside the loop is presumed able
to reach every privilege-raising function.

We implement both the conservative resolver and a type-signature-filtered
variant so the A2 ablation can quantify how much precision the call graph
costs AutoPriv.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.ir.function import Function
from repro.ir.instructions import Call
from repro.ir.module import Module
from repro.ir.values import FunctionRef


class CallGraph:
    """Callees per function, with SCC-free transitive closure helpers."""

    def __init__(self, module: Module, indirect_targets_filter: str = "address-taken") -> None:
        """Build the call graph.

        ``indirect_targets_filter`` selects the indirect-call resolver:

        * ``"address-taken"`` — every address-taken function is a possible
          target (the paper's conservative behaviour);
        * ``"type-matched"`` — address-taken functions whose parameter
          count matches the call site (the more precise variant studied in
          the A2 ablation).
        """
        if indirect_targets_filter not in ("address-taken", "type-matched"):
            raise ValueError(f"unknown filter: {indirect_targets_filter!r}")
        self.module = module
        self.filter = indirect_targets_filter
        module.mark_address_taken()
        self._address_taken = [
            function
            for function in module.functions.values()
            if function.address_taken
        ]
        self.callees: Dict[Function, Set[Function]] = {}
        self.has_indirect_call: Dict[Function, bool] = {}
        for function in module.functions.values():
            self.callees[function] = set()
            self.has_indirect_call[function] = False
        for function in module.defined_functions():
            callees = self.callees[function]
            for block in function.blocks:
                for instruction in block.instructions:
                    if not isinstance(instruction, Call):
                        continue
                    callee = instruction.operands[0]
                    if isinstance(callee, FunctionRef):
                        target = callee.function
                        callees.add(target)
                        # An external (declaration-only) callee may invoke any
                        # function pointer it receives — qsort/pthread_create/
                        # spawn_wait-style callbacks.  Conservatively add edges
                        # to those arguments.
                        if target.is_declaration:
                            callees.update(self._callback_arguments(instruction))
                    else:
                        self.has_indirect_call[function] = True
                        callees.update(self._indirect_targets(instruction))

    def _indirect_targets(self, call: Call) -> Iterable[Function]:
        if self.filter == "address-taken":
            return self._address_taken
        arity = len(call.args)
        return [
            function
            for function in self._address_taken
            if len(function.type.param_types) == arity
        ]

    def callers(self) -> Dict[Function, Set[Function]]:
        """The inverted graph."""
        callers: Dict[Function, Set[Function]] = {
            function: set() for function in self.callees
        }
        for caller, callees in self.callees.items():
            for callee in callees:
                callers[callee].add(caller)
        return callers

    def transitive_callees(self, root: Function) -> Set[Function]:
        """All functions reachable from ``root`` through calls (excluding root
        unless it is recursive)."""
        seen: Set[Function] = set()
        stack: List[Function] = list(self.callees.get(root, ()))
        while stack:
            function = stack.pop()
            if function in seen:
                continue
            seen.add(function)
            stack.extend(self.callees.get(function, ()))
        return seen

    @staticmethod
    def _callback_arguments(call: Call) -> List[Function]:
        return [
            arg.function for arg in call.operands[1:] if isinstance(arg, FunctionRef)
        ]

    def resolve_call(self, call: Call) -> List[Function]:
        """The possible targets of one call site.

        A direct call to an external function also (conservatively)
        targets any function whose address is passed in — the callee may
        invoke the callback before returning.
        """
        callee = call.operands[0]
        if isinstance(callee, FunctionRef):
            target = callee.function
            if target.is_declaration:
                return [target, *self._callback_arguments(call)]
            return [target]
        return list(self._indirect_targets(call))

    def __repr__(self) -> str:
        edges = sum(len(callees) for callees in self.callees.values())
        return f"<CallGraph {self.module.name!r}: {len(self.callees)} nodes, {edges} edges>"
