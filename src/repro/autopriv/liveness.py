"""Interprocedural privilege liveness.

AutoPriv (§V) computes, for every program point, which privileges might
still be used on some path forward — including uses that happen after the
current function returns.  A privilege absent from that set is *dead* and
can be removed from the permitted set.

The analysis has three layers:

1. **Call-graph closure** — ``uses(F)``: the privileges function ``F`` or
   anything it (transitively, via the possibly-conservative call graph)
   calls may raise.
2. **Return liveness fixpoint** — ``live_out(F)``: the privileges that
   may still be used after ``F`` returns, i.e. the union over all call
   sites of ``F`` of the liveness just after that call.  ``main`` has an
   empty return liveness.
3. **Intra-procedural backward data-flow** — within each function,
   block-level liveness seeded at returns with ``live_out(F)``, with each
   call site generating ``uses(callee)``.

Facts are kernel bit masks (``int``, as :meth:`CapabilitySet.to_mask`
encodes them), and every call site's generated mask is computed once;
the public results are converted back to capability sets at the end.

Privileges used by registered signal handlers are pinned live for the
whole program: a handler can run at any instruction (§VII-C), so its
privileges never die.  This is exactly the mechanism that keeps sshd's
privileges alive in the paper's Table III.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Tuple

from repro.caps import Capability, CapabilitySet
from repro.ir import BasicBlock, Call, CallGraph, Function, Module
from repro.ir.dataflow import SetDataflowProblem, solve
from repro.autopriv import privuse

CapFacts = FrozenSet[Capability]


@dataclasses.dataclass
class PrivLiveness:
    """The complete liveness solution for one module."""

    module: Module
    callgraph: CallGraph
    #: Transitive privilege uses per function.
    uses: Dict[Function, CapabilitySet]
    #: Privileges that may be used after each function returns.
    live_out: Dict[Function, CapabilitySet]
    #: Privileges pinned live forever (signal handlers' uses).
    pinned: CapabilitySet
    #: Per-block liveness at block entry/exit, per function.
    block_in: Dict[Function, Dict[BasicBlock, CapFacts]]
    block_out: Dict[Function, Dict[BasicBlock, CapFacts]]
    #: The kernel bit mask each call site in a defined function generates:
    #: its own raise/lower mask plus its possible targets' ``uses``.
    call_gen: Dict[Call, int]


class _BlockLiveness(SetDataflowProblem):
    """Backward may-liveness of privileges within one function, as bitsets.

    Privileges do not die syntactically (removal points are where we
    *insert* kills), so the transfer is ``gen | incoming``.
    """

    direction = "backward"
    meet = "union"

    def __init__(self, block_gen: Dict[BasicBlock, int], live_out: int) -> None:
        self._block_gen = block_gen
        self._live_out = live_out

    def transfer(self, block: BasicBlock, incoming: int) -> int:
        return self._block_gen[block] | incoming

    def boundary(self) -> int:
        return self._live_out

    def initial(self) -> int:
        return 0


def analyze_module(
    module: Module,
    entry: str = "main",
    indirect_targets_filter: str = "address-taken",
) -> PrivLiveness:
    """Run the full interprocedural privilege-liveness analysis."""
    callgraph = CallGraph(module, indirect_targets_filter)
    functions = list(module.functions.values())
    defined = list(module.defined_functions())

    # Every call site's targets, resolved once; ``call_gen`` starts as each
    # site's own raise/lower mask and gains its targets' uses below.
    sites: Dict[BasicBlock, List[Tuple[Call, List[Function]]]] = {}
    call_gen: Dict[Call, int] = {}
    direct: Dict[Function, int] = {function: 0 for function in functions}
    for function in defined:
        for block in function.blocks:
            block_sites = sites[block] = []
            for instruction in block.instructions:
                if isinstance(instruction, Call):
                    own = privuse.instruction_uses(instruction).to_mask()
                    call_gen[instruction] = own
                    direct[function] |= own
                    block_sites.append((instruction, callgraph.resolve_call(instruction)))

    # Layer 1: transitive uses per function.
    uses: Dict[Function, int] = {}
    for function in functions:
        used = direct[function]
        for callee in callgraph.transitive_callees(function):
            used |= direct[callee]
        uses[function] = used

    # Pinned privileges: whatever registered signal handlers may use.
    pinned = 0
    for handler in privuse.registered_signal_handlers(module):
        pinned |= uses.get(handler, 0)

    block_gen: Dict[BasicBlock, int] = {}
    for block, block_sites in sites.items():
        generated = 0
        for call, targets in block_sites:
            for target in targets:
                call_gen[call] |= uses.get(target, 0)
            generated |= call_gen[call]
        block_gen[block] = generated

    # Layer 2 + 3: iterate return-liveness and per-function block liveness
    # to a joint fixpoint.
    live_out: Dict[Function, int] = {function: 0 for function in functions}
    block_in: Dict[Function, Dict[BasicBlock, int]] = {}
    block_out: Dict[Function, Dict[BasicBlock, int]] = {}
    entry_function = module.functions.get(entry)
    changed = True
    while changed:
        changed = False
        for function in defined:
            result = solve(_BlockLiveness(block_gen, live_out[function]), function)
            if (
                block_in.get(function) != result.block_in
                or block_out.get(function) != result.block_out
            ):
                block_in[function] = result.block_in
                block_out[function] = result.block_out
                changed = True
        # Propagate liveness-after-call-site into callees' live_out.
        new_live_out = {function: 0 for function in functions}
        for function in defined:
            for block, live in block_out[function].items():
                for call, targets in reversed(sites[block]):
                    # ``live`` currently holds liveness *after* this call.
                    for target in targets:
                        new_live_out[target] |= live
                    live |= call_gen[call]
        if entry_function is not None:
            new_live_out[entry_function] = 0
        if new_live_out != live_out:
            live_out = new_live_out
            changed = True

    sets: Dict[int, CapabilitySet] = {}

    def as_set(mask: int) -> CapabilitySet:
        if mask not in sets:
            sets[mask] = CapabilitySet.from_mask(mask)
        return sets[mask]

    def as_facts(
        per_function: Dict[Function, Dict[BasicBlock, int]]
    ) -> Dict[Function, Dict[BasicBlock, CapFacts]]:
        return {
            function: {
                block: as_set(mask).as_frozenset() for block, mask in masks.items()
            }
            for function, masks in per_function.items()
        }

    return PrivLiveness(
        module=module,
        callgraph=callgraph,
        uses={function: as_set(mask) for function, mask in uses.items()},
        live_out={function: as_set(mask) for function, mask in live_out.items()},
        pinned=as_set(pinned),
        block_in=as_facts(block_in),
        block_out=as_facts(block_out),
        call_gen=call_gen,
    )
