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
encodes them), and every call site's generated mask is computed once.
``uses``, ``live_out`` and ``pinned`` are converted back to capability
sets at the end; the per-block facts stay masks, with frozenset views
for readers that want capabilities.

Privileges used by registered signal handlers are pinned live for the
whole program: a handler can run at any instruction (§VII-C), so its
privileges never die.  This is exactly the mechanism that keeps sshd's
privileges alive in the paper's Table III.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.caps import Capability, CapabilitySet
from repro.ir import BasicBlock, Call, CallGraph, Function, Module
from repro.ir.dataflow import SetDataflowProblem, flow_graph, solve
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
    #: Per-block liveness at block entry/exit, per function, as kernel bit
    #: masks (reachable blocks only).
    block_in_masks: Dict[Function, Dict[BasicBlock, int]]
    block_out_masks: Dict[Function, Dict[BasicBlock, int]]
    #: The kernel bit mask each call site in a defined function generates:
    #: its own raise/lower mask plus its possible targets' ``uses``.
    call_gen: Dict[Call, int]
    #: The union of ``call_gen`` over each block's call sites.
    block_gen: Dict[BasicBlock, int]

    @property
    def block_in(self) -> Dict[Function, Dict[BasicBlock, CapFacts]]:
        """:attr:`block_in_masks` as capability frozensets."""
        return _as_facts(self.block_in_masks)

    @property
    def block_out(self) -> Dict[Function, Dict[BasicBlock, CapFacts]]:
        """:attr:`block_out_masks` as capability frozensets."""
        return _as_facts(self.block_out_masks)


def _as_facts(
    per_function: Dict[Function, Dict[BasicBlock, int]]
) -> Dict[Function, Dict[BasicBlock, CapFacts]]:
    return {
        function: {
            block: CapabilitySet.from_mask(mask).as_frozenset() for block, mask in masks.items()
        }
        for function, masks in per_function.items()
    }


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
    handlers: Set[Function] = set()
    resolve_call = callgraph.resolve_call
    for function in defined:
        used = 0
        for block in function.blocks:
            block_sites = sites[block] = []
            for instruction in block.instructions:
                if isinstance(instruction, Call):
                    own = call_gen[instruction] = privuse.use_mask(instruction)
                    used |= own
                    block_sites.append((instruction, resolve_call(instruction)))
                    handlers.update(privuse.registered_handlers(instruction))
        direct[function] = used

    # Layer 1: transitive uses per function.
    uses: Dict[Function, int] = {}
    for function in functions:
        used = direct[function]
        for callee in callgraph.transitive_callees(function):
            used |= direct[callee]
        uses[function] = used

    # Pinned privileges: whatever registered signal handlers may use.
    pinned = 0
    for handler in handlers:
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
    # to a joint fixpoint.  A function's block liveness depends only on
    # its own ``live_out``, so each round re-solves just the functions
    # whose ``live_out`` changed (all of them in the first round), over
    # flow graphs built once.
    graphs = {function: flow_graph(function, "backward") for function in defined}
    # Per function, its blocks' call sites last to first, for propagation.
    backward_sites = {
        function: [
            (block, [(call_gen[call], targets) for call, targets in reversed(sites[block])])
            for block in function.blocks
            if sites[block]
        ]
        for function in defined
    }
    live_out: Dict[Function, int] = {function: 0 for function in functions}
    block_in: Dict[Function, Dict[BasicBlock, int]] = {}
    block_out: Dict[Function, Dict[BasicBlock, int]] = {}
    entry_function = module.functions.get(entry)
    stale = defined
    while stale:
        for function in stale:
            result = solve(
                _BlockLiveness(block_gen, live_out[function]), function, graphs[function]
            )
            block_in[function] = result.block_in
            block_out[function] = result.block_out
        # Propagate liveness-after-call-site into callees' live_out.
        new_live_out = dict.fromkeys(functions, 0)
        for function in defined:
            out = block_out[function]
            for block, block_sites in backward_sites[function]:
                if block not in out:
                    continue  # unreachable
                live = out[block]
                for generated, targets in block_sites:
                    # ``live`` currently holds liveness *after* this call.
                    for target in targets:
                        new_live_out[target] |= live
                    live |= generated
        if entry_function is not None:
            new_live_out[entry_function] = 0
        stale = [function for function in defined if new_live_out[function] != live_out[function]]
        live_out = new_live_out

    sets: Dict[int, CapabilitySet] = {}

    def as_set(mask: int) -> CapabilitySet:
        if mask not in sets:
            sets[mask] = CapabilitySet.from_mask(mask)
        return sets[mask]

    return PrivLiveness(
        module=module,
        callgraph=callgraph,
        uses={function: as_set(mask) for function, mask in uses.items()},
        live_out={function: as_set(mask) for function, mask in live_out.items()},
        pinned=as_set(pinned),
        block_in_masks=block_in,
        block_out_masks=block_out,
        call_gen=call_gen,
        block_gen=block_gen,
    )
