"""Differential test: bitmask privilege liveness against a reference.

``reference_analyze_module`` is the original frozenset-of-``Capability``
formulation of AutoPriv's interprocedural liveness (§V), kept here as
the specification: it recomputes every call site's generated set in
every fixpoint round.  The production analysis in
:mod:`repro.autopriv.liveness` encodes facts as kernel bit masks and
computes each call site's set once; both must agree on ``uses``,
``live_out``, ``pinned`` and the per-block in/out sets.
"""

from typing import Dict, FrozenSet

import pytest
from hypothesis import given, settings

from repro.autopriv import analyze_module, privuse
from repro.caps import Capability, CapabilitySet
from repro.frontend import compile_source
from repro.ir import BasicBlock, Call, CallGraph, Function, Instruction, Module
from repro.ir.dataflow import SetDataflowProblem, solve
from repro.programs import ALL_PROGRAM_NAMES, spec_by_name

from tests.test_autopriv_properties import program_sources

CapFacts = FrozenSet[Capability]
FILTERS = ("address-taken", "type-matched")


class _ReferenceBlockLiveness(SetDataflowProblem):
    direction = "backward"
    meet = "union"

    def __init__(self, gen_for, live_out: CapabilitySet) -> None:
        self._gen_for = gen_for
        self._live_out = live_out.as_frozenset()

    def gen(self, block: BasicBlock) -> CapFacts:
        generated: set = set()
        for instruction in block.instructions:
            generated |= self._gen_for(instruction)
        return frozenset(generated)

    def kill(self, block: BasicBlock) -> CapFacts:
        return frozenset()

    def boundary(self) -> CapFacts:
        return self._live_out


def reference_analyze_module(
    module: Module,
    entry: str = "main",
    indirect_targets_filter: str = "address-taken",
):
    """The original liveness: ``(uses, live_out, pinned, block_in, block_out)``."""
    callgraph = CallGraph(module, indirect_targets_filter)

    uses: Dict[Function, CapabilitySet] = {}
    for function in module.functions.values():
        used = privuse.direct_uses(function) if not function.is_declaration else CapabilitySet.empty()
        for callee in callgraph.transitive_callees(function):
            used = used | privuse.direct_uses(callee)
        uses[function] = used

    pinned = CapabilitySet.empty()
    for handler in privuse.registered_signal_handlers(module):
        pinned = pinned | uses.get(handler, CapabilitySet.empty())

    def instruction_gen(instruction: Instruction) -> CapFacts:
        if isinstance(instruction, Call):
            generated = privuse.instruction_uses(instruction)
            for target in callgraph.resolve_call(instruction):
                generated = generated | uses.get(target, CapabilitySet.empty())
            return generated.as_frozenset()
        return frozenset()

    live_out: Dict[Function, CapabilitySet] = {
        function: CapabilitySet.empty() for function in module.functions.values()
    }
    block_in: Dict[Function, Dict[BasicBlock, CapFacts]] = {}
    block_out: Dict[Function, Dict[BasicBlock, CapFacts]] = {}

    defined = list(module.defined_functions())
    changed = True
    while changed:
        changed = False
        for function in defined:
            problem = _ReferenceBlockLiveness(instruction_gen, live_out[function])
            result = solve(problem, function)
            if (
                block_in.get(function) != result.block_in
                or block_out.get(function) != result.block_out
            ):
                block_in[function] = result.block_in
                block_out[function] = result.block_out
                changed = True
        new_live_out = {
            function: CapabilitySet.empty() for function in module.functions.values()
        }
        for function in defined:
            for block in function.blocks:
                if block not in block_out.get(function, {}):
                    continue
                live = set(block_out[function][block])
                for index in range(len(block.instructions) - 1, -1, -1):
                    instruction = block.instructions[index]
                    if isinstance(instruction, Call):
                        for target in callgraph.resolve_call(instruction):
                            new_live_out[target] = new_live_out[target] | CapabilitySet(live)
                    live |= instruction_gen(instruction)
        entry_function = module.functions.get(entry)
        if entry_function is not None:
            new_live_out[entry_function] = CapabilitySet.empty()
        if new_live_out != live_out:
            live_out = new_live_out
            changed = True

    return uses, live_out, pinned, block_in, block_out


def assert_same_liveness(source: str, indirect_targets_filter: str) -> None:
    module = compile_source(source)
    expected = reference_analyze_module(
        module, indirect_targets_filter=indirect_targets_filter
    )
    liveness = analyze_module(module, indirect_targets_filter=indirect_targets_filter)
    actual = (
        liveness.uses,
        liveness.live_out,
        liveness.pinned,
        liveness.block_in,
        liveness.block_out,
    )
    assert actual == expected
    for per_function in (*liveness.block_in.values(), *liveness.block_out.values()):
        for facts in per_function.values():
            assert type(facts) is frozenset


@pytest.mark.parametrize("indirect_targets_filter", FILTERS)
@settings(max_examples=40, deadline=None)
@given(program_sources())
def test_matches_reference_on_generated_programs(indirect_targets_filter, source_and_caps):
    source, _ = source_and_caps
    assert_same_liveness(source, indirect_targets_filter)


@pytest.mark.parametrize("indirect_targets_filter", FILTERS)
@pytest.mark.parametrize("program", ALL_PROGRAM_NAMES)
def test_matches_reference_on_study_programs(program, indirect_targets_filter):
    assert_same_liveness(spec_by_name(program).source, indirect_targets_filter)
