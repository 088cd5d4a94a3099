"""The AutoPriv transformation: drop privileges the moment they die.

Given the liveness solution, insert ``priv_remove(mask)`` calls at every
live→dead transition — after the last instruction on a path that can use
a privilege — plus one sweep at program entry for privileges the program
can never use.  The paper's compiler additionally inserts a ``prctl()``
call disabling the kernel's root-uid capability fixups (§VII-B); we do
the same.

Privileges used by registered signal handlers are never removed: the
handler may run at any time.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Tuple

from repro.caps import CapabilitySet
from repro.ir import BasicBlock, Call, ConstantInt, Function, I64, Module
from repro.autopriv import privuse
from repro.autopriv.liveness import analyze_module


@dataclasses.dataclass
class TransformReport:
    """What the transform did — used by tests and the A2 ablation."""

    #: (function name, block name, instruction index, removed set) per
    #: inserted priv_remove call.
    insertions: List[Tuple[str, str, int, CapabilitySet]]
    #: Privileges removed immediately at program entry.
    entry_removed: CapabilitySet
    #: Privileges pinned live by signal handlers (never removed).
    pinned: CapabilitySet
    #: Wall-clock seconds per pass: ``{"liveness": ..., "insertion": ...}``.
    timings: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def insertion_count(self) -> int:
        return len(self.insertions) + (1 if self.entry_removed else 0)


def _runtime_fn(module: Module, name: str, param_types) -> "Function":
    """The runtime wrapper, reusing the program's own (possibly variadic)
    implicit declaration when one exists."""
    existing = module.functions.get(name)
    if existing is not None:
        return existing
    return module.declare(name, I64, param_types)


def _remove_call(module: Module, mask: int) -> Call:
    remove_fn = _runtime_fn(module, privuse.PRIV_REMOVE, [I64])
    return Call(remove_fn.ref(), [ConstantInt(I64, mask)], I64)


def transform_module(
    module: Module,
    initial_permitted: CapabilitySet,
    entry: str = "main",
    insert_lockdown: bool = True,
    indirect_targets_filter: str = "address-taken",
    clock: Callable[[], float] = time.perf_counter,
) -> TransformReport:
    """Insert ``priv_remove`` calls in place; returns what was inserted.

    The report's ``timings`` break the pass into its two phases —
    privilege-liveness dataflow and call insertion — for the telemetry
    layer's per-pass profile.
    """
    pass_start = clock()
    liveness = analyze_module(module, entry, indirect_targets_filter)
    liveness_seconds = clock() - pass_start
    insertion_start = clock()
    insertions: List[Tuple[str, str, int, CapabilitySet]] = []
    candidates = (initial_permitted - liveness.pinned).to_mask()
    call_gen = liveness.call_gen
    block_gen = liveness.block_gen

    for function in module.defined_functions():
        if function not in liveness.block_in_masks:
            continue
        block_in = liveness.block_in_masks[function]
        block_out = liveness.block_out_masks[function]
        # What flows into each block: the union of its reachable
        # predecessors' exit liveness (absent for a block with none).
        incoming: Dict[BasicBlock, int] = {}
        for pred, live in block_out.items():
            for successor in pred.successors():
                incoming[successor] = incoming.get(successor, 0) | live
        for block in function.blocks:
            if block not in block_in:
                continue  # unreachable
            # Walk the block backward tracking instruction-level liveness:
            # a privilege dies after the instruction that generates it
            # when it is not live after that instruction.  A block whose
            # calls generate no candidate has no such death.
            if block_gen[block] & candidates:
                live_after = block_out[block]
                transitions: List[Tuple[int, int]] = []
                for index in range(len(block.instructions) - 1, -1, -1):
                    instruction = block.instructions[index]
                    generated = call_gen.get(instruction, 0)
                    dying = generated & ~live_after & candidates
                    if dying and not instruction.is_terminator:
                        transitions.append((index, dying))
                    live_after |= generated
                # Insert from the highest index down so indices stay valid.
                for index, dying in transitions:
                    block.insert(index + 1, _remove_call(module, dying))
                    removed = CapabilitySet.from_mask(dying)
                    insertions.append((function.name, block.name, index + 1, removed))

            # Edge deaths: a privilege live out of some predecessor (on
            # behalf of a *different* successor) but dead on entry here —
            # e.g. the false edge around an if-guarded bracket, or a loop
            # exit edge.  Removal at block entry is safe: liveness at
            # block entry is path-insensitive, so the privilege is dead
            # on every path from here regardless of the edge taken.
            if block not in incoming:
                continue
            dying_at_entry = incoming[block] & ~block_in[block] & candidates
            if dying_at_entry:
                block.insert(0, _remove_call(module, dying_at_entry))
                removed = CapabilitySet.from_mask(dying_at_entry)
                insertions.append((function.name, block.name, 0, removed))

    # Entry sweep: privileges never live at program start die immediately.
    entry_removed = CapabilitySet.empty()
    entry_function = module.functions.get(entry)
    if entry_function is not None and not entry_function.is_declaration:
        entry_block = entry_function.entry
        live_at_entry = liveness.block_in_masks.get(entry_function, {}).get(entry_block, 0)
        entry_removed = CapabilitySet.from_mask(candidates & ~live_at_entry)
        position = 0
        if insert_lockdown:
            lockdown = _runtime_fn(module, "prctl_lockdown", [])
            entry_block.insert(0, Call(lockdown.ref(), [], I64))
            position = 1
        if entry_removed:
            entry_block.insert(position, _remove_call(module, entry_removed.to_mask()))

    return TransformReport(
        insertions=insertions,
        entry_removed=entry_removed,
        pinned=liveness.pinned,
        timings={
            "liveness": liveness_seconds,
            "insertion": clock() - insertion_start,
        },
    )
