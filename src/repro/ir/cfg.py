"""Control-flow graph utilities: predecessors, orderings, dominators."""

from __future__ import annotations

from typing import Dict, List, Set

from repro.ir.function import BasicBlock, Function


def predecessors(function: Function) -> Dict[BasicBlock, List[BasicBlock]]:
    """Map each block to the blocks that branch to it."""
    preds: Dict[BasicBlock, List[BasicBlock]] = {block: [] for block in function.blocks}
    for block in function.blocks:
        for successor in block.successors():
            preds[successor].append(block)
    return preds


def reachable_blocks(function: Function) -> Set[BasicBlock]:
    """Blocks reachable from the entry block."""
    if function.is_declaration:
        return set()
    seen = {function.entry}
    stack = [function.entry]
    while stack:
        block = stack.pop()
        for successor in block.successors():
            if successor not in seen:
                seen.add(successor)
                stack.append(successor)
    return seen


def postorder(function: Function) -> List[BasicBlock]:
    """Blocks in postorder from the entry (unreachable blocks omitted).

    A depth-first walk with an explicit stack, visiting successors in
    order, so a deep CFG cannot exhaust Python's stack.
    """
    if function.is_declaration:
        return []
    order: List[BasicBlock] = []
    entry = function.entry
    seen = {entry}
    stack = [(entry, iter(entry.successors()))]
    while stack:
        block, successors = stack[-1]
        for successor in successors:
            if successor not in seen:
                seen.add(successor)
                stack.append((successor, iter(successor.successors())))
                break
        else:
            stack.pop()
            order.append(block)
    return order


def reverse_postorder(function: Function) -> List[BasicBlock]:
    """The canonical iteration order for forward data-flow analyses."""
    return list(reversed(postorder(function)))


def dominators(function: Function) -> Dict[BasicBlock, Set[BasicBlock]]:
    """The classic iterative dominator computation.

    ``dom[b]`` is the set of blocks that dominate ``b`` (including ``b``).
    Only reachable blocks appear in the result.
    """
    if function.is_declaration:
        return {}
    order = reverse_postorder(function)
    preds = predecessors(function)
    entry = function.entry
    universe = set(order)
    dom: Dict[BasicBlock, Set[BasicBlock]] = {block: set(universe) for block in order}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for block in order:
            if block is entry:
                continue
            reachable_preds = [pred for pred in preds[block] if pred in universe]
            if reachable_preds:
                new = set.intersection(*(dom[pred] for pred in reachable_preds))
            else:
                new = set()
            new.add(block)
            if new != dom[block]:
                dom[block] = new
                changed = True
    return dom


def immediate_dominators(function: Function) -> Dict[BasicBlock, BasicBlock]:
    """Map each reachable block (except the entry) to its immediate dominator."""
    dom = dominators(function)
    idom: Dict[BasicBlock, BasicBlock] = {}
    for block, dominating in dom.items():
        strict = dominating - {block}
        if not strict:
            continue
        # The immediate dominator is the strict dominator dominated by all
        # other strict dominators.
        for candidate in strict:
            if all(candidate in dom[other] for other in strict):
                idom[block] = candidate
                break
    return idom
