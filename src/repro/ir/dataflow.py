"""A generic iterative data-flow framework over basic blocks.

AutoPriv's privilege-liveness analysis (§V) is a backward may-analysis:
a privilege is *live* at a point if some path from that point reaches a
use of the privilege.  Rather than hard-coding that one analysis, we
provide the standard worklist framework for set-based (powerset lattice)
problems; :mod:`repro.autopriv.liveness` instantiates it.

Facts may be frozensets or ``int`` bitsets: the meet is ``|`` (union)
or ``&`` (intersection), which both support.  The default gen/kill
:meth:`~SetDataflowProblem.transfer` is written for frozensets; a bitset
problem overrides it (liveness, which never kills, returns
``gen | incoming``) and returns ``0`` from :meth:`boundary` and
:meth:`initial`.

The framework works at basic-block granularity and exposes the in/out
facts per block; analyses needing instruction-level results refine
within a block themselves.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Dict, FrozenSet, TypeVar, Union

from repro.ir.cfg import postorder, predecessors, reverse_postorder
from repro.ir.function import BasicBlock, Function

Fact = TypeVar("Fact")
BlockSets = Dict[BasicBlock, Union[FrozenSet, int]]


@dataclasses.dataclass
class DataflowResult:
    """Per-block in/out sets of one analysis run."""

    block_in: BlockSets
    block_out: BlockSets


class SetDataflowProblem:
    """A forward or backward union/intersection data-flow problem.

    Subclasses (or instances) provide:

    * ``direction`` — ``"forward"`` or ``"backward"``;
    * ``meet`` — ``"union"`` (may) or ``"intersection"`` (must);
    * :meth:`gen` and :meth:`kill` — per-block transfer sets;
    * :meth:`boundary` — the fact at the entry (forward) / exits (backward);
    * :meth:`initial` — the optimistic initial value for interior blocks.
    """

    direction = "forward"
    meet = "union"

    def gen(self, block: BasicBlock) -> FrozenSet:
        raise NotImplementedError

    def kill(self, block: BasicBlock) -> FrozenSet:
        raise NotImplementedError

    def boundary(self) -> FrozenSet:
        return frozenset()

    def initial(self) -> FrozenSet:
        return frozenset()

    def transfer(self, block: BasicBlock, incoming: FrozenSet) -> FrozenSet:
        """``gen ∪ (incoming − kill)`` — override for non-gen/kill problems."""
        return self.gen(block) | (incoming - self.kill(block))


def solve(problem: SetDataflowProblem, function: Function) -> DataflowResult:
    """Run the iterative worklist algorithm to a fixpoint."""
    if function.is_declaration:
        return DataflowResult({}, {})
    forward = problem.direction == "forward"
    order = reverse_postorder(function) if forward else postorder(function)
    if forward:
        preds = predecessors(function)
        sources = {block: preds[block] for block in order}
        boundaries = {function.entry}
    else:
        sources = {block: list(block.successors()) for block in order}
        boundaries = {block for block in order if not sources[block]}

    merge = operator.or_ if problem.meet == "union" else operator.and_
    initial, boundary = problem.initial(), problem.boundary()
    block_in: BlockSets = {block: initial for block in order}
    block_out: BlockSets = {block: initial for block in order}
    # Facts flow out of ``block_out`` into ``block_in`` going forward, and
    # the other way round going backward.
    into, out_of = (block_in, block_out) if forward else (block_out, block_in)

    changed = True
    while changed:
        changed = False
        for block in order:
            neighbours = sources[block]
            if neighbours:
                incoming = out_of[neighbours[0]]
                for source in neighbours[1:]:
                    incoming = merge(incoming, out_of[source])
                if block in boundaries:
                    incoming = merge(incoming, boundary)
            else:
                incoming = boundary if block in boundaries else initial
            outgoing = problem.transfer(block, incoming)
            if incoming != into[block] or outgoing != out_of[block]:
                into[block], out_of[block] = incoming, outgoing
                changed = True
    return DataflowResult(block_in, block_out)
