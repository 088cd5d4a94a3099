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
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, TypeVar, Union

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


class FlowGraph(NamedTuple):
    """One function's blocks as one direction of data flow sees them.

    ``order`` is the iteration order (reverse postorder going forward,
    postorder going backward; unreachable blocks omitted), ``sources``
    maps each block to the blocks whose facts flow into it
    (predecessors going forward, successors going backward), and
    ``boundaries`` holds the blocks that also receive the boundary fact.
    A caller that solves one function many times builds this once with
    :func:`flow_graph` and passes it to every :func:`solve`.
    """

    direction: str
    order: List[BasicBlock]
    sources: Dict[BasicBlock, Sequence[BasicBlock]]
    boundaries: Set[BasicBlock]


def flow_graph(function: Function, direction: str) -> FlowGraph:
    """The :class:`FlowGraph` of a defined ``function`` for ``direction``."""
    if direction == "forward":
        order = reverse_postorder(function)
        preds = predecessors(function)
        sources = {block: preds[block] for block in order}
        return FlowGraph(direction, order, sources, {function.entry})
    sources = {block: block.successors() for block in postorder(function)}
    boundaries = {block for block, successors in sources.items() if not successors}
    return FlowGraph(direction, list(sources), sources, boundaries)


def solve(
    problem: SetDataflowProblem, function: Function, graph: Optional[FlowGraph] = None
) -> DataflowResult:
    """Run the iterative worklist algorithm to a fixpoint.

    ``graph`` is ``flow_graph(function, problem.direction)``, built here
    when not given.
    """
    if function.is_declaration:
        return DataflowResult({}, {})
    if graph is None:
        graph = flow_graph(function, problem.direction)
    elif graph.direction != problem.direction:
        raise ValueError(
            f"a {graph.direction} flow graph cannot solve a {problem.direction} problem"
        )
    order, sources, boundaries = graph.order, graph.sources, graph.boundaries

    merge = operator.or_ if problem.meet == "union" else operator.and_
    transfer = problem.transfer
    initial, boundary = problem.initial(), problem.boundary()
    block_in: BlockSets = dict.fromkeys(order, initial)
    block_out: BlockSets = dict.fromkeys(order, initial)
    # Facts flow out of ``block_out`` into ``block_in`` going forward, and
    # the other way round going backward.
    forward = problem.direction == "forward"
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
            outgoing = transfer(block, incoming)
            if incoming != into[block] or outgoing != out_of[block]:
                into[block], out_of[block] = incoming, outgoing
                changed = True
    return DataflowResult(block_in, block_out)
