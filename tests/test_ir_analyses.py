"""CFG utilities, dominators, call graph and the data-flow framework."""

import pytest

from repro.ir import (
    CallGraph,
    I64,
    IRBuilder,
    Module,
    SetDataflowProblem,
    VOID,
    dominators,
    immediate_dominators,
    postorder,
    predecessors,
    reachable_blocks,
    flow_graph,
    reverse_postorder,
    solve,
)


def diamond():
    """entry -> (left | right) -> merge."""
    module = Module("m")
    function = module.add_function("f", VOID, [I64], ["x"])
    entry = function.add_block("entry")
    left = function.add_block("left")
    right = function.add_block("right")
    merge = function.add_block("merge")
    builder = IRBuilder(entry)
    cond = builder.icmp("eq", function.arguments[0], 0)
    builder.br(cond, left, right)
    builder.position_at_end(left)
    builder.jmp(merge)
    builder.position_at_end(right)
    builder.jmp(merge)
    builder.position_at_end(merge)
    builder.ret()
    return function, (entry, left, right, merge)


def loop():
    """entry -> header <-> body ; header -> exit."""
    module = Module("m")
    function = module.add_function("f", VOID, [I64], ["n"])
    entry = function.add_block("entry")
    header = function.add_block("header")
    body = function.add_block("body")
    exit_block = function.add_block("exit")
    builder = IRBuilder(entry)
    builder.jmp(header)
    builder.position_at_end(header)
    cond = builder.icmp("sgt", function.arguments[0], 0)
    builder.br(cond, body, exit_block)
    builder.position_at_end(body)
    builder.jmp(header)
    builder.position_at_end(exit_block)
    builder.ret()
    return function, (entry, header, body, exit_block)


class TestCfg:
    def test_predecessors_diamond(self):
        function, (entry, left, right, merge) = diamond()
        preds = predecessors(function)
        assert preds[entry] == []
        assert set(preds[merge]) == {left, right}

    def test_reachable_excludes_orphans(self):
        function, _ = diamond()
        orphan = function.add_block("orphan")
        IRBuilder(orphan).ret()
        assert orphan not in reachable_blocks(function)

    def test_postorder_ends_with_entry(self):
        function, (entry, *_rest) = diamond()
        assert postorder(function)[-1] is entry
        assert reverse_postorder(function)[0] is entry

    def test_rpo_respects_loop(self):
        function, (entry, header, body, exit_block) = loop()
        order = reverse_postorder(function)
        assert order.index(entry) < order.index(header)
        assert order.index(header) < order.index(body)

    def test_postorder_of_a_deep_chain_needs_no_recursion(self):
        module = Module("m")
        function = module.add_function("f", VOID, [])
        blocks = [function.add_block(f"b{index}") for index in range(2000)]
        for block, successor in zip(blocks, blocks[1:]):
            IRBuilder(block).jmp(successor)
        IRBuilder(blocks[-1]).ret()
        assert postorder(function) == blocks[::-1]


class TestDominators:
    def test_diamond(self):
        function, (entry, left, right, merge) = diamond()
        dom = dominators(function)
        assert dom[merge] == {entry, merge}
        assert dom[left] == {entry, left}

    def test_loop_header_dominates_body(self):
        function, (entry, header, body, exit_block) = loop()
        dom = dominators(function)
        assert header in dom[body]
        assert header in dom[exit_block]
        assert body not in dom[exit_block]

    def test_immediate_dominators(self):
        function, (entry, left, right, merge) = diamond()
        idom = immediate_dominators(function)
        assert idom[merge] is entry
        assert idom[left] is entry
        assert entry not in idom  # the entry has no dominator


class TestCallGraph:
    def build(self, indirect_filter="address-taken"):
        module = Module("m")
        callee_a = module.add_function("a", I64, [I64])
        callee_b = module.add_function("b", I64, [I64, I64])
        main = module.add_function("main", I64, [])
        for function in (callee_a, callee_b):
            builder = IRBuilder(function.add_block("entry"))
            builder.ret(0)
        builder = IRBuilder(main.add_block("entry"))
        builder.call(callee_a, [1])  # direct
        # Indirect: store &b in a slot and call through it.
        slot = builder.alloca("fp")
        builder.store(callee_b.ref(), slot)
        loaded = builder.load(slot)
        builder.call(loaded, [1, 2])
        builder.ret(0)
        return module, CallGraph(module, indirect_filter), callee_a, callee_b, main

    def test_direct_edge(self):
        _, graph, callee_a, _, main = self.build()
        assert callee_a in graph.callees[main]

    def test_address_taken_marked(self):
        module, graph, callee_a, callee_b, _ = self.build()
        assert callee_b.address_taken
        assert not callee_a.address_taken  # only used as a direct callee

    def test_conservative_indirect_targets(self):
        _, graph, _, callee_b, main = self.build()
        assert callee_b in graph.callees[main]
        assert graph.has_indirect_call[main]

    def test_type_matched_filter_uses_arity(self):
        module, graph, callee_a, callee_b, main = self.build("type-matched")
        # The indirect call passes 2 args; only b (2 params) matches.
        assert callee_b in graph.callees[main]

    def test_type_matched_excludes_wrong_arity(self):
        module = Module("m")
        one = module.add_function("one", I64, [I64])
        two = module.add_function("two", I64, [I64, I64])
        main = module.add_function("main", I64, [])
        for function in (one, two):
            IRBuilder(function.add_block("entry")).ret(0)
        builder = IRBuilder(main.add_block("entry"))
        slot = builder.alloca("fp")
        builder.store(one.ref(), slot)
        builder.store(two.ref(), slot)
        loaded = builder.load(slot)
        builder.call(loaded, [7])  # 1 argument
        builder.ret(0)
        conservative = CallGraph(module, "address-taken")
        precise = CallGraph(module, "type-matched")
        assert two in conservative.callees[main]
        assert two not in precise.callees[main]
        assert one in precise.callees[main]

    def test_transitive_callees(self):
        module = Module("m")
        c = module.add_function("c", I64, [])
        b = module.add_function("b", I64, [])
        a = module.add_function("a", I64, [])
        IRBuilder(c.add_block("entry")).ret(0)
        builder = IRBuilder(b.add_block("entry"))
        builder.call(c, [])
        builder.ret(0)
        builder = IRBuilder(a.add_block("entry"))
        builder.call(b, [])
        builder.ret(0)
        graph = CallGraph(module)
        assert graph.transitive_callees(a) == {b, c}

    def test_transitive_handles_recursion(self):
        module = Module("m")
        f = module.add_function("f", I64, [])
        builder = IRBuilder(f.add_block("entry"))
        builder.call(f, [])
        builder.ret(0)
        graph = CallGraph(module)
        assert graph.transitive_callees(f) == {f}

    def test_unknown_filter_rejected(self):
        module = Module("m")
        with pytest.raises(ValueError):
            CallGraph(module, "magic")

    def test_callers_inverts(self):
        _, graph, callee_a, _, main = self.build()
        assert main in graph.callers()[callee_a]


class _Reachability(SetDataflowProblem):
    """Forward may-analysis: which block names have been passed through."""

    direction = "forward"
    meet = "union"

    def gen(self, block):
        return frozenset({block.name})

    def kill(self, block):
        return frozenset()


class _BackwardReach(_Reachability):
    direction = "backward"


class TestDataflow:
    def test_forward_reaches_merge_from_both_arms(self):
        function, (entry, left, right, merge) = diamond()
        result = solve(_Reachability(), function)
        assert result.block_in[merge] == frozenset({"left", "right", "entry"})
        assert "merge" in result.block_out[merge]

    def test_backward_flows_from_exit(self):
        function, (entry, header, body, exit_block) = loop()
        result = solve(_BackwardReach(), function)
        # Everything downstream of entry includes the exit block's name.
        assert "exit" in result.block_in[entry]

    def test_loop_reaches_fixpoint(self):
        function, (entry, header, body, exit_block) = loop()
        result = solve(_Reachability(), function)
        assert "body" in result.block_in[header]  # via the back edge
        assert "entry" in result.block_in[exit_block]

    def test_declaration_is_empty(self):
        module = Module("m")
        declared = module.declare("ext", I64, [])
        result = solve(_Reachability(), declared)
        assert result.block_in == {}

    @pytest.mark.parametrize(
        "problem", [_Reachability(), _BackwardReach()], ids=["forward", "backward"]
    )
    def test_prebuilt_flow_graph_gives_the_same_result(self, problem):
        function, _ = loop()
        graph = flow_graph(function, problem.direction)
        assert solve(problem, function, graph) == solve(problem, function)

    def test_flow_graph_of_the_other_direction_is_refused(self):
        function, _ = loop()
        with pytest.raises(ValueError, match="backward flow graph"):
            solve(_Reachability(), function, flow_graph(function, "backward"))
