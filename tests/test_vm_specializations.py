"""Parity of every compiled-core specialization with the reference evaluator.

The compiled core (:mod:`repro.vm.compiled`) generates each
instruction's code from its operand kinds: a local, a constant (emitted
inline or bound into the function's namespace) or a global that is
missing from ``vm.globals`` when the function compiles and is read from
``vm.globals`` at run time.
Each test here builds small IR functions that force one shape, runs them
on the compiled core (plain and instrumented) and on
:class:`~repro.testkit.reference.ReferenceInterpreter`, and requires the
same return value, error text and ``executed_instructions``.

The matrix covers every binary op and icmp predicate x operand kind x
width; ``sdiv``/``srem`` with negative and zero operands at every
position in a block; ``load``/``store`` through a non-pointer in each
operand kind; and every instruction budget across a block with a call.
"""

import itertools

import pytest

from repro.ir import I64, IntType, IRBuilder, Module
from repro.ir.instructions import BINARY_OPS, ICMP_PREDICATES
from repro.ir.values import ConstantInt, GlobalVariable
from repro.oskernel import Kernel
from repro.telemetry import Profiler
from repro.testkit.reference import ReferenceInterpreter
from repro.vm import Interpreter, VMError
from repro.vm.compiled import compile_function
from repro.vm.frame import GlobalSlot

REG, CONST, GLOBAL = "reg", "const", "global"
KINDS = (REG, CONST, GLOBAL)
WIDTHS = (1, 8, 32, 64)
MODES = ("plain", "instrumented")

_KERNEL = Kernel()
_PROCESS = _KERNEL.spawn(1000, 1000)


def _samples(bits, op=None):
    """Operand pairs around the width's edges (shift amounts stay small
    and non-negative: Python raises on negative counts)."""
    vtype = IntType(bits)
    edges = sorted({0, 1, -1, 3, -7, vtype.min_value, vtype.max_value})
    values = [value for value in edges if vtype.min_value <= value <= vtype.max_value]
    if op in ("shl", "lshr"):
        amounts = sorted({min(amount, vtype.max_value) for amount in (0, 1, bits - 1)})
        return [(value, amount) for value in values for amount in amounts]
    pairs = [(a, b) for a in values for b in (vtype.min_value, -1, 0, 1, 3, vtype.max_value)]
    return [(a, b) for a, b in pairs if vtype.min_value <= b <= vtype.max_value]


class _Case:
    """One IR function plus the run-time bindings its operands need."""

    def __init__(self, bits=64):
        self.module = Module("m")
        self.vtype = IntType(bits)
        self.params = []
        #: GlobalVariable -> value, bound into ``vm.globals`` only after
        #: the function compiled, so the compiled core reads it late.
        self.late = {}

    def operand(self, kind, value):
        """An operand of ``kind`` whose run-time value is ``value``."""
        if kind == CONST:
            return ConstantInt(self.vtype, value)
        if kind == GLOBAL:
            var = GlobalVariable(f"late{len(self.late)}")
            self.late[var] = value
            return var
        self.params.append(value)
        return ("param", len(self.params) - 1)

    def function(self):
        return self.module.add_function(
            "f", I64, [self.vtype] * len(self.params),
            [f"p{i}" for i in range(len(self.params))],
        )


def _resolve(function, operand):
    if isinstance(operand, tuple) and operand[0] == "param":
        return function.arguments[operand[1]]
    return operand


def _outcome(run):
    try:
        return ("ret", run())
    except VMError as error:
        return ("error", str(error))


def run_both(case, function, mode, max_instructions=10_000):
    """(compiled, reference) outcomes: (result, executed_instructions)."""
    vm = Interpreter(case.module, _KERNEL, _PROCESS, max_instructions=max_instructions)
    if mode == "instrumented":
        vm.attach_profiler(Profiler())
    code = compile_function(vm, function)
    vm.globals.update(case.late)
    compiled = (_outcome(lambda: code(vm, list(case.params))), vm.executed_instructions)

    ref = ReferenceInterpreter(case.module, _KERNEL, _PROCESS, max_instructions=max_instructions)
    ref.globals.update(case.late)
    reference = (
        _outcome(lambda: ref.call_function(function, list(case.params))),
        ref.executed_instructions,
    )
    return compiled, reference


def _binop_case(op, lkind, rkind, bits, lhs, rhs, before=0, after=0):
    """``before`` and ``after`` filler adds put the op at a chosen block
    position, so a raising op's tail is exercised at every offset."""
    case = _Case(bits)
    left, right = case.operand(lkind, lhs), case.operand(rkind, rhs)
    function = case.function()
    builder = IRBuilder(function.add_block("entry"))
    acc = ConstantInt(I64, 0)
    for _ in range(before):
        acc = builder.add(acc, 1)
    left, right = _resolve(function, left), _resolve(function, right)
    if op in ICMP_PREDICATES:
        result = builder.icmp(op, left, right)
    else:
        result = builder.binop(op, left, right)
    for _ in range(after):
        acc = builder.add(acc, 1)
    builder.ret(result)
    return case, function


# (GLOBAL, GLOBAL) would be pointer-typed arithmetic, which no frontend
# IR contains; every other pairing is exercised.
KIND_PAIRS = [pair for pair in itertools.product(KINDS, KINDS) if pair != (GLOBAL, GLOBAL)]


@pytest.mark.parametrize("op", sorted(BINARY_OPS) + sorted(ICMP_PREDICATES))
def test_op_matrix(op):
    for (lkind, rkind), bits, mode in itertools.product(KIND_PAIRS, WIDTHS, MODES):
        for lhs, rhs in _samples(bits, op):
            case, function = _binop_case(op, lkind, rkind, bits, lhs, rhs)
            compiled, reference = run_both(case, function, mode)
            assert compiled == reference, (lkind, rkind, bits, mode, lhs, rhs)


@pytest.mark.parametrize("op", ["sdiv", "srem"])
def test_division_at_every_block_position(op):
    operands = [(-7, 2), (7, -2), (-7, -2), (0, -3), (-8, 0), (0, 0), (5, 0),
                (-(2**63), -1)]
    for (lkind, rkind), mode, (lhs, rhs), before, after in itertools.product(
        KIND_PAIRS, MODES, operands, range(3), range(3)
    ):
        case, function = _binop_case(op, lkind, rkind, 64, lhs, rhs, before, after)
        compiled, reference = run_both(case, function, mode)
        assert compiled == reference, (lkind, rkind, mode, lhs, rhs, before, after)


def _pointer_case(access, kind, pointee, before, after):
    """``load``/``store`` through a pointer operand of ``kind`` whose
    run-time value is ``pointee`` (an int: not a pointer)."""
    case = _Case()
    pointer = case.operand(kind, pointee)
    function = case.function()
    builder = IRBuilder(function.add_block("entry"))
    pointer = _resolve(function, pointer)
    acc = ConstantInt(I64, 0)
    for _ in range(before):
        acc = builder.add(acc, 1)
    if access == "load":
        builder.load(pointer)
    else:
        builder.store(acc, pointer)
    for _ in range(after):
        acc = builder.add(acc, 1)
    builder.ret(acc)
    return case, function


@pytest.mark.parametrize("access", ["load", "store"])
def test_access_through_non_pointer(access):
    for kind, mode, before, after in itertools.product(KINDS, MODES, range(3), range(3)):
        case, function = _pointer_case(access, kind, 42, before, after)
        compiled, reference = run_both(case, function, mode)
        assert compiled == reference, (kind, mode, before, after)
        assert compiled[0] == ("error", f"{access} through non-pointer 42")


def _memory_case(pointer_kind, value_kind):
    """Store then load through an alloca (register), a global prebound
    at compile time (constant) or a late-bound global, with a stored
    value of each kind; returns what the load read plus a counter."""
    case = _Case()
    value = case.operand(value_kind, 7)
    module = case.module
    if pointer_kind == GLOBAL:
        late = GlobalVariable("cell")
        case.late[late] = GlobalSlot("cell")
    function = case.function()
    builder = IRBuilder(function.add_block("entry"))
    if pointer_kind == REG:
        pointer = builder.alloca("cell")
    elif pointer_kind == CONST:
        pointer = module.add_global("cell", 5)
    else:
        pointer = late
    builder.store(_resolve(function, value), pointer)
    loaded = builder.load(pointer)
    builder.ret(builder.add(loaded, 1))
    return case, function


@pytest.mark.parametrize("pointer_kind", KINDS)
def test_store_load_through_each_pointer_kind(pointer_kind):
    for value_kind, mode in itertools.product(KINDS, MODES):
        case, function = _memory_case(pointer_kind, value_kind)
        compiled, reference = run_both(case, function, mode)
        assert compiled == reference, (value_kind, mode)
        assert compiled[0] == ("ret", 8)


def test_global_slot_through_a_register():
    """A global's address passed as an argument takes the isinstance
    fallback of the register fast path (GlobalSlot is a StackSlot)."""
    module = Module("m")
    var = module.add_global("g", 3)
    function = module.add_function("f", I64, [I64], ["p"])
    builder = IRBuilder(function.add_block("entry"))
    pointer = function.arguments[0]
    builder.store(builder.add(builder.load(pointer), 4), pointer)
    builder.ret(builder.load(pointer))
    results = []
    for cls in (Interpreter, ReferenceInterpreter):
        vm = cls(module, _KERNEL, _PROCESS)
        results.append((vm.call_function(function, [vm.globals[var]]),
                        vm.executed_instructions))
    assert results[0] == results[1] == (7, 5)


def _call_block_case():
    """A block whose middle instruction calls a helper, plus a loop."""
    module = Module("m")
    helper = module.add_function("helper", I64, [I64], ["x"])
    hb = IRBuilder(helper.add_block("entry"))
    hb.ret(hb.mul(hb.add(helper.arguments[0], 3), 2))
    function = module.add_function("f", I64, [I64], ["n"])
    entry, loop, done = (function.add_block(name) for name in ("entry", "loop", "done"))
    builder = IRBuilder(entry)
    start = builder.add(function.arguments[0], 0)
    builder.jmp(loop)
    builder.position_at_end(loop)
    counter = builder.phi(I64)
    called = builder.call(helper, [counter])
    nxt = builder.sub(counter, 1)
    builder.srem(called, 5)
    builder.br(builder.icmp("sgt", nxt, 0), loop, done)
    counter.add_incoming(start, entry)
    counter.add_incoming(nxt, loop)
    builder.position_at_end(done)
    builder.ret(builder.sdiv(called, -3))
    case = _Case()
    case.module = module
    case.params = [4]
    return case, function


@pytest.mark.parametrize("mode", MODES)
def test_every_budget_across_a_call(mode):
    case, function = _call_block_case()
    full, _ = run_both(case, function, mode)
    assert full[0][0] == "ret"
    for budget in range(full[1] + 2):
        compiled, reference = run_both(case, function, mode, max_instructions=budget)
        assert compiled == reference, budget
