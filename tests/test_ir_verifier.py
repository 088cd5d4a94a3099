"""The IR verifier: every violation class it must catch."""

import pytest

from repro.ir import (
    Branch,
    Call,
    ConstantInt,
    I64,
    IRBuilder,
    Jump,
    Module,
    Phi,
    Ret,
    VOID,
    VerificationError,
    verify_module,
)
from repro.ir.values import Value


def fresh():
    module = Module("m")
    function = module.add_function("f", I64, [I64], ["x"])
    block = function.add_block("entry")
    return module, function, block


class TestVerifier:
    def test_clean_module_passes(self):
        module, function, block = fresh()
        IRBuilder(block).ret(0)
        verify_module(module)

    def test_missing_terminator(self):
        module, function, block = fresh()
        IRBuilder(block).add(1, 2)
        with pytest.raises(VerificationError, match="lacks a terminator"):
            verify_module(module)

    def test_foreign_branch_target(self):
        module, function, block = fresh()
        other_module = Module("other")
        other_function = other_module.add_function("g", VOID, [])
        foreign = other_function.add_block("foreign")
        block.append(Jump(foreign))
        with pytest.raises(VerificationError, match="branch target"):
            verify_module(module)

    def test_cross_function_operand(self):
        module, function, block = fresh()
        other = module.add_function("g", I64, [I64], ["y"])
        builder = IRBuilder(block)
        builder.ret(other.arguments[0])  # uses another function's argument
        with pytest.raises(VerificationError, match="defined in another function"):
            verify_module(module)

    def test_call_arity_checked(self):
        module, function, block = fresh()
        callee = module.declare("ext", I64, [I64, I64])
        builder = IRBuilder(block)
        block.append(Call(callee.ref(), [ConstantInt(I64, 1)], I64))
        builder.ret(0)
        with pytest.raises(VerificationError, match="passes 1 args"):
            verify_module(module)

    def test_vararg_call_arity_unchecked(self):
        module, function, block = fresh()
        callee = module.declare("printf", I64, [], vararg=True)
        builder = IRBuilder(block)
        builder.call(callee, [1, 2, 3])
        builder.ret(0)
        verify_module(module)

    def test_branch_condition_must_be_i1(self):
        module, function, block = fresh()
        then_block = function.add_block("then")
        else_block = function.add_block("else")
        IRBuilder(then_block).ret(0)
        IRBuilder(else_block).ret(0)
        block.append(Branch(ConstantInt(I64, 1), then_block, else_block))
        with pytest.raises(VerificationError, match="not i1"):
            verify_module(module)

    def test_reports_all_problems_at_once(self):
        module, function, block = fresh()
        IRBuilder(block).add(1, 2)  # no terminator
        other = function.add_block("other")
        IRBuilder(other).mul(3, 4)  # no terminator either
        with pytest.raises(VerificationError) as excinfo:
            verify_module(module)
        assert len(excinfo.value.problems) >= 2

    def test_declarations_skipped(self):
        module = Module("m")
        module.declare("ext", I64, [I64])
        verify_module(module)

    def test_problem_texts_are_pinned(self):
        """Every problem class at once, with the exact text and order."""
        module, function, entry = fresh()
        other = module.add_function("g", I64, [I64], ["y"])
        foreign = other.add_block("foreign")
        callee = module.declare("ext", I64, [I64, I64])
        entry.instructions.append(Ret(ConstantInt(I64, 0)))
        entry.instructions.append(Jump(foreign))
        entry.instructions.append(Call(callee.ref(), [other.arguments[0]], I64))
        phi = Phi(I64)
        phi.add_incoming(ConstantInt(I64, 1), foreign)
        phi.add_incoming(Value(I64, "odd"), entry)
        entry.instructions.append(phi)
        entry.instructions.append(Branch(ConstantInt(I64, 1), entry, entry))
        function.add_block("loose")
        with pytest.raises(VerificationError) as excinfo:
            verify_module(module)
        assert excinfo.value.problems == [
            "@f:%entry: terminator ret not at block end",
            "@f:%entry: terminator jmp not at block end",
            "@f:%entry: jmp: branch target %foreign not in function",
            "@f:%entry: call: operand %y defined in another function",
            "@f:%entry: call: call to @ext passes 1 args, expects 2",
            "@f:%entry: phi: unsupported operand kind Value",
            "@f:%entry: phi: phi incoming from foreign block",
            "@f:%entry: br: branch condition is i64, not i1",
            "@f:%loose: block lacks a terminator",
            "@g:%foreign: block lacks a terminator",
        ]
