"""IR types, values, builder, functions, printer."""

import pytest
from hypothesis import given, strategies as st

from repro.ir import (
    BOOL,
    BasicBlock,
    ConstantInt,
    ConstantString,
    Function,
    FunctionType,
    I32,
    I64,
    IRBuilder,
    IntType,
    Module,
    PTR,
    VOID,
    print_function,
    print_module,
)
from repro.testkit.reference import _wrap as _reference_wrap


class TestTypes:
    def test_int_types_interned(self):
        assert IntType(64) is I64
        assert IntType(32) is I32

    def test_int_type_bounds(self):
        assert I64.max_value == 2**63 - 1
        assert I64.min_value == -(2**63)

    def test_wrap_two_complement(self):
        assert I64.wrap(2**63) == -(2**63)
        assert I64.wrap(-1) == -1
        assert IntType(8).wrap(255) == -1
        assert IntType(8).wrap(128) == -128
        assert IntType(8).wrap(127) == 127

    @pytest.mark.parametrize("bits", [1, 8, 32, 64])
    def test_wrap_matches_reference_at_each_boundary(self, bits):
        vtype = IntType(bits)
        edges = (0, vtype.min_value, vtype.max_value, 1 << bits, -(1 << bits))
        for edge in edges:
            for value in range(edge - 3, edge + 4):
                assert vtype.wrap(value) == _reference_wrap(bits, value), value

    @given(st.sampled_from([1, 8, 32, 64]), st.integers(-(2**130), 2**130))
    def test_wrap_matches_reference(self, bits, value):
        wrapped = IntType(bits).wrap(value)
        assert wrapped == _reference_wrap(bits, value)
        assert IntType(bits).min_value <= wrapped <= IntType(bits).max_value

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            IntType(0)

    def test_function_type_equality(self):
        a = FunctionType(I64, (I64,))
        b = FunctionType(I64, (I64,))
        assert a == b and hash(a) == hash(b)
        assert a != FunctionType(I64, (I64, I64))

    def test_function_type_str(self):
        assert str(FunctionType(VOID, (I64, PTR))) == "void (i64, ptr)"
        assert str(FunctionType(I64, (), vararg=True)) == "i64 (...)"


class TestConstants:
    def test_constant_wraps(self):
        assert ConstantInt(I64, 2**64 - 1).value == -1

    def test_constant_equality(self):
        assert ConstantInt(I64, 3) == ConstantInt(I64, 3)
        assert ConstantInt(I64, 3) != ConstantInt(I32, 3)

    def test_string_constant(self):
        assert ConstantString("hi").value == "hi"
        assert ConstantString("hi") == ConstantString("hi")


class TestModule:
    def test_duplicate_function_rejected(self):
        module = Module("m")
        module.add_function("f", I64, [])
        with pytest.raises(ValueError):
            module.add_function("f", I64, [])

    def test_declare_idempotent(self):
        module = Module("m")
        first = module.declare("ext", I64, [I64])
        second = module.declare("ext", I64, [I64])
        assert first is second

    def test_declare_conflict_rejected(self):
        module = Module("m")
        module.declare("ext", I64, [I64])
        with pytest.raises(ValueError):
            module.declare("ext", I64, [I64, I64])

    def test_get_function_missing(self):
        with pytest.raises(KeyError):
            Module("m").get_function("nope")

    def test_globals(self):
        module = Module("m")
        var = module.add_global("counter", 7)
        assert var.initial == 7
        with pytest.raises(ValueError):
            module.add_global("counter")

    def test_contains(self):
        module = Module("m")
        module.add_function("f", I64, [])
        assert "f" in module
        assert "g" not in module


class TestBasicBlocks:
    def test_append_after_terminator_rejected(self):
        module = Module("m")
        function = module.add_function("f", VOID, [])
        block = function.add_block("entry")
        builder = IRBuilder(block)
        builder.ret()
        with pytest.raises(ValueError):
            builder.ret()

    def test_unique_block_names(self):
        module = Module("m")
        function = module.add_function("f", VOID, [])
        a = function.add_block("x")
        b = function.add_block("x")
        assert a.name != b.name

    @given(
        st.lists(
            st.one_of(st.sampled_from(["x", "x.1", "x.2", "y", "y.1"]), st.integers(0, 9)),
            max_size=30,
        )
    )
    def test_unique_block_names_match_a_rescan(self, steps):
        """Names are those of a full rescan of the blocks on every add,
        also after a pass replaces the block list (an int step keeps
        every block but the one at that index)."""
        module = Module("m")
        function = module.add_function("f", VOID, [])
        for step in steps:
            if isinstance(step, int):
                function.blocks = [
                    block for index, block in enumerate(function.blocks) if index != step
                ]
                continue
            existing = {block.name for block in function.blocks}
            expected, counter = step, 1
            while expected in existing:
                expected, counter = f"{step}.{counter}", counter + 1
            assert function.add_block(step).name == expected

    def test_entry_requires_body(self):
        module = Module("m")
        function = module.declare("ext", I64, [])
        with pytest.raises(ValueError):
            function.entry


class TestBuilder:
    def build_simple(self):
        module = Module("m")
        function = module.add_function("f", I64, [I64], ["x"])
        builder = IRBuilder(function.add_block("entry"))
        return module, function, builder

    def test_coercion(self):
        _, _, builder = self.build_simple()
        value = builder.value(5)
        assert isinstance(value, ConstantInt)
        assert builder.value("s").value == "s"
        assert builder.value(True).type is BOOL

    def test_arith_chain_executes(self):
        module, function, builder = self.build_simple()
        x = function.arguments[0]
        total = builder.add(builder.mul(x, 2), 1)
        builder.ret(total)
        from repro.oskernel import Kernel
        from repro.vm import Interpreter

        kernel = Kernel()
        process = kernel.spawn(0, 0)
        vm = Interpreter(module, kernel, process)
        assert vm.call_function(function, [20]) == 41

    def test_unknown_binop_rejected(self):
        _, _, builder = self.build_simple()
        with pytest.raises(ValueError):
            builder.binop("pow", 2, 3)

    def test_unknown_icmp_rejected(self):
        _, _, builder = self.build_simple()
        with pytest.raises(ValueError):
            builder.icmp("ult", 1, 2)

    def test_builder_without_position(self):
        with pytest.raises(ValueError):
            IRBuilder().ret()


class TestPrinter:
    def test_prints_declaration(self):
        module = Module("m")
        module.declare("ext", I64, [I64, PTR])
        assert print_module(module).splitlines()[-1] == "declare i64 @ext(i64 %arg0, ptr %arg1)"

    def test_prints_numbered_values(self):
        module = Module("m")
        function = module.add_function("f", I64, [I64], ["x"])
        builder = IRBuilder(function.add_block("entry"))
        value = builder.add(function.arguments[0], 1)
        builder.ret(value)
        text = print_function(function)
        assert "%0 = add %x, 1" in text
        assert "ret %0" in text

    def test_prints_globals(self):
        module = Module("m")
        module.add_global("g", 3)
        assert "@g = global i64 3" in print_module(module)


class TestPrinterControlFlow:
    def test_prints_phi_and_select(self):
        from repro.ir import Phi, ConstantInt, print_function

        module = Module("m")
        function = module.add_function("f", I64, [I64], ["x"])
        entry = function.add_block("entry")
        left = function.add_block("left")
        merge = function.add_block("merge")
        builder = IRBuilder(entry)
        cond = builder.icmp("eq", function.arguments[0], 0)
        builder.br(cond, left, merge)
        builder.position_at_end(left)
        builder.jmp(merge)
        builder.position_at_end(merge)
        phi = builder.phi(I64)
        phi.add_incoming(ConstantInt(I64, 1), entry)
        phi.add_incoming(ConstantInt(I64, 2), left)
        sel = builder.select(cond, phi, 0)
        builder.ret(sel)
        text = print_function(function)
        assert "phi [1, %entry], [2, %left]" in text
        assert "br %0, label %left, label %merge" in text
        assert "select" in text

    def test_prints_string_and_function_operands(self):
        from repro.ir import print_function

        module = Module("m")
        ext = module.declare("print_str", I64, [PTR])
        function = module.add_function("f", VOID, [])
        builder = IRBuilder(function.add_block("entry"))
        builder.call(ext, ["hello"])
        builder.ret()
        text = print_function(function)
        assert "call @print_str('hello')" in text
