"""PrivC frontend: lexer, parser, sema and compiled-program behaviour."""

import pytest

from repro.frontend import (
    LexError,
    ParseError,
    SemaError,
    analyze,
    builtin_constants,
    compile_source,
    parse,
    tokenize,
)
from repro.caps import CapabilitySet
from repro.core.pipeline import PrivAnalyzer
from repro.frontend.ast import Pos
from repro.frontend.lexer import Token
from repro.frontend.parser import MAX_NESTING
from repro.oskernel import Kernel
from repro.programs.common import ProgramSpec
from repro.vm import Interpreter


def run_main(source, argv=(), stdin=()):
    """Compile and execute a PrivC program; return (exit code, stdout)."""
    module = compile_source(source)
    kernel = Kernel()
    process = kernel.spawn(1000, 1000)
    vm = Interpreter(module, kernel, process, argv=list(argv), stdin=list(stdin))
    code = vm.run()
    return code, vm.stdout


class TestLexer:
    def test_keywords_and_idents(self):
        kinds = [(t.kind, t.text) for t in tokenize("int x")]
        assert kinds == [("keyword", "int"), ("ident", "x"), ("eof", "")]

    def test_numbers(self):
        tokens = tokenize("42 0x1f 0o640")
        assert [t.value for t in tokens[:-1]] == [42, 31, 0o640]

    def test_string_escapes(self):
        token = tokenize(r'"a\nb\t\"c\\"')[0]
        assert token.value == 0
        assert token.text == 'a\nb\t"c\\'

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_comments_stripped(self):
        tokens = tokenize("a // line\n/* block\nmore */ b")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_maximal_munch_operators(self):
        tokens = tokenize("a<=b==c&&d")
        ops = [t.text for t in tokens if t.kind == "op"]
        assert ops == ["<=", "==", "&&"]

    def test_positions_tracked(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].pos.line == 1
        assert tokens[1].pos.line == 2
        assert tokens[1].pos.column == 3

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a $ b")

    @pytest.mark.parametrize("prefix", ["0x", "0X", "0o", "0O"])
    def test_radix_prefix_without_digits_is_a_positioned_lex_error(self, prefix):
        with pytest.raises(LexError) as raised:
            tokenize(f"return\n  {prefix};")
        assert raised.value.pos == Pos(2, 3)
        assert str(raised.value) == f"2:3: integer literal {prefix!r} has no digits"
        with pytest.raises(LexError):
            compile_source(f"int main() {{ return {prefix}; }}")

    def test_tokens_compare_and_print_by_value(self):
        token = Token("int", "0x1f", 31, Pos(3, 4))
        assert token == Token("int", "0x1f", 31, Pos(3, 4))
        assert token != Token("int", "0x1f", 31, Pos(3, 5))
        assert hash(token) == hash(Token("int", "0x1f", 31, Pos(3, 4)))
        assert repr(token) == "Token(int, '0x1f' @3:4)"
        assert repr(Pos(3, 4)) == "Pos(line=3, column=4)"
        assert Token("eof", "") == Token("eof", "", 0, Pos(0, 0))


class TestParser:
    def test_precedence(self):
        code, out = run_main("void main() { print_int(2 + 3 * 4); }")
        assert out == ["14"]

    def test_parentheses_override(self):
        _, out = run_main("void main() { print_int((2 + 3) * 4); }")
        assert out == ["20"]

    def test_unary_minus_and_not(self):
        _, out = run_main("void main() { print_int(-5 + !0); }")
        assert out == ["-4"]

    def test_else_if_chain(self):
        source = """
        void main() {
            int x = 2;
            if (x == 1) { print_int(1); }
            else if (x == 2) { print_int(2); }
            else { print_int(3); }
        }
        """
        _, out = run_main(source)
        assert out == ["2"]

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("void main() { int x = 1 }")

    def test_missing_paren(self):
        with pytest.raises(ParseError):
            parse("void main( { }")

    def test_global_with_negative_init(self):
        source = "int g = -3;\nvoid main() { print_int(g); }"
        _, out = run_main(source)
        assert out == ["-3"]

    def test_extern_declaration(self):
        source = """
        extern int open(str path, str flags);
        void main() { print_int(open("/nope", "r")); }
        """
        code, out = run_main(source)
        assert int(out[0]) < 0  # ENOENT as negative errno

    def test_for_without_clauses_needs_break(self):
        source = """
        void main() {
            int i = 0;
            for (;;) {
                i = i + 1;
                if (i == 3) { break; }
            }
            print_int(i);
        }
        """
        _, out = run_main(source)
        assert out == ["3"]


def _nested_parens(levels):
    return "int main() { return %s1%s; }" % ("(" * levels, ")" * levels)


def _chain(terms):
    return "int main() { return %s; }" % "+".join(["1"] * terms)


def _else_if_chain(links):
    links = "".join(" else if (x) { x = 2; }" for _ in range(links))
    return f"int main() {{ int x = 0; if (x) {{ x = 1; }}{links} return x; }}"


def _nested_blocks(levels):
    return "int main() { %s return 0; }" % ("{" * levels + "}" * levels)


class TestNestingLimit:
    """Nesting past ``MAX_NESTING`` is a positioned ParseError.

    Each builder takes the size at which its deepest construct sits
    exactly at the limit (the function body is one level; the else-if
    chain's first ``if`` block another).  Without the limit, sizes like
    247 parentheses or a 495-term sum exhaust Python's stack in the
    recursive stages after parsing.
    """

    CASES = {
        "parentheses": (_nested_parens, MAX_NESTING - 1),
        "operator chain": (_chain, MAX_NESTING),
        "else-if chain": (_else_if_chain, MAX_NESTING - 2),
        "blocks": (_nested_blocks, MAX_NESTING - 1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_at_the_limit_the_program_compiles(self, case):
        build, limit = self.CASES[case]
        spec = ProgramSpec(
            name="deep", description="nesting at the limit",
            source=build(limit), permitted=CapabilitySet.empty(),
        )
        analyzer = PrivAnalyzer()
        module, _, _ = analyzer.compile(spec)
        chrono, _, _ = analyzer.run_dynamic(spec, module)
        assert chrono.total > 0

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_past_the_limit_is_a_positioned_parse_error(self, case):
        build, limit = self.CASES[case]
        message = f"nesting deeper than {MAX_NESTING} levels"
        with pytest.raises(ParseError, match=message) as raised:
            compile_source(build(limit + 1))
        assert raised.value.token.pos.line == 1
        assert raised.value.token.kind == "op"

    def test_the_old_crash_sizes_are_parse_errors(self):
        for source in (
            _nested_parens(247), _chain(495), _else_if_chain(329), _nested_blocks(494),
        ):
            with pytest.raises(ParseError):
                compile_source(source)


class TestSema:
    def test_undeclared_variable(self):
        with pytest.raises(SemaError, match="undeclared"):
            compile_source("void main() { x = 1; }")

    def test_use_before_declaration(self):
        with pytest.raises(SemaError, match="undeclared"):
            compile_source("void main() { int y = x; }")

    def test_redeclaration_in_scope(self):
        with pytest.raises(SemaError, match="redeclaration"):
            compile_source("void main() { int x; int x; }")

    def test_shadowing_in_inner_scope_allowed(self):
        source = """
        void main() {
            int x = 1;
            if (x == 1) {
                int y = 2;
                print_int(y);
            }
            print_int(x);
        }
        """
        _, out = run_main(source)
        assert out == ["2", "1"]

    def test_break_outside_loop(self):
        with pytest.raises(SemaError, match="break outside"):
            compile_source("void main() { break; }")

    def test_void_return_with_value(self):
        with pytest.raises(SemaError, match="void function returns a value"):
            compile_source("void main() { return 1; }")

    def test_nonvoid_return_without_value(self):
        with pytest.raises(SemaError, match="returns nothing"):
            compile_source("int f() { return; } void main() { }")

    def test_arity_mismatch_for_defined_function(self):
        with pytest.raises(SemaError, match="passes 1 args"):
            compile_source("int f(int a, int b) { return a; } void main() { f(1); }")

    def test_address_of_unknown_function(self):
        with pytest.raises(SemaError, match="no such function"):
            compile_source("void main() { fnptr p = &missing; }")

    def test_assignment_to_constant(self):
        with pytest.raises(SemaError, match="constant"):
            compile_source("void main() { CAP_SETUID = 1; }")

    def test_shadowing_constant_rejected(self):
        with pytest.raises(SemaError, match="shadows a builtin"):
            compile_source("void main() { int SIGKILL = 1; }")

    def test_duplicate_function(self):
        with pytest.raises(SemaError, match="duplicate function"):
            compile_source("void f() { } void f() { } void main() { }")

    def test_all_errors_reported_together(self):
        source = "void main() { x = 1; y = 2; }"
        with pytest.raises(SemaError) as excinfo:
            compile_source(source)
        assert len(excinfo.value.problems) == 2

    def test_builtin_constants_cover_caps_and_signals(self):
        constants = builtin_constants()
        assert constants["CAP_SETUID"] == 1 << 7
        assert constants["SIGKILL"] == 9
        assert constants["KEEP"] == -1


class TestExecution:
    def test_fibonacci_recursion(self):
        source = """
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        void main() { print_int(fib(10)); }
        """
        _, out = run_main(source)
        assert out == ["55"]

    def test_while_loop_sum(self):
        source = """
        void main() {
            int i = 0;
            int total = 0;
            while (i < 100) { total = total + i; i = i + 1; }
            print_int(total);
        }
        """
        _, out = run_main(source)
        assert out == ["4950"]

    def test_continue(self):
        source = """
        void main() {
            int total = 0;
            int i;
            for (i = 0; i < 10; i = i + 1) {
                if (i % 2 == 0) { continue; }
                total = total + i;
            }
            print_int(total);
        }
        """
        _, out = run_main(source)
        assert out == ["25"]

    def test_short_circuit_and_skips_rhs(self):
        source = """
        int touched;
        int touch() { touched = 1; return 1; }
        void main() {
            touched = 0;
            if (0 == 1 && touch() == 1) { print_int(99); }
            print_int(touched);
        }
        """
        _, out = run_main(source)
        assert out == ["0"]

    def test_short_circuit_or_skips_rhs(self):
        source = """
        int touched;
        int touch() { touched = 1; return 1; }
        void main() {
            touched = 0;
            if (1 == 1 || touch() == 1) { print_int(7); }
            print_int(touched);
        }
        """
        _, out = run_main(source)
        assert out == ["7", "0"]

    def test_function_pointer_dispatch(self):
        source = """
        int double_it(int x) { return x * 2; }
        int negate(int x) { return -x; }
        void main() {
            fnptr op = &double_it;
            print_int(op(21));
            op = &negate;
            print_int(op(21));
        }
        """
        _, out = run_main(source)
        assert out == ["42", "-21"]

    def test_globals_shared_across_functions(self):
        source = """
        int counter;
        void bump() { counter = counter + 1; }
        void main() {
            counter = 0;
            bump(); bump(); bump();
            print_int(counter);
        }
        """
        _, out = run_main(source)
        assert out == ["3"]

    def test_division_and_modulo_c_semantics(self):
        source = """
        void main() {
            print_int(-7 / 2);
            print_int(-7 % 2);
            print_int(7 / -2);
        }
        """
        _, out = run_main(source)
        assert out == ["-3", "-1", "-3"]  # truncation toward zero

    def test_argv_and_stdin(self):
        source = """
        void main() {
            print_str(arg_str(0));
            print_str(read_line());
        }
        """
        _, out = run_main(source, argv=["hello"], stdin=["typed"])
        assert out == ["hello", "typed"]

    def test_exit_code(self):
        code, _ = run_main("void main() { exit(3); }")
        assert code == 3

    def test_string_helpers(self):
        source = """
        void main() {
            str joined = strcat("a:b", ":c");
            print_str(str_field(joined, 1, ":"));
            print_int(strlen(joined));
            print_int(streq(joined, "a:b:c"));
        }
        """
        _, out = run_main(source)
        assert out == ["b", "5", "1"]

    def test_statement_after_return_dropped(self):
        source = """
        int f() {
            return 1;
            print_int(999);
        }
        void main() { print_int(f()); }
        """
        _, out = run_main(source)
        assert out == ["1"]
