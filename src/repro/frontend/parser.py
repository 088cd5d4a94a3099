"""The PrivC recursive-descent parser."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.frontend import ast
from repro.frontend.lexer import Token, tokenize

TYPE_NAMES = ("int", "str", "fnptr", "void")

#: Binary operator precedence (higher binds tighter), C-like.
PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}


#: How deep constructs may nest.  Each of these opens one level, held
#: while its contents are parsed: a block (a function body too), an
#: ``else if`` link, a parenthesised expression, a unary operator, a call's
#: argument list, and each binary operator chained onto one operand.  The
#: later stages walk the syntax tree recursively, so a deeper program
#: would exhaust Python's stack; past this limit the parser raises a
#: positioned :class:`ParseError` instead.
MAX_NESTING = 128

_VAR_TYPES = frozenset(("int", "str", "fnptr"))


class ParseError(SyntaxError):
    def __init__(self, message: str, token: Token) -> None:
        super().__init__(f"{token.pos}: {message} (got {token.kind} {token.text!r})")
        self.token = token


class Parser:
    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.index = 0
        #: The token at ``index``; the list ends with the EOF token, which
        #: is never consumed, so every other token has a successor.
        self.token = self.tokens[0]
        #: Open nesting levels (see :data:`MAX_NESTING`).
        self.depth = 0

    # -- token plumbing -----------------------------------------------------------

    def advance(self) -> Token:
        token = self.token
        if token.kind != "eof":
            self.index += 1
            self.token = self.tokens[self.index]
        return token

    def accept_op(self, text: str) -> bool:
        token = self.token
        if token.text == text and token.kind == "op":
            self.index += 1
            self.token = self.tokens[self.index]
            return True
        return False

    def expect_op(self, text: str) -> Token:
        token = self.token
        if token.text != text or token.kind != "op":
            raise ParseError(f"expected {text}", token)
        self.index += 1
        self.token = self.tokens[self.index]
        return token

    def expect(self, kind: str) -> Token:
        if self.token.kind != kind:
            raise ParseError(f"expected {kind}", self.token)
        return self.advance()

    def _nest(self, token: Token) -> int:
        """Open one nesting level at ``token``; returns the depth to restore."""
        depth = self.depth
        if depth >= MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", token)
        self.depth = depth + 1
        return depth

    # -- toplevel -------------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        globals_: List[ast.GlobalDecl] = []
        functions: List[ast.FuncDecl] = []
        while self.token.kind != "eof":
            token = self.token
            if token.kind == "keyword" and token.text == "extern":
                self.advance()
                functions.append(self._parse_extern())
                continue
            type_token = self.expect("keyword")
            if type_token.text not in TYPE_NAMES:
                raise ParseError("expected a type", type_token)
            name_token = self.expect("ident")
            token = self.token
            if token.text == "(" and token.kind == "op":
                functions.append(self._parse_function(type_token.text, name_token))
            else:
                globals_.append(self._parse_global(name_token))
        return ast.Program(globals_, functions)

    def _parse_extern(self) -> ast.FuncDecl:
        """``extern int open(str path, str flags);`` — explicit declaration."""
        type_token = self.expect("keyword")
        if type_token.text not in TYPE_NAMES:
            raise ParseError("expected a return type", type_token)
        name_token = self.expect("ident")
        params = self._parse_params()
        self.expect_op(";")
        return ast.FuncDecl(name_token.pos, type_token.text, name_token.text, params, None)

    def _parse_global(self, name_token: Token) -> ast.GlobalDecl:
        init = 0
        if self.accept_op("="):
            negative = self.accept_op("-")
            value_token = self.expect("int")
            init = -value_token.value if negative else value_token.value
        self.expect_op(";")
        return ast.GlobalDecl(name_token.pos, name_token.text, init)

    def _parse_function(self, return_type: str, name_token: Token) -> ast.FuncDecl:
        params = self._parse_params()
        body = self._parse_block()
        return ast.FuncDecl(name_token.pos, return_type, name_token.text, params, body)

    def _parse_params(self) -> List[Tuple[str, str]]:
        self.expect_op("(")
        params: List[Tuple[str, str]] = []
        if not self.accept_op(")"):
            while True:
                type_token = self.expect("keyword")
                if type_token.text not in _VAR_TYPES:
                    raise ParseError("expected a parameter type", type_token)
                param_name = self.expect("ident")
                params.append((type_token.text, param_name.text))
                if not self.accept_op(","):
                    break
            self.expect_op(")")
        return params

    # -- statements --------------------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        open_token = self.expect_op("{")
        depth = self._nest(open_token)
        statements: List[ast.Stmt] = []
        append = statements.append
        parse_statement = self._parse_statement
        while True:
            token = self.token
            if token.text == "}" and token.kind == "op":
                break
            append(parse_statement())
        self.index += 1
        self.token = self.tokens[self.index]
        self.depth = depth
        return ast.Block(open_token.pos, statements)

    def _parse_statement(self) -> ast.Stmt:
        token = self.token
        kind = token.kind
        if kind == "keyword":
            text = token.text
            if text in _VAR_TYPES:
                return self._parse_vardecl()
            if text == "if":
                return self._parse_if()
            if text == "while":
                return self._parse_while()
            if text == "for":
                return self._parse_for()
            if text == "return":
                self.advance()
                value = None
                if self.token.text != ";" or self.token.kind != "op":
                    value = self._parse_expr()
                self.expect_op(";")
                return ast.Return(token.pos, value)
            if text == "break":
                self.advance()
                self.expect_op(";")
                return ast.Break(token.pos)
            if text == "continue":
                self.advance()
                self.expect_op(";")
                return ast.Continue(token.pos)
            raise ParseError("unexpected keyword", token)
        if kind == "op" and token.text == "{":
            return self._parse_block()
        return self._parse_simple_statement(expect_semicolon=True)

    def _parse_vardecl(self) -> ast.VarDecl:
        type_token = self.advance()
        name_token = self.expect("ident")
        init = None
        if self.accept_op("="):
            init = self._parse_expr()
        self.expect_op(";")
        return ast.VarDecl(type_token.pos, type_token.text, name_token.text, init)

    def _parse_if(self) -> ast.If:
        token = self.advance()  # the ``if`` keyword
        self.expect_op("(")
        cond = self._parse_expr()
        self.expect_op(")")
        then_body = self._parse_block()
        else_body: Optional[ast.Block] = None
        else_token = self.token
        if else_token.text == "else" and else_token.kind == "keyword":
            self.advance()
            if self.token.text == "if" and self.token.kind == "keyword":
                # else-if chains: wrap the nested if in a synthetic block.
                depth = self._nest(self.token)
                nested = self._parse_if()
                self.depth = depth
                else_body = ast.Block(nested.pos, [nested])
            else:
                else_body = self._parse_block()
        return ast.If(token.pos, cond, then_body, else_body)

    def _parse_while(self) -> ast.While:
        token = self.advance()  # the ``while`` keyword
        self.expect_op("(")
        cond = self._parse_expr()
        self.expect_op(")")
        return ast.While(token.pos, cond, self._parse_block())

    def _parse_for(self) -> ast.For:
        token = self.advance()  # the ``for`` keyword
        self.expect_op("(")
        init: Optional[ast.Stmt] = None
        if not self.accept_op(";"):
            if self.token.kind == "keyword" and self.token.text in _VAR_TYPES:
                init = self._parse_vardecl()  # consumes the ';'
            else:
                init = self._parse_simple_statement(expect_semicolon=True)
        cond = None if self.token.text == ";" and self.token.kind == "op" else self._parse_expr()
        self.expect_op(";")
        step = None
        if self.token.text != ")" or self.token.kind != "op":
            step = self._parse_simple_statement(expect_semicolon=False)
        self.expect_op(")")
        return ast.For(token.pos, init, cond, step, self._parse_block())

    def _parse_simple_statement(self, expect_semicolon: bool) -> ast.Stmt:
        """Assignment or expression statement."""
        token = self.token
        following = self.tokens[self.index + 1] if token.kind == "ident" else None
        if following is not None and following.text == "=" and following.kind == "op":
            # Plain assignment `name = expr` (== is a distinct token).
            self.index += 2
            self.token = self.tokens[self.index]
            value = self._parse_expr()
            if expect_semicolon:
                self.expect_op(";")
            return ast.Assign(token.pos, token.text, value)
        expr = self._parse_expr()
        if expect_semicolon:
            self.expect_op(";")
        return ast.ExprStmt(token.pos, expr)

    # -- expressions (precedence climbing) ---------------------------------------------

    def _parse_expr(self, min_precedence: int = 1) -> ast.Expr:
        lhs = self._parse_unary()
        token = self.token
        if token.kind != "op":
            return lhs
        precedence = PRECEDENCE.get(token.text, 0)
        if precedence < min_precedence:
            return lhs
        depth = self.depth
        while True:
            # Each operator chained onto ``lhs`` nests it one level deeper.
            self._nest(token)
            self.index += 1
            self.token = self.tokens[self.index]
            rhs = self._parse_expr(precedence + 1)
            lhs = ast.Binary(token.pos, token.text, lhs, rhs)
            token = self.token
            if token.kind != "op":
                break
            precedence = PRECEDENCE.get(token.text, 0)
            if precedence < min_precedence:
                break
        self.depth = depth
        return lhs

    def _parse_unary(self) -> ast.Expr:
        """A unary expression: prefix operators, a primary, call suffixes."""
        token = self.token
        kind = token.kind
        if kind == "op":
            text = token.text
            if text == "-" or text == "!":
                depth = self._nest(token)
                self.index += 1
                self.token = self.tokens[self.index]
                operand = self._parse_unary()
                self.depth = depth
                return ast.Unary(token.pos, text, operand)
            if text == "&":
                self.advance()
                name_token = self.expect("ident")
                return ast.AddrOf(token.pos, name_token.text)
            if text == "(":
                depth = self._nest(token)
                self.index += 1
                self.token = self.tokens[self.index]
                expr = self._parse_expr()
                self.expect_op(")")
                self.depth = depth
            else:
                raise ParseError("expected an expression", token)
        else:
            if kind == "ident":
                expr = ast.Ident(token.pos, token.text)
            elif kind == "int":
                expr = ast.IntLit(token.pos, token.value)
            elif kind == "string":
                expr = ast.StrLit(token.pos, token.text)
            else:
                raise ParseError("expected an expression", token)
            self.index += 1
            self.token = self.tokens[self.index]
        # Call suffixes; each nests the callee one level deeper.
        open_token = self.token
        if open_token.text != "(" or open_token.kind != "op":
            return expr
        depth = self.depth
        while open_token.text == "(" and open_token.kind == "op":
            self._nest(open_token)
            self.index += 1
            self.token = self.tokens[self.index]
            args: List[ast.Expr] = []
            if not self.accept_op(")"):
                while True:
                    args.append(self._parse_expr())
                    if not self.accept_op(","):
                        break
                self.expect_op(")")
            expr = ast.CallExpr(open_token.pos, expr, args)
            open_token = self.token
        self.depth = depth
        return expr


def parse(source: str) -> ast.Program:
    """Parse PrivC source into an AST."""
    return Parser(source).parse_program()
