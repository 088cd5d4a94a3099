"""The PrivC lexer."""

from __future__ import annotations

import re
from typing import List

from repro.frontend.ast import Pos

KEYWORDS = frozenset(
    {
        "int",
        "str",
        "fnptr",
        "void",
        "if",
        "else",
        "while",
        "for",
        "return",
        "break",
        "continue",
        "extern",
    }
)

#: Multi-character operators, longest first so maximal munch works.
OPERATORS = [
    "&&",
    "||",
    "==",
    "!=",
    "<=",
    ">=",
    "<<",
    ">>",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "&",
    "|",
    "^",
    "(",
    ")",
    "{",
    "}",
    ",",
    ";",
]


class Token:
    """One lexeme: ``kind`` is "int", "string", "ident", "keyword", "op" or "eof".

    Compared and hashed by value over ``kind``, ``text``, ``value`` and
    ``pos``.  A plain slotted class rather than a frozen dataclass, whose
    constructor costs several times more, and it keeps its position as
    two ints: the lexer makes one per lexeme and no position object, and
    ``pos`` builds one on access (the parser asks only for the tokens
    that start a syntax node).  Nothing assigns to a token once it is
    made.
    """

    __slots__ = ("kind", "text", "value", "line", "column")

    def __init__(self, kind: str, text: str, value: int = 0, pos: Pos = Pos(0, 0)) -> None:
        self.kind = kind
        self.text = text
        self.value = value
        self.line = pos.line
        self.column = pos.column

    @property
    def pos(self) -> Pos:
        return Pos(self.line, self.column)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Token:
            return (
                self.kind == other.kind
                and self.text == other.text
                and self.value == other.value
                and self.line == other.line
                and self.column == other.column
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.text, self.value, self.line, self.column))

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r} @{self.line}:{self.column})"


class LexError(SyntaxError):
    def __init__(self, message: str, pos: Pos) -> None:
        super().__init__(f"{pos}: {message}")
        self.pos = pos


#: One match per lexeme, tried at the current index: the blanks before
#: it (never a newline, so they leave the line number alone), then one
#: alternative per token class.  A newline is a match of its own, so the
#: line count needs no ``str.count`` except inside strings and block
#: comments, and ``end`` takes trailing blanks.  Only an ASCII character
#: starts a lexeme.  ``str.isdigit``/``str.isalpha`` accept more than
#: ``[0-9]``/``[A-Za-z]``, so ``tokenize`` sends any other start character
#: to those predicates.  ``\w`` is exactly ``str.isalnum()`` plus ``_``,
#: so it continues identifiers whatever their first character.  The
#: string body is the unrolled ``[^"\\]*(?:\\.[^"\\]*)*`` loop, which
#: stays linear when the literal is unterminated.
_TOKEN = re.compile(
    r"""
    [ \t\r]*
    (?: (?P<newline>\n)
    | (?P<op>"""
    + "|".join(re.escape(op) for op in OPERATORS if op != "/")
    + r"""|/(?![/*]))
    | (?P<name>[A-Za-z_]\w*)
    | (?P<decimal>[1-9][0-9]*|0(?![xXoO])[0-9]*)
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*)
    | (?P<string>"(?P<body>[^"\\]*(?:\\[\s\S][^"\\]*)*)")
    | (?P<unterminated>")
    | (?P<hex>0[xX][0-9a-fA-F]*)
    | (?P<octal>0[oO][0-7]*)
    | (?P<end>\Z)
    )""",
    re.VERBOSE,
)
_BLANKS = re.compile(r"[ \t\r]*")
_NAME_REST = re.compile(r"\w*")
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def _unescape(match: "re.Match[str]") -> str:
    escape = match.group(1)
    return _ESCAPES.get(escape, escape)


def tokenize(source: str) -> List[Token]:
    """Turn PrivC source into a token list ending with an EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    new_token = Token.__new__
    match_at = _TOKEN.match
    line, line_start = 1, 0  # line number and index of its first character
    index = 0
    length = len(source)

    while index < length:
        match = match_at(source, index)
        if match is not None:
            kind = match.lastgroup
            start, end = match.span(kind)
            if kind == "newline":
                line += 1
                index = line_start = end
                continue
        else:
            # A non-ASCII start character: classify it as ``str`` does.
            start = _BLANKS.match(source, index).end()
            char = source[start]
            if char.isdigit():
                kind, end = "decimal", start
            elif char.isalpha():
                kind, end = "name", _NAME_REST.match(source, start).end()
            else:
                raise LexError(f"unexpected character {char!r}", Pos(line, start - line_start + 1))
        start_line, column = line, start - line_start + 1
        value = 0
        if kind == "op":
            text = source[start:end]
        elif kind == "name":
            text = source[start:end]
            kind = "keyword" if text in KEYWORDS else "ident"
        elif kind == "decimal":
            # A decimal literal runs on through non-ASCII digits too.
            while end < length and source[end].isdigit():
                end += 1
            text = source[start:end]
            try:
                value = int(text)
            except ValueError:  # a digit to ``str.isdigit`` but not to ``int``
                raise LexError(
                    f"integer literal {text!r} has a non-decimal digit", Pos(line, column)
                ) from None
            kind = "int"
        elif kind == "line_comment" or kind == "end":
            index = end
            continue
        elif kind == "hex" or kind == "octal":
            text = source[start:end]
            if end - start == 2:
                raise LexError(f"integer literal {text!r} has no digits", Pos(line, column))
            kind, value = "int", int(text[2:], 16 if kind == "hex" else 8)
        elif kind == "string" or kind == "block_comment":
            if kind == "string":
                text = match.group("body")
                if "\\" in text:
                    text = _ESCAPE.sub(_unescape, text)
            else:
                close = source.find("*/", end)
                if close < 0:
                    raise LexError("unterminated block comment", Pos(line, column))
                end = close + 2
            # Both may span lines; a token keeps the line it starts on.
            newlines = source.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", start, end) + 1
            if kind == "block_comment":
                index = end
                continue
        else:
            raise LexError("unterminated string literal", Pos(line, column))
        # ``Token.__init__`` inlined, without a ``Pos``: one per lexeme.
        token = new_token(Token)
        token.kind = kind
        token.text = text
        token.value = value
        token.line = start_line
        token.column = column
        append(token)
        index = end
    append(Token("eof", "", 0, Pos(line, index - line_start + 1)))
    return tokens
