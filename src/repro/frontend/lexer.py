"""The PrivC lexer."""

from __future__ import annotations

import dataclasses
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


@dataclasses.dataclass(frozen=True)
class Token:
    kind: str  # "int", "string", "ident", "keyword", "op", "eof"
    text: str
    value: int = 0
    pos: Pos = Pos(0, 0)

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r} @{self.pos})"


class LexError(SyntaxError):
    def __init__(self, message: str, pos: Pos) -> None:
        super().__init__(f"{pos}: {message}")
        self.pos = pos


#: One alternative per token class, tried at the current index.  Only an
#: ASCII character starts a match.  ``str.isdigit``/``str.isalpha`` accept
#: more than ``[0-9]``/``[A-Za-z]``, so ``tokenize`` sends any other start
#: character to those predicates.  ``\w`` is exactly ``str.isalnum()`` plus
#: ``_``, so it continues identifiers whatever their first character.  The
#: string body is the unrolled ``[^"\\]*(?:\\.[^"\\]*)*`` loop, which
#: stays linear when the literal is unterminated.
_TOKEN = re.compile(
    r"""
    (?P<space>[ \t\r\n]+)
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*)
    | (?P<string>"(?P<body>[^"\\]*(?:\\[\s\S][^"\\]*)*)")
    | (?P<unterminated>")
    | (?P<hex>0[xX][0-9a-fA-F]*)
    | (?P<octal>0[oO][0-7]*)
    | (?P<decimal>[0-9]+)
    | (?P<name>[A-Za-z_]\w*)
    | (?P<op>"""
    + "|".join(re.escape(op) for op in OPERATORS)
    + ")",
    re.VERBOSE,
)
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
    match_at = _TOKEN.match
    line, line_start = 1, 0  # line number and index of its first character
    index = 0
    length = len(source)

    while index < length:
        match = match_at(source, index)
        if match is not None:
            kind, end = match.lastgroup, match.end()
        else:
            # A non-ASCII start character: classify it as ``str`` does.
            char = source[index]
            if char.isdigit():
                kind, end = "decimal", index
            elif char.isalpha():
                kind, end = "name", _NAME_REST.match(source, index).end()
            else:
                raise LexError(f"unexpected character {char!r}", Pos(line, index - line_start + 1))
        if kind != "space" and kind != "line_comment":
            start = Pos(line, index - line_start + 1)
            if kind == "op":
                append(Token("op", source[index:end], pos=start))
            elif kind == "name":
                text = source[index:end]
                append(Token("keyword" if text in KEYWORDS else "ident", text, pos=start))
            elif kind == "decimal":
                # A decimal literal runs on through non-ASCII digits too.
                while end < length and source[end].isdigit():
                    end += 1
                text = source[index:end]
                append(Token("int", text, int(text), start))
            elif kind == "hex":
                text = source[index:end]
                append(Token("int", text, int(text, 16), start))
            elif kind == "octal":
                text = source[index:end]
                append(Token("int", text, int(text[2:], 8), start))
            elif kind == "string":
                body = match.group("body")
                if "\\" in body:
                    body = _ESCAPE.sub(_unescape, body)
                append(Token("string", body, pos=start))
            elif kind == "block_comment":
                close = source.find("*/", end)
                if close < 0:
                    raise LexError("unterminated block comment", start)
                end = close + 2
            else:
                raise LexError("unterminated string literal", start)
        newlines = source.count("\n", index, end)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", index, end) + 1
        index = end
    append(Token("eof", "", pos=Pos(line, index - line_start + 1)))
    return tokens
