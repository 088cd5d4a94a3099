"""Differential test: the regex-driven PrivC lexer against a reference.

``reference_tokenize`` is the original character-at-a-time lexer, kept
here as the specification.  It is verbatim but for two fixes, where the
original let ``int()`` raise a bare ``ValueError``: a ``0x`` or ``0o``
prefix with no digits after it, and a decimal literal with a character
``str.isdigit`` accepts but ``int()`` does not (``12²``), are each a
``LexError`` at the literal's position.  The production lexer in
:mod:`repro.frontend.lexer` drives one compiled master regex instead;
on every input the two must produce the same token list, or raise the
same exception type with the same message (and, for ``LexError``, the
same position).

The alphabet leans on PrivC syntax and adds the characters where a
regex and ``str.isdigit``/``isalpha``/``isalnum`` disagree: ``²`` is a
digit to ``str.isdigit`` but not to ``\\d``, ``٣`` is a non-ASCII decimal
digit, ``½`` is numeric but neither a digit nor a letter, ``é`` is a
non-ASCII letter.
"""

from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend.ast import Pos
from repro.frontend.lexer import KEYWORDS, OPERATORS, LexError, Token, tokenize


def reference_tokenize(source: str) -> List[Token]:
    """The original PrivC lexer: one ``advance`` per character."""
    tokens: List[Token] = []
    line, column = 1, 1
    index = 0
    length = len(source)

    def pos() -> Pos:
        return Pos(line, column)

    def advance(count: int = 1) -> None:
        nonlocal index, line, column
        for _ in range(count):
            if index < length and source[index] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            index += 1

    while index < length:
        char = source[index]
        # whitespace
        if char in " \t\r\n":
            advance()
            continue
        # comments: // and /* */
        if source.startswith("//", index):
            while index < length and source[index] != "\n":
                advance()
            continue
        if source.startswith("/*", index):
            start = pos()
            advance(2)
            while index < length and not source.startswith("*/", index):
                advance()
            if index >= length:
                raise LexError("unterminated block comment", start)
            advance(2)
            continue
        # string literal
        if char == '"':
            start = pos()
            advance()
            chars: List[str] = []
            while index < length and source[index] != '"':
                if source[index] == "\\":
                    advance()
                    if index >= length:
                        break
                    escape = source[index]
                    chars.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(escape, escape))
                    advance()
                else:
                    chars.append(source[index])
                    advance()
            if index >= length:
                raise LexError("unterminated string literal", start)
            advance()  # closing quote
            tokens.append(Token("string", "".join(chars), pos=start))
            continue
        # number (decimal, hex 0x, octal 0o — file modes read naturally)
        if char.isdigit():
            start = pos()
            begin = index
            if source.startswith("0x", index) or source.startswith("0X", index):
                advance(2)
                while index < length and source[index] in "0123456789abcdefABCDEF":
                    advance()
                text = source[begin:index]
                if len(text) == 2:
                    raise LexError(f"integer literal {text!r} has no digits", start)
                value = int(text, 16)
            elif source.startswith("0o", index) or source.startswith("0O", index):
                advance(2)
                while index < length and source[index] in "01234567":
                    advance()
                text = source[begin:index]
                if len(text) == 2:
                    raise LexError(f"integer literal {text!r} has no digits", start)
                value = int(text[2:], 8)
            else:
                while index < length and source[index].isdigit():
                    advance()
                text = source[begin:index]
                try:
                    value = int(text)
                except ValueError:
                    raise LexError(
                        f"integer literal {text!r} has a non-decimal digit", start
                    ) from None
            tokens.append(Token("int", text, value, start))
            continue
        # identifier / keyword
        if char.isalpha() or char == "_":
            start = pos()
            begin = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                advance()
            text = source[begin:index]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, pos=start))
            continue
        # operator
        for op in OPERATORS:
            if source.startswith(op, index):
                start = pos()
                advance(len(op))
                tokens.append(Token("op", op, pos=start))
                break
        else:
            raise LexError(f"unexpected character {char!r}", pos())
    tokens.append(Token("eof", "", pos=pos()))
    return tokens


def _outcome(lexer, source):
    """Tokens, or the raised exception's type, message and position."""
    try:
        return "tokens", lexer(source)
    except LexError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "pos", None)


def assert_same(source):
    assert _outcome(tokenize, source) == _outcome(reference_tokenize, source), source


#: PrivC-heavy fragments plus the characters where regex classes and the
#: ``str`` predicates part ways.
FRAGMENTS = (
    ["int ", "str", "void", "while", "if", "else", "return", "extern", "x", "_y2", "CAP_SETUID"]
    + ["0", "7", "42", "0x", "0X1f", "0o", "0o755", "0b", "1e3"]
    + OPERATORS
    + [" ", "\t", "\r", "\n", "// c\n", "/* c */", "/*", "*/", "/", "*"]
    + ['"', '"s"', '"a\\n"', "\\", "\\\"", "'", "\f", "$"]
    + ["²", "٣", "½", "é", "ǅ", "Ⅻ"]
)

sources = st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join)


@settings(max_examples=400, deadline=None)
@given(sources)
def test_matches_reference_on_privc_fragments(source):
    assert_same(source)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet='ab_09xo²٣½é\\"/* \n+-=&|<>!;(){}', max_size=40))
def test_matches_reference_on_dense_alphabet(source):
    assert_same(source)


@pytest.mark.parametrize(
    "source",
    [
        "",
        "int x = 0x1F + 0o17 + 42;\n",
        "a /* multi\nline */ b\n  c",
        '"esc \\" \\n \\t \\\\ \\q" x',
        '"line\nbreak" y',
        "/* open",
        '"open',
        '"trailing \\',
        "0x",
        "0o",
        "0xg",
        "12²",
        "²",
        "½",
        "٣٣",
        "1٣",
        "0٣",
        "é1_x",
        "x²",
        "a½",
        "\f",
        "/*/ x",
        "///\n/",
        "a\r\nb",
    ],
)
def test_matches_reference_on_edge_cases(source):
    assert_same(source)


@pytest.mark.parametrize(
    "source,text,pos",
    [("12²", "12²", Pos(1, 1)), ("²", "²", Pos(1, 1)), ("x = 1²;", "1²", Pos(1, 5))],
)
def test_non_decimal_digit_is_a_positioned_lex_error(source, text, pos):
    for lexer in (tokenize, reference_tokenize):
        with pytest.raises(LexError) as caught:
            lexer(source)
        assert caught.value.pos == pos
        assert f"integer literal {text!r} has a non-decimal digit" in str(caught.value)


def test_study_programs_lex_identically():
    from repro.programs import ALL_PROGRAM_NAMES, spec_by_name

    for name in ALL_PROGRAM_NAMES:
        source = spec_by_name(name).source
        assert tokenize(source) == reference_tokenize(source), name
