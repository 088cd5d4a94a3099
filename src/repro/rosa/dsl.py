"""A Maude-style textual input format for ROSA queries.

The paper's Figures 2 and 4 show ROSA's inputs as Maude terms: an object
configuration followed by ``=>*`` and a goal.  This module parses that
concrete syntax (lightly regularised) so queries can live in plain-text
files, exactly as the original tool's users wrote them:

.. code-block:: text

    search in UNIX :
      < 1 : Process | euid : 10 , ruid : 11 , suid : 12 ,
                      egid : 10 , rgid : 11 , sgid : 12 ,
                      state : run , rdfset : empty , wrfset : empty >
      < 2 : Dir  | name : "/etc", perms : rwxrwxrwx, inode : 3,
                   owner : 40 , group : 41 >
      < 3 : File | name : "/etc/passwd", perms : ---------,
                   owner : 40 , group : 41 >
      < 4 : User | uid : 10 >
      open(1, 3, r, empty)
      setuid(1, -1, CapSetuid)
      chown(1, -1, -1, 41, CapChown)
      chmod(1, -1, rwxrwxrwx, empty)
    =>* such that 3 in rdfset(1) .

Supported goal conditions (after ``such that``):

* ``<fid> in rdfset(<pid>)`` / ``<fid> in wrfset(<pid>)``
* ``bound(<pid>) < 1024`` — a socket of pid bound to a privileged port
* ``state(<pid>) == dead``
* ``owner(<fid>) == <uid>``

Permission masks are written in symbolic ``rwxr-x---`` form or octal
(``0o750``); capability lists use the paper's camel-case names, with
``empty`` for the empty set.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.caps import CapabilitySet
from repro.rewriting import Configuration, Msg, Obj
from repro.rosa import goals, model
from repro.rosa.query import RosaQuery
from repro.rosa.syscalls import KEEP, O_RDONLY, O_RDWR, O_WRONLY


class DslError(ValueError):
    """A syntax or semantic error in a ROSA input file."""


# -- lexical helpers ----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<string>"[^"]*")
  | (?P<symbol><|>|\(|\)|\||,|:|=>\*|\.)
  | (?P<word>[^\s<>()|,:"]+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> List[str]:
    # Strip Maude-style comments (*** to end of line).
    lines = [line.split("***")[0] for line in text.splitlines()]
    tokens: List[str] = []
    for match in _TOKEN_RE.finditer("\n".join(lines)):
        tokens.append(match.group(0))
    return tokens


def parse_perm_mask(text: str) -> int:
    """``rwxr-x---`` or octal text to a mode integer.

    The paper writes permission bits with spaces (``r w x r w x r w x``);
    callers should join those before reaching here.
    """
    text = text.strip()
    if re.fullmatch(r"0o[0-7]+", text):
        return int(text[2:], 8)
    if re.fullmatch(r"[0-7]{3,4}", text):
        return int(text, 8)
    if re.fullmatch(r"[rwx-]{9}", text):
        mask = 0
        for index, (char, expected) in enumerate(zip(text, "rwxrwxrwx")):
            if char == expected:
                mask |= 1 << (8 - index)
            elif char != "-":
                raise DslError(f"bad permission character {char!r} in {text!r}")
        return mask
    raise DslError(f"cannot parse permission mask {text!r}")


def render_perm_mask(mask: int) -> str:
    """The inverse of :func:`parse_perm_mask`, symbolic form."""
    chars = []
    for index, expected in enumerate("rwxrwxrwx"):
        chars.append(expected if mask & (1 << (8 - index)) else "-")
    return "".join(chars)


def parse_caps_list(words: List[str]) -> frozenset:
    """Capability names (camel case) or ``empty`` to a frozenset."""
    if words == ["empty"] or not words:
        return frozenset()
    return CapabilitySet.of(*words).as_frozenset()


# -- the parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: List[str]) -> None:
        self.tokens = tokens
        self.index = 0

    @property
    def current(self) -> Optional[str]:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def advance(self) -> str:
        token = self.current
        if token is None:
            raise DslError("unexpected end of input")
        self.index += 1
        return token

    def expect(self, token: str) -> None:
        got = self.advance()
        if got != token:
            raise DslError(f"expected {token!r}, got {got!r}")

    def accept(self, token: str) -> bool:
        if self.current == token:
            self.index += 1
            return True
        return False

    # -- top level -------------------------------------------------------------

    def parse_query(self, name: str) -> RosaQuery:
        # Optional "search in UNIX :" header.
        if self.current == "search":
            self.advance()
            self.expect("in")
            self.expect("UNIX")
            self.expect(":")
        elements: List = []
        while self.current is not None and self.current != "=>*":
            if self.current == "<":
                elements.append(self.parse_object())
            else:
                elements.append(self.parse_message())
        goal = goals.any_of()  # default: nothing (never matches)
        if self.accept("=>*"):
            goal = self.parse_goal()
        if self.current == ".":
            self.advance()
        return RosaQuery(name, Configuration(elements), goal)

    # -- objects -----------------------------------------------------------------

    def parse_object(self) -> Obj:
        self.expect("<")
        oid = self._int(self.advance())
        self.expect(":")
        cls = self.advance()
        self.expect("|")
        attrs: Dict[str, List[str]] = {}
        current_key: Optional[str] = None
        buffer: List[str] = []
        while True:
            token = self.advance()
            if token == ">":
                if current_key is not None:
                    attrs[current_key] = buffer
                break
            if token == ",":
                if current_key is not None:
                    attrs[current_key] = buffer
                current_key, buffer = None, []
                continue
            if token == ":" and current_key is None and buffer:
                current_key = buffer[-1]
                buffer = []
                continue
            buffer.append(token)
        return self._build_object(oid, cls, attrs)

    def _build_object(self, oid: int, cls: str, attrs: Dict[str, List[str]]) -> Obj:
        def field(key: str, default=None):
            if key in attrs:
                return attrs[key]
            if default is not None:
                return default
            raise DslError(f"object {oid} ({cls}) missing attribute {key!r}")

        def int_field(key: str, default=None) -> int:
            return self._int(field(key, default)[0])

        def set_field(key: str) -> frozenset:
            words = field(key, ["empty"])
            if words == ["empty"]:
                return frozenset()
            return frozenset(self._int(word) for word in words)

        if cls == "Process":
            return model.process(
                oid,
                euid=int_field("euid"),
                ruid=int_field("ruid"),
                suid=int_field("suid"),
                egid=int_field("egid"),
                rgid=int_field("rgid"),
                sgid=int_field("sgid"),
                state=field("state", ["run"])[0],
                rdfset=set_field("rdfset"),
                wrfset=set_field("wrfset"),
                supplementary=set_field("groups"),
            )
        if cls == "File":
            return model.file_obj(
                oid,
                name=self._string(field("name")[0]),
                owner=int_field("owner"),
                group=int_field("group"),
                perms=parse_perm_mask("".join(field("perms"))),
            )
        if cls == "Dir":
            return model.dir_entry(
                oid,
                name=self._string(field("name")[0]),
                owner=int_field("owner"),
                group=int_field("group"),
                perms=parse_perm_mask("".join(field("perms"))),
                inode=int_field("inode"),
            )
        if cls == "Socket":
            pid_words = attrs.get("owner_pid") or attrs.get("owner")
            if pid_words is None:
                raise DslError(f"object {oid} (Socket) missing attribute 'owner_pid'")
            return model.socket_obj(
                oid,
                owner_pid=self._int(pid_words[0]),
                port=int_field("port", ["0"]),
            )
        if cls == "User":
            return model.user(oid, int_field("uid"))
        if cls == "Group":
            return model.group(oid, int_field("gid"))
        if cls == "Port":
            return model.port_obj(oid, int_field("port"))
        raise DslError(f"unknown object class {cls!r}")

    # -- messages ---------------------------------------------------------------------

    #: name -> (positional arg kinds before the trailing capability list)
    _MESSAGE_SHAPES = {
        "open": ("int", "int", "mode"),
        "setuid": ("int", "int"),
        "seteuid": ("int", "int"),
        "setresuid": ("int", "int", "int", "int"),
        "setgid": ("int", "int"),
        "setegid": ("int", "int"),
        "setresgid": ("int", "int", "int", "int"),
        "kill": ("int", "int", "int"),
        "chmod": ("int", "int", "perms"),
        "fchmod": ("int", "int", "perms"),
        "chown": ("int", "int", "int", "int"),
        "fchown": ("int", "int", "int", "int"),
        "unlink": ("int", "int"),
        "creat": ("int", "int", "string", "perms"),
        "link": ("int", "int", "int", "string"),
        "rename": ("int", "int", "string"),
        "socket": ("int",),
        "bind": ("int", "int", "int"),
        "connect": ("int", "int", "int"),
    }

    def parse_message(self) -> Msg:
        name = self.advance()
        if name not in self._MESSAGE_SHAPES:
            raise DslError(f"unknown system call {name!r}")
        self.expect("(")
        raw_args: List[List[str]] = [[]]
        depth = 1
        while depth:
            token = self.advance()
            if token == "(":
                depth += 1
            elif token == ")":
                depth -= 1
                continue
            elif token == "," and depth == 1:
                raw_args.append([])
                continue
            if depth:
                raw_args[-1].append(token)
        shape = self._MESSAGE_SHAPES[name]
        if len(raw_args) < len(shape):
            raise DslError(
                f"{name} expects at least {len(shape)} arguments, got {len(raw_args)}"
            )
        positional = []
        for kind, words in zip(shape, raw_args):
            positional.append(self._convert_arg(kind, words))
        caps_words = [word for group in raw_args[len(shape):] for word in group]
        caps = parse_caps_list(caps_words)
        return Msg(name, *positional, caps)

    def _convert_arg(self, kind: str, words: List[str]):
        text = "".join(words)
        if kind == "int":
            if text == "keep":
                return KEEP
            return self._int(text)
        if kind == "mode":
            # Open mode: "r - -" styles collapse to r/w flags.
            flags = set(text.replace("-", ""))
            if flags == {"r"}:
                return O_RDONLY
            if flags == {"w"}:
                return O_WRONLY
            if flags in ({"r", "w"}, set("rw")):
                return O_RDWR
            raise DslError(f"cannot parse open mode {text!r}")
        if kind == "perms":
            return parse_perm_mask(text)
        if kind == "string":
            return self._string(text)
        raise DslError(f"unknown argument kind {kind!r}")  # pragma: no cover

    # -- goals -------------------------------------------------------------------------

    def parse_goal(self):
        # Allow either "such that <cond>" directly or a Z:Configuration
        # don't-care pattern before it (as in Figure 4), which we skip.
        while self.current is not None and self.current != "such":
            self.advance()
        if self.current is None:
            raise DslError("missing 'such that' goal condition")
        self.expect("such")
        self.expect("that")
        words: List[str] = []
        while self.current is not None and self.current != ".":
            words.append(self.advance())
        return parse_goal_condition(" ".join(words))

    # -- scalars -----------------------------------------------------------------------

    @staticmethod
    def _int(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise DslError(f"expected an integer, got {text!r}") from None

    @staticmethod
    def _string(text: str) -> str:
        if text.startswith('"') and text.endswith('"'):
            return text[1:-1]
        return text


_GOAL_PATTERNS = [
    (
        re.compile(r"^(\d+)\s+in\s+rdfset\s*\(\s*(\d+)\s*\)$"),
        lambda m: goals.file_opened_for_read(int(m.group(1)), pid=int(m.group(2))),
    ),
    (
        re.compile(r"^(\d+)\s+in\s+wrfset\s*\(\s*(\d+)\s*\)$"),
        lambda m: goals.file_opened_for_write(int(m.group(1)), pid=int(m.group(2))),
    ),
    (
        re.compile(r"^bound\s*\(\s*(\d+)\s*\)\s*<\s*(\d+)$"),
        lambda m: goals.socket_bound_to_privileged_port(
            pid=int(m.group(1)), bound=int(m.group(2))
        ),
    ),
    (
        re.compile(r"^state\s*\(\s*(\d+)\s*\)\s*==\s*dead$"),
        lambda m: goals.process_terminated(int(m.group(1))),
    ),
    (
        re.compile(r"^owner\s*\(\s*(\d+)\s*\)\s*==\s*(\d+)$"),
        lambda m: goals.file_owner_is(int(m.group(1)), int(m.group(2))),
    ),
]


def parse_goal_condition(text: str):
    """Parse one ``such that`` condition into a goal predicate."""
    text = text.strip()
    for pattern, builder in _GOAL_PATTERNS:
        match = pattern.match(text)
        if match:
            return builder(match)
    raise DslError(f"unsupported goal condition: {text!r}")


def parse_query(text: str, name: str = "query") -> RosaQuery:
    """Parse a full ROSA input (Figure 2/4 style) into a query."""
    return _Parser(_tokenize(text)).parse_query(name)


# -- serialisation -------------------------------------------------------------------


def render_configuration(config: Configuration) -> str:
    """Render a configuration back into the DSL's concrete syntax."""
    lines = ["search in UNIX :"]
    for obj in sorted(config.objects(), key=lambda o: o.oid):
        lines.append("  " + _render_object(obj))
    for message in sorted(config.messages(), key=lambda m: (m.name, repr(m.args))):
        for _ in range(config.count(message)):
            lines.append("  " + _render_message(message))
    return "\n".join(lines)


def _render_object(obj: Obj) -> str:
    parts = []
    for key, value in sorted(obj.attrs.items()):
        if key == "perms":
            rendered = render_perm_mask(value)
        elif isinstance(value, frozenset):
            rendered = " ".join(str(item) for item in sorted(value)) or "empty"
        elif isinstance(value, str) and key == "name":
            rendered = f'"{value}"'
        else:
            rendered = str(value)
        parts.append(f"{key} : {rendered}")
    return f"< {obj.oid} : {obj.cls} | " + " , ".join(parts) + " >"


def _render_message(message: Msg) -> str:
    shape = _Parser._MESSAGE_SHAPES.get(message.name, ())
    rendered = []
    for index, arg in enumerate(message.args):
        kind = shape[index] if index < len(shape) else "caps"
        if isinstance(arg, frozenset):
            rendered.append(
                " ".join(str(cap) for cap in sorted(arg, key=str)) or "empty"
            )
        elif arg == KEEP:
            rendered.append("keep")
        elif kind == "perms":
            rendered.append(render_perm_mask(arg))
        elif kind == "string":
            rendered.append(f'"{arg}"')
        else:
            rendered.append(str(arg))
    return f"{message.name}(" + ", ".join(rendered) + ")"
