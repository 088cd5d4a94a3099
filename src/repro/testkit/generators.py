"""Seeded case generators and the case→input builders.

Every generator is a pure function of a ``random.Random`` instance: the
same seed yields the same case, on any machine, forever.  Cases are
plain JSON-able dictionaries — *not* live objects — so a failing case
can be written to a repro file, shrunk structurally, and rebuilt
bit-identically at replay time.  The ``build_*`` functions turn cases
into the live inputs the oracles feed to paired implementations.

Four input domains are covered:

* **PrivC programs** (:func:`gen_program_case`) — a bounded statement/
  expression grammar over integer variables plus the intrinsic surface
  (``priv_*``, credential setters, file and socket syscalls).  Rendered
  programs always compile, always terminate (loops have literal trip
  counts) and always exit 0 from ``main``, so they run through the whole
  pipeline as well as through bare interpreters.
* **ROSA configurations** (:func:`gen_config_case`) — processes, users,
  groups, files, directory entries and wildcard syscall messages within
  bounded sizes, mirroring the paper's Figure 2 shape.
* **Attack query batches** (:func:`gen_batch_case`) — (attack ×
  capability set × credential tuple × syscall surface) combinations with
  picklable specs, exactly what the pipeline feeds the query engine.
* **Kernel syscall traces** (:func:`gen_trace_case`) — straight-line
  sequences of ``sys_*`` calls against a fresh simulated machine.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.caps import CapabilitySet
from repro.core.attacks import ALL_ATTACKS, ATTACKS_BY_ID, GID_KMEM
from repro.programs.common import ProgramSpec
from repro.rewriting import Configuration, Msg, SearchBudget
from repro.rosa import goals, model, syscalls
from repro.rosa.engine import QueryRequest

Case = Dict[str, Any]

#: Capabilities the generators draw from: the ones the paper's programs
#: and the modeled attacks actually exercise, so generated queries have
#: interesting (not vacuously invulnerable) state spaces.
CAP_POOL = (
    "CapChown",
    "CapDacOverride",
    "CapDacReadSearch",
    "CapFowner",
    "CapKill",
    "CapNetBindService",
    "CapSetgid",
    "CapSetuid",
)

#: Uids/gids the generators draw from (see ``repro.oskernel.setup``).
UID_POOL = (0, 998, 1000, 1001, 2000)
GID_POOL = (0, 15, 42, 998, 1000, 1001)

#: ROSA message kinds a generated syscall surface may contain (the value
#: side of ``repro.core.extract.INTRINSIC_TO_ROSA``).
SURFACE_POOL = (
    "open_read",
    "open_write",
    "setuid",
    "seteuid",
    "setresuid",
    "setgid",
    "setegid",
    "setresgid",
    "setgroups",
    "kill",
    "chmod",
    "fchmod",
    "chown",
    "fchown",
    "unlink",
    "rename",
    "socket",
    "bind",
    "connect",
)


def subset(rng: random.Random, pool, low: int = 0, high: int = None) -> List:
    """A sorted random subset of ``pool`` with ``low``–``high`` elements.

    Unordered pools (sets, frozensets, dict views) are canonicalized
    before sampling: ``rng.sample`` picks by *position*, so a
    hash-ordered pool would make the same seed draw different elements
    under ``PYTHONHASHSEED`` variation — corpus builds must be
    byte-identical across interpreter launches.  Sequences keep the
    caller's order so existing seeds keep their draws.
    """
    items = list(pool) if isinstance(pool, (list, tuple)) else sorted(pool, key=str)
    high = len(items) if high is None else min(high, len(items))
    count = rng.randint(low, high)
    return sorted(rng.sample(items, count), key=str)


def gen_capset_names(rng: random.Random, max_size: int = 4) -> List[str]:
    """A random permitted capability set, as camel-case names."""
    return subset(rng, CAP_POOL, 0, max(1, max_size))


def gen_credentials(
    rng: random.Random,
) -> Tuple[List[int], List[int]]:
    """Random (ruid, euid, suid) and (rgid, egid, sgid) triples.

    Half the time the triple is uniform (a plain login shell); otherwise
    the three ids are drawn independently, covering the saved-id states
    privilege-separated servers pass through.
    """

    def triple(pool) -> List[int]:
        if rng.random() < 0.5:
            value = rng.choice(pool)
            return [value, value, value]
        return [rng.choice(pool) for _ in range(3)]

    return triple(UID_POOL), triple(GID_POOL)


# -- attack query batches ------------------------------------------------------


#: The share of query cases whose only way to read /dev/mem (root:kmem
#: 0640) is joining kmem with ``setgroups``.  Uniform draws almost never
#: assemble one (it takes ``CapSetgid``, ``setgroups`` and an open, and
#: no other way in), yet it is the one path through the abstract
#: pre-check's ``setgroups`` transfer.
GROUP_JOIN_SHARE = 0.1

#: Calls such a case may also hold: none of them opens /dev/mem for a
#: non-root, non-kmem process holding only ``CapSetgid``.
GROUP_JOIN_EXTRAS = (
    "open_write", "seteuid", "setuid", "setresuid", "chmod", "chown",
    "unlink", "rename", "kill",
)


def gen_query_case(rng: random.Random, max_size: int = 20) -> Case:
    """One (attack, caps, credentials, surface) question, as a case."""
    uids, gids = gen_credentials(rng)
    case = {
        "attack": rng.choice([attack.attack_id for attack in ALL_ATTACKS]),
        "caps": gen_capset_names(rng, max_size=3),
        "uids": uids,
        "gids": gids,
        "surface": subset(rng, SURFACE_POOL, 0, max(2, min(6, max_size // 3))),
        "repeat": rng.choice([1, 1, 1, 2]),
        "max_states": 20_000,
    }
    if rng.random() < GROUP_JOIN_SHARE:
        case["attack"] = 1
        case["caps"] = sorted(
            {"CapSetgid"} | set(subset(rng, ("CapKill", "CapNetBindService")))
        )
        case["uids"] = [rng.choice([uid for uid in UID_POOL if uid != 0])] * 3
        case["gids"] = [rng.choice([gid for gid in GID_POOL if gid != GID_KMEM])] * 3
        case["surface"] = sorted(
            {"open_read", "setgroups"} | set(subset(rng, GROUP_JOIN_EXTRAS, 0, 3))
        )
    return case


def gen_batch_case(rng: random.Random, max_size: int = 20) -> Case:
    """A batch of query cases, as the pipeline would submit them.

    Batches deliberately repeat cases sometimes: deduplication and cache
    sharing are part of the behaviour under test.
    """
    count = rng.randint(1, max(2, max_size // 5))
    queries = [gen_query_case(rng, max_size) for _ in range(count)]
    if len(queries) > 1 and rng.random() < 0.5:
        queries.append(dict(rng.choice(queries)))
    return {"queries": queries}


def build_query_request(case: Case) -> QueryRequest:
    """The live query and budget of one query case."""
    attack = ATTACKS_BY_ID[case["attack"]]
    caps = CapabilitySet(case["caps"])
    uids = tuple(case["uids"])
    gids = tuple(case["gids"])
    surface = frozenset(case["surface"])
    repeat = int(case.get("repeat", 1))
    budget = SearchBudget(max_states=int(case.get("max_states", 20_000)))
    return QueryRequest(
        query=attack.build_query(caps, uids, gids, surface, repeat=repeat),
        budget=budget,
    )


def build_batch_requests(case: Case) -> List[QueryRequest]:
    return [build_query_request(query_case) for query_case in case["queries"]]


# -- ROSA configurations -------------------------------------------------------


#: The message names :func:`gen_config_case` draws from.
CONFIG_MESSAGES = (
    "open_read",
    "open_write",
    "setuid",
    "seteuid",
    "setgid",
    "chmod",
    "chown",
    "kill",
    "unlink",
    "socket",
    "bind",
)

#: More message names a config case may hold (:func:`config_message`
#: builds them); tests and the ``prove`` oracle family add them.
EXTRA_CONFIG_MESSAGES = (
    "open_rdwr",
    "setresuid",
    "setegid",
    "setresgid",
    "setgroups",
    "fchmod",
    "fchown",
    "rename",
)


def gen_config_case(rng: random.Random, max_size: int = 20) -> Case:
    """A bounded random configuration: objects plus wildcard messages.

    Sizes are kept small enough that the reachable state space usually
    exhausts within a few thousand states — the rule-order property needs
    exhaustion to compare reachable sets, and the oracles need speed.
    """
    uids, gids = gen_credentials(rng)
    caps = gen_capset_names(rng, max_size=3)
    file_count = rng.randint(1, 2)
    files = [
        {
            "oid": 10 + index,
            "owner": rng.choice(UID_POOL),
            "group": rng.choice(GID_POOL),
            "perms": rng.choice([0o600, 0o640, 0o644, 0o000, 0o666]),
        }
        for index in range(file_count)
    ]
    dirs = []
    if rng.random() < 0.6:
        dirs.append(
            {
                "oid": 30,
                "owner": rng.choice(UID_POOL),
                "group": rng.choice(GID_POOL),
                "perms": rng.choice([0o755, 0o700, 0o711]),
                "inode": rng.choice(files)["oid"],
            }
        )
    message_count = rng.randint(1, max(2, min(4, max_size // 5)))
    messages = [rng.choice(CONFIG_MESSAGES) for _ in range(message_count)]
    return {
        "proc": {"uids": uids, "gids": gids},
        "caps": caps,
        "users": subset(rng, UID_POOL, 1, 3),
        "groups": subset(rng, GID_POOL, 1, 2),
        "files": files,
        "dirs": dirs,
        "ports": sorted(subset(rng, (22, 80, 8080), 0, 2)),
        "messages": messages,
        "max_states": 30_000,
    }


def build_configuration(case: Case) -> Configuration:
    """The live :class:`Configuration` of one config case."""
    pid = 1
    uids = case["proc"]["uids"]
    gids = case["proc"]["gids"]
    caps = frozenset(CapabilitySet(case["caps"]).as_frozenset())
    elements: List = [
        model.process(
            pid,
            ruid=uids[0], euid=uids[1], suid=uids[2],
            rgid=gids[0], egid=gids[1], sgid=gids[2],
        )
    ]
    for index, uid in enumerate(case["users"]):
        elements.append(model.user(40 + index, uid))
    for index, gid in enumerate(case["groups"]):
        elements.append(model.group(50 + index, gid))
    for entry in case["files"]:
        elements.append(
            model.file_obj(
                entry["oid"], name=f"/f{entry['oid']}",
                owner=entry["owner"], group=entry["group"], perms=entry["perms"],
            )
        )
    for entry in case["dirs"]:
        elements.append(
            model.dir_entry(
                entry["oid"], name=f"/d{entry['oid']}",
                owner=entry["owner"], group=entry["group"],
                perms=entry["perms"], inode=entry["inode"],
            )
        )
    for index, port in enumerate(case.get("ports", [])):
        elements.append(model.port_obj(60 + index, port))
    for name in case["messages"]:
        elements.append(config_message(name, pid, caps))
    return Configuration(elements)


def config_message(name: str, pid: int, caps) -> Msg:
    """One wildcard syscall message of a config case, by its name in
    :data:`CONFIG_MESSAGES` or :data:`EXTRA_CONFIG_MESSAGES`."""
    W = syscalls.WILDCARD
    KEEP = syscalls.KEEP
    builders = {
        "open_read": lambda: syscalls.sys_open(pid, W, syscalls.O_RDONLY, caps),
        "open_write": lambda: syscalls.sys_open(pid, W, syscalls.O_WRONLY, caps),
        "open_rdwr": lambda: syscalls.sys_open(pid, W, syscalls.O_RDWR, caps),
        "setuid": lambda: syscalls.sys_setuid(pid, W, caps),
        "seteuid": lambda: syscalls.sys_seteuid(pid, W, caps),
        "setresuid": lambda: syscalls.sys_setresuid(pid, KEEP, W, W, caps),
        "setgid": lambda: syscalls.sys_setgid(pid, W, caps),
        "setegid": lambda: syscalls.sys_setegid(pid, W, caps),
        "setresgid": lambda: syscalls.sys_setresgid(pid, W, W, KEEP, caps),
        "setgroups": lambda: syscalls.sys_setgroups(pid, W, caps),
        "chmod": lambda: syscalls.sys_chmod(pid, W, 0o777, caps),
        "fchmod": lambda: syscalls.sys_fchmod(pid, W, 0o604, caps),
        "chown": lambda: syscalls.sys_chown(pid, W, W, W, caps),
        "fchown": lambda: syscalls.sys_fchown(pid, W, W, W, caps),
        "kill": lambda: syscalls.sys_kill(pid, W, model.SIGKILL, caps),
        "unlink": lambda: syscalls.sys_unlink(pid, W, caps),
        "rename": lambda: syscalls.sys_rename(pid, W, "attacker", caps),
        "socket": lambda: syscalls.sys_socket(pid, caps),
        "bind": lambda: syscalls.sys_bind(pid, W, W, caps),
    }
    return builders[name]()




def gen_goal(rng: random.Random, case: Case) -> List:
    """A random compromised-state goal over one config case's objects.

    Goals are JSON lists (``["read", fid]``, ``["any", goal, goal]``…)
    that :func:`build_goal` turns into :mod:`repro.rosa.goals` predicates.
    """
    fids = [entry["oid"] for entry in case["files"]]
    choices = [
        ["read", rng.choice(fids)],
        ["write", rng.choice(fids)],
        ["owner", rng.choice(fids), rng.choice(UID_POOL)],
        ["terminated", 1],
        ["port"],
    ]
    if case["dirs"]:
        choices.append(["removed", case["dirs"][0]["oid"]])
    goal = rng.choice(choices)
    if rng.random() < 0.25:
        return [rng.choice(("any", "all")), goal, rng.choice(choices)]
    return goal


def build_goal(spec: List):
    """The live goal predicate of one :func:`gen_goal` spec."""
    kind, args = spec[0], spec[1:]
    if kind in ("any", "all"):
        combine = goals.any_of if kind == "any" else goals.all_of
        return combine(*(build_goal(sub) for sub in args))
    factories = {
        "read": goals.file_opened_for_read,
        "write": goals.file_opened_for_write,
        "owner": goals.file_owner_is,
        "terminated": goals.process_terminated,
        "removed": goals.entry_removed,
        "port": goals.socket_bound_to_privileged_port,
    }
    return factories[kind](*args)


# -- PrivC programs ------------------------------------------------------------

#: Binary operators the expression generator may emit.  Shift and
#: division operands are constrained at generation time (literal shift
#: widths, non-zero literal divisors) so generated programs never hit
#: undefined arithmetic — both interpreters must agree on *defined*
#: behaviour, which is the property under test.
_EXPR_OPS = ("+", "-", "*", "&", "|", "^", "<", "<=", "==", "!=")
_DIV_OPS = ("/", "%")
_SHIFT_OPS = ("<<", ">>")

#: Paths that exist on every kernel ``build_kernel`` creates.
_PATH_POOL = ("/etc/passwd", "/etc/shadow", "/dev/null", "/dev/mem", "/var/log/sulog")

#: Nullary intrinsics usable inside expressions.
_EXPR_CALLS = ("getuid", "geteuid", "getgid", "getegid", "getpid")


def _gen_expr(rng: random.Random, vars_count: int, depth: int) -> List:
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        if vars_count and rng.random() < 0.5:
            return ["var", rng.randrange(vars_count)]
        return ["lit", rng.choice((0, 1, 2, 3, 7, 64, 255, 4096, -1, -17))]
    if roll < 0.45:
        return ["call", rng.choice(_EXPR_CALLS)]
    kind = rng.random()
    if kind < 0.15:
        op = rng.choice(_SHIFT_OPS)
        return [
            "bin", op,
            _gen_expr(rng, vars_count, depth - 1),
            ["lit", rng.randint(0, 8)],
        ]
    if kind < 0.3:
        op = rng.choice(_DIV_OPS)
        return [
            "bin", op,
            _gen_expr(rng, vars_count, depth - 1),
            ["lit", rng.choice((1, 2, 3, 7, 97))],
        ]
    return [
        "bin", rng.choice(_EXPR_OPS),
        _gen_expr(rng, vars_count, depth - 1),
        _gen_expr(rng, vars_count, depth - 1),
    ]


def _gen_stmt(rng: random.Random, vars_count: int, depth: int, budget: List[int]) -> List:
    budget[0] -= 1
    roll = rng.random()
    if depth > 0 and roll < 0.12 and budget[0] > 3:
        count = rng.randint(1, 3)
        body = _gen_block(rng, vars_count, depth - 1, budget)
        return ["loop", count, body]
    if depth > 0 and roll < 0.24 and budget[0] > 3:
        return [
            "if",
            _gen_expr(rng, vars_count, 2),
            _gen_block(rng, vars_count, depth - 1, budget),
            _gen_block(rng, vars_count, depth - 1, budget) if rng.random() < 0.5 else [],
        ]
    if roll < 0.34:
        return ["print", _gen_expr(rng, vars_count, 2)]
    if roll < 0.44:
        return ["priv", rng.choice(("raise", "lower", "remove")), rng.choice(CAP_POOL)]
    if roll < 0.56:
        sys_roll = rng.random()
        if sys_roll < 0.4:
            return [
                "open",
                rng.randrange(vars_count),
                rng.choice(_PATH_POOL),
                rng.choice(("r", "w")),
            ]
        if sys_roll < 0.55:
            return ["close", rng.randrange(vars_count)]
        if sys_roll < 0.7:
            return [
                "sys1",
                rng.choice(("setuid", "seteuid", "setgid", "setegid")),
                rng.choice((0, 1000, 1001)),
            ]
        if sys_roll < 0.85:
            return ["chmod", rng.choice(_PATH_POOL), rng.choice((0o600, 0o644, 0o755))]
        return ["sock", rng.randrange(vars_count), rng.choice((22, 8080))]
    return ["set", rng.randrange(vars_count), _gen_expr(rng, vars_count, 3)]


def _gen_block(
    rng: random.Random, vars_count: int, depth: int, budget: List[int]
) -> List[List]:
    count = rng.randint(1, 3)
    block = []
    for _ in range(count):
        if budget[0] <= 0:
            break
        block.append(_gen_stmt(rng, vars_count, depth, budget))
    return block


def gen_program_case(rng: random.Random, max_size: int = 20) -> Case:
    """A random PrivC program plus its launch configuration."""
    vars_count = rng.randint(2, 4)
    budget = [max(4, max_size)]
    body: List[List] = []
    while budget[0] > 0:
        body.append(_gen_stmt(rng, vars_count, 2, budget))
    return {
        "vars": vars_count,
        "body": body,
        "permitted": gen_capset_names(rng, max_size=4),
        "uid": rng.choice((0, 1000, 1001)),
        "gid": rng.choice((0, 1000)),
    }


_CAP_TO_CONST = {
    "CapChown": "CAP_CHOWN",
    "CapDacOverride": "CAP_DAC_OVERRIDE",
    "CapDacReadSearch": "CAP_DAC_READ_SEARCH",
    "CapFowner": "CAP_FOWNER",
    "CapKill": "CAP_KILL",
    "CapNetBindService": "CAP_NET_BIND_SERVICE",
    "CapSetgid": "CAP_SETGID",
    "CapSetuid": "CAP_SETUID",
    "CapSysAdmin": "CAP_SYS_ADMIN",
    "CapSysChroot": "CAP_SYS_CHROOT",
}


def _render_expr(expr: List) -> str:
    kind = expr[0]
    if kind == "lit":
        value = int(expr[1])
        return f"(0 - {-value})" if value < 0 else str(value)
    if kind == "var":
        return f"x{int(expr[1])}"
    if kind == "call":
        return f"{expr[1]}()"
    if kind == "bin":
        return f"({_render_expr(expr[2])} {expr[1]} {_render_expr(expr[3])})"
    raise ValueError(f"unknown expression node {expr!r}")


def _render_stmt(stmt: List, vars_count: int, indent: str, lines: List[str]) -> None:
    kind = stmt[0]
    if kind == "set":
        if int(stmt[1]) < vars_count:
            lines.append(f"{indent}x{int(stmt[1])} = {_render_expr(stmt[2])};")
    elif kind == "print":
        lines.append(f"{indent}print_int({_render_expr(stmt[1])});")
    elif kind == "priv":
        lines.append(f"{indent}priv_{stmt[1]}({_CAP_TO_CONST[stmt[2]]});")
    elif kind == "open":
        if int(stmt[1]) < vars_count:
            lines.append(f'{indent}x{int(stmt[1])} = open("{stmt[2]}", "{stmt[3]}");')
    elif kind == "close":
        if int(stmt[1]) < vars_count:
            lines.append(f"{indent}close(x{int(stmt[1])});")
    elif kind == "sys1":
        lines.append(f"{indent}{stmt[1]}({int(stmt[2])});")
    elif kind == "chmod":
        lines.append(f'{indent}chmod("{stmt[1]}", {int(stmt[2])});')
    elif kind == "sock":
        if int(stmt[1]) < vars_count:
            lines.append(f"{indent}x{int(stmt[1])} = socket();")
            lines.append(f"{indent}bind(x{int(stmt[1])}, {int(stmt[2])});")
    elif kind == "loop":
        counter = f"t{len(lines)}"
        lines.append(f"{indent}int {counter} = {int(stmt[1])};")
        lines.append(f"{indent}while ({counter} > 0) {{")
        lines.append(f"{indent}    {counter} = {counter} - 1;")
        for inner in stmt[2]:
            _render_stmt(inner, vars_count, indent + "    ", lines)
        lines.append(f"{indent}}}")
    elif kind == "if":
        lines.append(f"{indent}if ({_render_expr(stmt[1])}) {{")
        for inner in stmt[2]:
            _render_stmt(inner, vars_count, indent + "    ", lines)
        if stmt[3]:
            lines.append(f"{indent}}} else {{")
            for inner in stmt[3]:
                _render_stmt(inner, vars_count, indent + "    ", lines)
        lines.append(f"{indent}}}")
    else:
        raise ValueError(f"unknown statement node {stmt!r}")


def render_program(case: Case) -> str:
    """The PrivC source of one program case.

    Statement descriptors are self-contained over a pre-declared pool of
    integer variables, so *any* subset of statements still compiles —
    the shrinker relies on this.
    """
    vars_count = int(case["vars"])
    lines = ["int main() {"]
    for index in range(vars_count):
        lines.append(f"    int x{index} = 0;")
    for stmt in case["body"]:
        _render_stmt(stmt, vars_count, "    ", lines)
    # Print every variable's final value: a value bug anywhere in the
    # program becomes observable on stdout even if the generated
    # statements never happened to use the corrupted result.
    for index in range(vars_count):
        lines.append(f"    print_int(x{index});")
    lines.append("    return 0;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def build_program_spec(case: Case, name: str = "generated") -> ProgramSpec:
    """The pipeline-ready :class:`ProgramSpec` of one program case."""
    return ProgramSpec(
        name=name,
        description="testkit generated program",
        source=render_program(case),
        permitted=CapabilitySet(case["permitted"]),
        uid=int(case["uid"]),
        gid=int(case["gid"]),
    )


# -- family-conditioned corpus programs ----------------------------------------

#: The scenario-corpus program families (see docs/CORPUS.md).  Each is a
#: hand-shaped template over the same statement grammar as
#: :func:`gen_program_case`, conditioned to produce the privilege
#: *shape* of one real-world software class — so peer-group clustering
#: over privilege profiles has structure to find.
PROGRAM_FAMILIES = (
    "daemon",
    "setuid-helper",
    "super-server",
    "container-shim",
    "cron",
)

#: The powerful capability a family's planted least-privilege violator
#: hoards for (nearly) its whole execution.
VIOLATOR_CAP = {
    "daemon": "CapSysAdmin",
    "setuid-helper": "CapDacReadSearch",
    "super-server": "CapKill",
    "container-shim": "CapSysAdmin",
    "cron": "CapDacOverride",
}


def _bracket(cap: str, inner: List[List]) -> List[List]:
    """``priv_raise(cap); inner; priv_lower(cap)`` — the AutoPriv idiom."""
    return [["priv", "raise", cap]] + inner + [["priv", "lower", cap]]


def _compute_loop(rng: random.Random, var: int, count: int) -> List:
    """A bounded busy loop mutating ``var`` — dynamic instruction mass."""
    return [
        "loop", count,
        [["set", var, ["bin", "+", ["var", var], ["lit", rng.choice((1, 2, 3, 7))]]]],
    ]


#: Optional per-family behaviours, drawn as a sorted-key subset so the
#: same seed picks the same features under any PYTHONHASHSEED.
_FAMILY_FEATURES = {
    "daemon": ("logfile", "pidfile", "stats"),
    "setuid-helper": ("audit-log", "retry"),
    "super-server": ("logfile", "per-conn-stats"),
    "container-shim": ("devnull-setup", "stats"),
    "cron": ("joblog", "stats"),
}


def _feature_stmts(feature: str, rng: random.Random) -> List[List]:
    if feature in ("logfile", "audit-log", "joblog"):
        return [["open", 2, "/var/log/sulog", "w"], ["close", 2]]
    if feature == "pidfile":
        return [["open", 2, "/dev/null", "w"], ["close", 2]]
    if feature in ("stats", "per-conn-stats"):
        return [["print", ["bin", "+", ["var", 0], ["lit", rng.randint(0, 9)]]]]
    if feature == "retry":
        return [["if", ["bin", "<", ["var", 0], ["lit", 0]],
                 [["print", ["lit", 1]]], []]]
    if feature == "devnull-setup":
        return [["chmod", "/dev/null", 0o666]]
    raise ValueError(f"unknown family feature {feature!r}")


def _gen_daemon_body(rng: random.Random, features: List[str]) -> Tuple[List, List[str], int, int]:
    port = rng.choice((22, 80, 443))
    drop_uid = rng.choice((998, 1000))
    body: List[List] = []
    body += _bracket("CapNetBindService", [["sock", 1, port]])
    for feature in features:
        body += _feature_stmts(feature, rng)
    body += _bracket("CapSetgid", [["sys1", "setgid", 1000]])
    body += _bracket("CapSetuid", [["sys1", "setuid", drop_uid]])
    serve = [
        ["open", 2, rng.choice(("/etc/passwd", "/dev/null")), "r"],
        ["close", 2],
        ["set", 0, ["bin", "+", ["var", 0], ["lit", 1]]],
    ]
    body.append(["loop", rng.randint(5, 9), serve])
    body.append(_compute_loop(rng, 0, rng.randint(2, 4)))
    caps = ["CapNetBindService", "CapSetgid", "CapSetuid"]
    return body, caps, 0, 0


def _gen_setuid_helper_body(rng: random.Random, features: List[str]) -> Tuple[List, List[str], int, int]:
    body: List[List] = [_compute_loop(rng, 0, rng.randint(2, 4))]
    body += _bracket(
        "CapDacReadSearch",
        [["open", 1, "/etc/shadow", "r"], ["close", 1]],
    )
    for feature in features:
        body += _feature_stmts(feature, rng)
    body.append(_compute_loop(rng, 0, rng.randint(3, 6)))
    caps = ["CapDacReadSearch"]
    if rng.random() < 0.5:
        body += _bracket("CapSetuid", [["sys1", "seteuid", 1000]])
        caps.append("CapSetuid")
    return body, caps, 1000, 1000


def _gen_super_server_body(rng: random.Random, features: List[str]) -> Tuple[List, List[str], int, int]:
    body: List[List] = []
    ports = rng.sample((22, 80, 443, 8080), rng.randint(1, 2))
    binds: List[List] = []
    for index, port in enumerate(ports):
        binds.append(["sock", index, port])
    body += _bracket("CapNetBindService", binds)
    per_conn: List[List] = []
    per_conn += _bracket("CapSetuid", [["sys1", "seteuid", 1000]])
    for feature in features:
        per_conn += _feature_stmts(feature, rng)
    per_conn.append(["set", 0, ["bin", "+", ["var", 0], ["lit", 1]]])
    per_conn += _bracket("CapSetuid", [["sys1", "seteuid", 0]])
    body.append(["loop", rng.randint(3, 6), per_conn])
    caps = ["CapNetBindService", "CapSetuid", "CapSetgid"]
    return body, caps, 0, 0


def _gen_container_shim_body(rng: random.Random, features: List[str]) -> Tuple[List, List[str], int, int]:
    body: List[List] = []
    body += _bracket("CapSysAdmin", [["set", 0, ["lit", 1]]])  # mount rootfs
    body += _bracket(
        "CapChown",
        [["chmod", rng.choice(("/var/log/sulog", "/dev/null")), 0o755]],
    )
    for feature in features:
        body += _feature_stmts(feature, rng)
    body += _bracket("CapSetgid", [["sys1", "setgid", 1000]])
    body += _bracket("CapSetuid", [["sys1", "setuid", rng.choice((1000, 1001))]])
    body.append(_compute_loop(rng, 1, rng.randint(5, 9)))  # container workload
    caps = ["CapSysAdmin", "CapChown", "CapSetgid", "CapSetuid"]
    return body, caps, 0, 0


def _gen_cron_body(rng: random.Random, features: List[str]) -> Tuple[List, List[str], int, int]:
    job: List[List] = []
    job += _bracket("CapSetuid", [["sys1", "seteuid", rng.choice((1000, 1001))]])
    job.append(_compute_loop(rng, 1, rng.randint(2, 4)))
    for feature in features:
        job += _feature_stmts(feature, rng)
    job += _bracket("CapSetuid", [["sys1", "seteuid", 0]])
    body: List[List] = [["loop", rng.randint(2, 4), job]]
    body.append(_compute_loop(rng, 0, rng.randint(2, 3)))
    caps = ["CapSetuid", "CapSetgid"]
    return body, caps, 0, 0


_FAMILY_BUILDERS = {
    "daemon": _gen_daemon_body,
    "setuid-helper": _gen_setuid_helper_body,
    "super-server": _gen_super_server_body,
    "container-shim": _gen_container_shim_body,
    "cron": _gen_cron_body,
}


def gen_corpus_program_case(
    rng: random.Random,
    max_size: int = 20,
    family: Optional[str] = None,
    violator: bool = False,
) -> Case:
    """One family-conditioned PrivC program, as a case.

    Unlike :func:`gen_program_case`'s free-form grammar walk, the body
    follows the named family's privilege template (bind-then-drop for
    daemons, a tight DAC bracket for setuid helpers, …) with seeded
    variation in loop counts, ports, paths and optional features.  With
    ``violator=True`` the family's :data:`VIOLATOR_CAP` is raised before
    the main work and lowered only at the very end — the planted
    least-privilege violation peer-group analysis must flag.
    """
    if family is None:
        family = rng.choice(PROGRAM_FAMILIES)
    if family not in _FAMILY_BUILDERS:
        raise ValueError(
            f"unknown program family {family!r}; known: {', '.join(PROGRAM_FAMILIES)}"
        )
    features = subset(rng, _FAMILY_FEATURES[family], 0, 2)
    body, caps, uid, gid = _FAMILY_BUILDERS[family](rng, features)
    if violator:
        hoarded = VIOLATOR_CAP[family]
        if hoarded not in caps:
            caps.append(hoarded)
        body = (
            [["priv", "raise", hoarded]]
            + body
            + [["priv", "lower", hoarded]]
        )
    return {
        "family": family,
        "violator": bool(violator),
        "vars": 3,
        "body": body,
        "permitted": sorted(caps),
        "uid": uid,
        "gid": gid,
    }


# -- kernel syscall traces -----------------------------------------------------

#: The trace generator's catalog: (name, argument generators).  Every
#: call takes the acting pid first; generated arguments keep within the
#: machine ``build_kernel`` creates.
def gen_trace_case(rng: random.Random, max_size: int = 20) -> Case:
    """A straight-line syscall trace against a fresh machine."""
    steps: List[List] = []
    for _ in range(rng.randint(1, max(2, max_size // 2))):
        roll = rng.random()
        if roll < 0.3:
            steps.append(["open", rng.choice(_PATH_POOL), rng.choice(("r", "w"))])
        elif roll < 0.4:
            steps.append(["close", rng.randint(3, 6)])
        elif roll < 0.55:
            steps.append(
                [rng.choice(("setuid", "seteuid", "setgid", "setegid")),
                 rng.choice((0, 1000, 1001))]
            )
        elif roll < 0.7:
            steps.append(["chmod", rng.choice(_PATH_POOL), rng.choice((0o600, 0o644))])
        elif roll < 0.8:
            steps.append(["chown", rng.choice(_PATH_POOL),
                          rng.choice(UID_POOL), rng.choice(GID_POOL)])
        elif roll < 0.9:
            steps.append(["socket_bind", rng.choice((22, 8080))])
        else:
            steps.append(["access", rng.choice(_PATH_POOL), rng.choice(("r", "w"))])
    return {
        "uid": rng.choice((0, 1000, 1001)),
        "gid": rng.choice((0, 1000)),
        "caps": gen_capset_names(rng, max_size=3),
        "steps": steps,
    }


def apply_trace(case: Case, kernel, pid: int) -> List:
    """Run one trace case against ``kernel``; returns per-step outcomes.

    Failures become ``["err", errno]`` entries rather than exceptions, so
    traces exercise the access-control error paths too.
    """
    from repro.oskernel.errors import SyscallError

    outcomes: List = []
    for step in case["steps"]:
        name, args = step[0], step[1:]
        try:
            if name == "open":
                outcomes.append(kernel.sys_open(pid, args[0], args[1]))
            elif name == "close":
                outcomes.append(kernel.sys_close(pid, args[0]))
            elif name in ("setuid", "seteuid", "setgid", "setegid"):
                outcomes.append(getattr(kernel, f"sys_{name}")(pid, args[0]))
            elif name == "chmod":
                outcomes.append(kernel.sys_chmod(pid, args[0], args[1]))
            elif name == "chown":
                outcomes.append(kernel.sys_chown(pid, args[0], args[1], args[2]))
            elif name == "socket_bind":
                fd = kernel.sys_socket(pid)
                outcomes.append(kernel.sys_bind(pid, fd, args[0]))
            elif name == "access":
                outcomes.append(kernel.sys_access(pid, args[0], args[1]))
            else:
                raise ValueError(f"unknown trace step {name!r}")
        except SyscallError as error:
            outcomes.append(["err", error.errno])
    return outcomes
