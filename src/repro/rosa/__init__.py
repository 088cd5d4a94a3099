"""ROSA — Rewrite of Objects for Syscall Analysis.

A bounded model checker for Linux privilege use, built on the
:mod:`repro.rewriting` engine.  ROSA models a Linux system as a
configuration of Process/File/Dir/Socket/User/Group objects plus pending
system-call messages, and searches for reachable *compromised states*.

Typical use::

    from repro.rosa import (
        Configuration, RosaQuery, check, goals, model, syscalls
    )

    config = Configuration([
        model.process_for_user(1, uid=1000, gid=1000),
        model.file_obj(3, name="/etc/shadow", owner=0, group=42, perms=0o640),
        model.user(4, 1000), model.user(5, 0),
        syscalls.sys_open(1, 3, "r", ["CapDacReadSearch"]),
    ])
    report = check(RosaQuery("read-shadow", config,
                             goals.file_opened_for_read(3)))
    assert report.vulnerable
"""

from repro.rewriting import Configuration, Msg, Obj, SearchBudget
from repro.rosa import defenses, dsl, goals, model, permissions, syscalls
from repro.rosa.engine import QueryCache, QueryEngine, QueryRequest
from repro.rosa.explain import explain_witness
from repro.rosa.keys import query_cache_key
from repro.rosa.query import (
    DEFAULT_BUDGET,
    RosaQuery,
    RosaReport,
    Verdict,
    check,
    unix_system,
)
from repro.rosa.rules import unix_rules

__all__ = [
    "Configuration",
    "DEFAULT_BUDGET",
    "Msg",
    "Obj",
    "QueryCache",
    "QueryEngine",
    "QueryRequest",
    "RosaQuery",
    "RosaReport",
    "SearchBudget",
    "Verdict",
    "check",
    "defenses",
    "dsl",
    "explain_witness",
    "goals",
    "model",
    "permissions",
    "query_cache_key",
    "syscalls",
    "unix_rules",
    "unix_system",
]
