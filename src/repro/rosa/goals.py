"""Compromised-state patterns.

A ROSA query searches for a reachable configuration matching a
*compromised system state* (§V).  The paper's Figure 4 expresses such a
pattern as a Maude term with don't-care variables plus a ``such that``
condition; in our engine a goal is a predicate over configurations.  This
module provides the patterns the paper's four modeled attacks use, plus
combinators for writing new ones.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.rewriting import Configuration
from repro.rosa import model

Goal = Callable[[Configuration], bool]


def file_opened_for_read(fid: int, pid: Optional[int] = None) -> Goal:
    """Some process (or process ``pid``) has file ``fid`` in its rdfset.

    This is the paper's Figure 4 pattern: ``3 in G:Set{Int}`` over the
    process's read set.
    """

    def goal(config: Configuration) -> bool:
        for proc in config.objects(model.PROCESS):
            if pid is not None and proc.oid != pid:
                continue
            if fid in proc["rdfset"]:
                return True
        return False

    return goal


def file_opened_for_write(fid: int, pid: Optional[int] = None) -> Goal:
    """Some process (or process ``pid``) has file ``fid`` in its wrfset."""

    def goal(config: Configuration) -> bool:
        for proc in config.objects(model.PROCESS):
            if pid is not None and proc.oid != pid:
                continue
            if fid in proc["wrfset"]:
                return True
        return False

    return goal


def socket_bound_to_privileged_port(
    pid: Optional[int] = None, bound: int = model.PRIVILEGED_PORT_BOUND
) -> Goal:
    """A socket (optionally owned by ``pid``) is bound to a port below ``bound``."""

    def goal(config: Configuration) -> bool:
        for sock in config.objects(model.SOCKET):
            if pid is not None and sock["owner_pid"] != pid:
                continue
            if 0 < sock["port"] < bound:
                return True
        return False

    return goal


def process_terminated(pid: int) -> Goal:
    """Process ``pid`` has been killed."""

    def goal(config: Configuration) -> bool:
        proc = config.find_object(pid)
        return proc is not None and proc["state"] == model.STATE_DEAD

    return goal


def file_owner_is(fid: int, owner: int) -> Goal:
    """File ``fid`` has been chowned to ``owner``."""

    def goal(config: Configuration) -> bool:
        target = config.find_object(fid)
        return target is not None and target["owner"] == owner

    return goal


def entry_removed(entry_id: int) -> Goal:
    """Directory entry ``entry_id`` no longer exists (unlinked)."""

    def goal(config: Configuration) -> bool:
        return config.find_object(entry_id) is None

    return goal


def any_of(*goals: Goal) -> Goal:
    """Disjunction of goals."""

    def goal(config: Configuration) -> bool:
        return any(sub(config) for sub in goals)

    return goal


def all_of(*goals: Goal) -> Goal:
    """Conjunction of goals."""

    def goal(config: Configuration) -> bool:
        return all(sub(config) for sub in goals)

    return goal
