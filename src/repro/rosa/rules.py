"""Rewrite rules: how consuming a syscall message changes the system.

Each rule follows the Object Maude idiom the paper describes (§V-B): a
Process object consumes one pending message; if the Linux permission rules
(with the message's privilege set) allow the call, the rule yields the
rewritten configuration.  A call whose permission check fails simply never
fires — the message stays pending, modelling an attacker who would not
bother issuing a call that must fail.

Wildcard arguments (:data:`~repro.rosa.syscalls.WILDCARD`) are expanded
during matching over the candidate domains carried by the configuration's
User/Group/Port objects and by the object population itself, exactly as
Maude would enumerate matches of an unbound variable against the object
multiset.

Next to each ``fire`` sits the rule's abstract ``transfer``: the same
checks over an :class:`~repro.rosa.prove.AbstractState`, joining every
value the rewrite may produce instead of yielding configurations.
:func:`repro.rosa.prove.prove` iterates them to a fixpoint.  A rule
without a transfer (the object-creating ones) makes the proof decline.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, List, Tuple

from repro.rewriting import Configuration, MessageRule, Msg, Obj
from repro.rosa import model, permissions
from repro.rosa.syscalls import KEEP, O_RDONLY, O_RDWR, O_WRONLY, WILDCARD

#: What the DAC checks of :mod:`repro.rosa.permissions` read of the
#: calling process and of the file or entry they guard.
DAC_SUBJECT = ("euid", "egid", "supplementary")
DAC_OBJECT = ("owner", "group", "perms")


def _expand(value, domain: Iterable) -> List:
    """Expand a wildcard argument over ``domain`` (sorted for determinism)."""
    if value == WILDCARD:
        return sorted(domain)
    return [value]


class SyscallRule(MessageRule):
    """Base class: resolves the calling process and skips dead ones."""

    #: ``transfer(state, message, pid)`` joins into the abstract ``state``
    #: every value ``fire`` may produce from a configuration it describes;
    #: None when the rule has no abstract transfer.
    transfer = None

    def rewrites_for_message(
        self, config: Configuration, message: Msg
    ) -> Iterator[Configuration]:
        pid = message.args[0]
        proc = model.find_process(config, pid)
        if proc is None or proc["state"] != model.STATE_RUN:
            return
        yield from self.fire(config, message, proc)

    def abstract(self, state, message: Msg) -> None:
        """The abstract counterpart of :meth:`rewrites_for_message`."""
        pid = message.args[0]
        if state.may_run(pid):
            self.transfer(state, message, pid)

    def fire(
        self, config: Configuration, message: Msg, proc: Obj
    ) -> Iterator[Configuration]:
        raise NotImplementedError


class OpenRule(SyscallRule):
    """``open(pid, fid, mode, privs)`` — DAC check plus pathname lookup."""

    label = "open"
    message_name = "open"

    def fire(self, config, message, proc):
        _, fid_arg, mode, privs = message.args
        for fid in _expand(fid_arg, model.candidate_files(config)):
            target = config.find_object(fid)
            if target is None or target.cls != model.FILE:
                continue
            entries = model.parent_entries(config, fid)
            if not permissions.lookup_permits(entries, proc, privs):
                continue
            want_read = mode in (O_RDONLY, O_RDWR)
            want_write = mode in (O_WRONLY, O_RDWR)
            if want_read and not permissions.may_read(proc, target, privs):
                continue
            if want_write and not permissions.may_write(proc, target, privs):
                continue
            rdfset = proc["rdfset"] | {fid} if want_read else proc["rdfset"]
            wrfset = proc["wrfset"] | {fid} if want_write else proc["wrfset"]
            yield config.consume(message, proc.update(rdfset=rdfset, wrfset=wrfset))

    def transfer(self, state, message, pid):
        _, fid_arg, mode, privs = message.args
        subject = state.views(pid, *DAC_SUBJECT)
        for fid in _expand(fid_arg, state.domain(model.candidate_files)):
            if not state.may_be(fid, model.FILE):
                continue
            if not state.lookup_may_permit(fid, pid, privs):
                continue
            target = state.views(fid, *DAC_OBJECT)
            want_read = mode in (O_RDONLY, O_RDWR)
            want_write = mode in (O_WRONLY, O_RDWR)
            if want_read and not state.may(permissions.may_read, subject, target, privs):
                continue
            if want_write and not state.may(permissions.may_write, subject, target, privs):
                continue
            if want_read:
                state.join(pid, rdfset=fid)
            if want_write:
                state.join(pid, wrfset=fid)


class SetuidRule(SyscallRule):
    """``setuid(pid, uid, privs)``.

    setuid(2): with CAP_SETUID all three uids become ``uid``; without it,
    ``uid`` must be the current real or saved uid and only the effective
    uid changes.
    """

    label = "setuid"
    message_name = "setuid"

    def fire(self, config, message, proc):
        from repro.caps import Capability

        _, uid_arg, privs = message.args
        domain = model.candidate_uids(config)
        for uid in _expand(uid_arg, domain):
            if Capability.CAP_SETUID in privs:
                yield config.consume(
                    message, proc.update(ruid=uid, euid=uid, suid=uid)
                )
            elif uid in (proc["ruid"], proc["suid"]):
                yield config.consume(message, proc.update(euid=uid))

    def transfer(self, state, message, pid):
        from repro.caps import Capability

        _, uid_arg, privs = message.args
        for uid in _expand(uid_arg, state.domain(model.candidate_uids)):
            if Capability.CAP_SETUID in privs:
                state.join(pid, ruid=uid, euid=uid, suid=uid)
            elif uid in state.values[(pid, "ruid")] | state.values[(pid, "suid")]:
                state.join(pid, euid=uid)


class SeteuidRule(SyscallRule):
    """``seteuid(pid, uid, privs)`` — change the effective uid only."""

    label = "seteuid"
    message_name = "seteuid"

    def fire(self, config, message, proc):
        from repro.caps import Capability

        _, uid_arg, privs = message.args
        for uid in _expand(uid_arg, model.candidate_uids(config)):
            allowed = Capability.CAP_SETUID in privs or uid in (
                proc["ruid"],
                proc["suid"],
            )
            if allowed:
                yield config.consume(message, proc.update(euid=uid))

    def transfer(self, state, message, pid):
        from repro.caps import Capability

        _, uid_arg, privs = message.args
        for uid in _expand(uid_arg, state.domain(model.candidate_uids)):
            allowed = Capability.CAP_SETUID in privs or uid in (
                state.values[(pid, "ruid")] | state.values[(pid, "suid")]
            )
            if allowed:
                state.join(pid, euid=uid)


class _SetresRule(SyscallRule):
    """``setres[ug]id(pid, r, e, s, privs)``: shared by the uid and gid rules.

    Each id may be :data:`KEEP` (kernel's −1), a concrete id, or a
    wildcard.  A combination is allowed when every assigned id passes
    :attr:`may_set` on its own, so each field's candidates are filtered
    once, before the product; the product of the filtered lists yields
    the allowed combinations in the order the unfiltered one would.
    """

    #: The three process attributes the call assigns, in argument order.
    fields: Tuple[str, str, str]
    #: The wildcard domain of an id: ``model.candidate_uids`` or ``_gids``.
    domain: Callable
    #: Whether one id may be assigned: ``permissions.may_set_uid`` or ``_gid``.
    may_set: Callable

    def fire(self, config, message, proc):
        privs = message.args[4]
        domain = self.domain(config)
        candidates = [
            [
                value
                for value in _expand(arg, domain)
                if value == KEEP or self.may_set(proc, value, privs)
            ]
            for arg in message.args[1:4]
        ]
        for values in itertools.product(*candidates):
            updates = {
                field: value for field, value in zip(self.fields, values) if value != KEEP
            }
            if updates:
                yield config.consume(message, proc.update(**updates))

    def transfer(self, state, message, pid):
        privs = message.args[4]
        domain = state.domain(self.domain)
        ids = state.views(pid, *self.fields)
        for field, arg in zip(self.fields, message.args[1:4]):
            for value in _expand(arg, domain):
                if value != KEEP and state.may(self.may_set, ids, value, privs):
                    state.join(pid, **{field: value})


class SetresuidRule(_SetresRule):
    """``setresuid(pid, ruid, euid, suid, privs)``.

    Unprivileged processes may only assign values drawn from their
    current real/effective/saved uids (setresuid(2)).
    """

    label = "setresuid"
    message_name = "setresuid"
    fields = ("ruid", "euid", "suid")
    domain = staticmethod(model.candidate_uids)
    may_set = staticmethod(permissions.may_set_uid)


class SetgidRule(SyscallRule):
    """``setgid(pid, gid, privs)`` — the group analogue of setuid."""

    label = "setgid"
    message_name = "setgid"

    def fire(self, config, message, proc):
        from repro.caps import Capability

        _, gid_arg, privs = message.args
        for gid in _expand(gid_arg, model.candidate_gids(config)):
            if Capability.CAP_SETGID in privs:
                yield config.consume(
                    message, proc.update(rgid=gid, egid=gid, sgid=gid)
                )
            elif gid in (proc["rgid"], proc["sgid"]):
                yield config.consume(message, proc.update(egid=gid))

    def transfer(self, state, message, pid):
        from repro.caps import Capability

        _, gid_arg, privs = message.args
        for gid in _expand(gid_arg, state.domain(model.candidate_gids)):
            if Capability.CAP_SETGID in privs:
                state.join(pid, rgid=gid, egid=gid, sgid=gid)
            elif gid in state.values[(pid, "rgid")] | state.values[(pid, "sgid")]:
                state.join(pid, egid=gid)


class SetegidRule(SyscallRule):
    """``setegid(pid, gid, privs)`` — change the effective gid only."""

    label = "setegid"
    message_name = "setegid"

    def fire(self, config, message, proc):
        from repro.caps import Capability

        _, gid_arg, privs = message.args
        for gid in _expand(gid_arg, model.candidate_gids(config)):
            allowed = Capability.CAP_SETGID in privs or gid in (
                proc["rgid"],
                proc["sgid"],
            )
            if allowed:
                yield config.consume(message, proc.update(egid=gid))

    def transfer(self, state, message, pid):
        from repro.caps import Capability

        _, gid_arg, privs = message.args
        for gid in _expand(gid_arg, state.domain(model.candidate_gids)):
            allowed = Capability.CAP_SETGID in privs or gid in (
                state.values[(pid, "rgid")] | state.values[(pid, "sgid")]
            )
            if allowed:
                state.join(pid, egid=gid)


class SetresgidRule(_SetresRule):
    """``setresgid(pid, rgid, egid, sgid, privs)``."""

    label = "setresgid"
    message_name = "setresgid"
    fields = ("rgid", "egid", "sgid")
    domain = staticmethod(model.candidate_gids)
    may_set = staticmethod(permissions.may_set_gid)


class SetgroupsRule(SyscallRule):
    """``setgroups(pid, gid, privs)`` — join a supplementary group.

    setgroups(2) requires ``CAP_SETGID``; the effect here is additive
    (one group per message), which is what an attacker would do with it.
    """

    label = "setgroups"
    message_name = "setgroups"

    def fire(self, config, message, proc):
        from repro.caps import Capability

        _, gid_arg, privs = message.args
        if Capability.CAP_SETGID not in privs:
            return
        for gid in _expand(gid_arg, model.candidate_gids(config)):
            if gid in proc["supplementary"]:
                continue
            yield config.consume(
                message, proc.update(supplementary=proc["supplementary"] | {gid})
            )

    def transfer(self, state, message, pid):
        from repro.caps import Capability

        _, gid_arg, privs = message.args
        if Capability.CAP_SETGID not in privs:
            return
        for gid in _expand(gid_arg, state.domain(model.candidate_gids)):
            state.join(pid, supplementary=gid)


class KillRule(SyscallRule):
    """``kill(pid, target, sig, privs)`` — SIGKILL terminates the target."""

    label = "kill"
    message_name = "kill"

    def fire(self, config, message, proc):
        _, target_arg, signal, privs = message.args
        for target_pid in _expand(target_arg, model.candidate_processes(config)):
            victim = model.find_process(config, target_pid)
            if victim is None or victim["state"] != model.STATE_RUN:
                continue
            if not permissions.may_signal(proc, victim, privs):
                continue
            if signal == model.SIGKILL:
                yield config.consume(message, victim.update(state=model.STATE_DEAD))
            else:
                # Delivery of a non-fatal signal: observable only as message
                # consumption (we do not model handlers inside ROSA).
                yield config.consume(message)

    def transfer(self, state, message, pid):
        _, target_arg, signal, privs = message.args
        sender = state.views(pid, "euid", "ruid")
        for target_pid in _expand(target_arg, state.domain(model.candidate_processes)):
            if not state.may_run(target_pid):
                continue
            victim = state.views(target_pid, "ruid", "suid")
            if signal == model.SIGKILL and state.may(
                permissions.may_signal, sender, victim, privs
            ):
                state.join(target_pid, state=model.STATE_DEAD)


def _may_reach(rule, state, pid, fid, privs) -> bool:
    """The abstract access step of chmod/chown and their f-variants: an
    existing file, open already (``requires_open``) or found by lookup."""
    if not state.may_be(fid, model.FILE):
        return False
    if rule.requires_open:
        return fid in state.values[(pid, "rdfset")] | state.values[(pid, "wrfset")]
    return state.lookup_may_permit(fid, pid, privs)


def _may_modify_entry(state, pid, entry_id, privs) -> bool:
    """The abstract checks unlink and rename share: write+search on the
    entry and the sticky-bit rule against the file it names, if any."""
    if not state.may_be(entry_id, model.DIR):
        return False
    subject = state.views(pid, *DAC_SUBJECT)
    entry = state.views(entry_id, *DAC_OBJECT)
    if not state.may(permissions.may_write, subject, entry, privs):
        return False
    if not state.may(permissions.may_search, subject, entry, privs):
        return False
    target_file = state.referent(entry_id, "inode", model.FILE, "owner")
    return state.may(
        permissions.sticky_permits_removal, subject, entry, target_file, privs
    )


class ChmodRule(SyscallRule):
    """``chmod(pid, fid, perms, privs)`` — ownership or CAP_FOWNER."""

    label = "chmod"
    message_name = "chmod"
    #: fchmod additionally requires the file to be open; chmod requires lookup.
    requires_open = False

    def fire(self, config, message, proc):
        _, fid_arg, new_perms, privs = message.args
        for fid in _expand(fid_arg, model.candidate_files(config)):
            target = config.find_object(fid)
            if target is None or target.cls != model.FILE:
                continue
            if self.requires_open:
                if fid not in (proc["rdfset"] | proc["wrfset"]):
                    continue
            else:
                entries = model.parent_entries(config, fid)
                if not permissions.lookup_permits(entries, proc, privs):
                    continue
            if not permissions.may_chmod(proc, target, privs):
                continue
            if target["perms"] == new_perms:
                continue
            yield config.consume(message, target.update(perms=new_perms))

    def transfer(self, state, message, pid):
        _, fid_arg, new_perms, privs = message.args
        for fid in _expand(fid_arg, state.domain(model.candidate_files)):
            if not _may_reach(self, state, pid, fid, privs):
                continue
            if state.may(
                permissions.may_chmod,
                state.views(pid, "euid"),
                state.views(fid, "owner"),
                privs,
            ):
                state.join(fid, perms=new_perms)


class FchmodRule(ChmodRule):
    label = "fchmod"
    message_name = "fchmod"
    requires_open = True


class ChownRule(SyscallRule):
    """``chown(pid, fid, owner, group, privs)`` — CAP_CHOWN for owner changes."""

    label = "chown"
    message_name = "chown"
    requires_open = False

    def fire(self, config, message, proc):
        _, fid_arg, owner_arg, group_arg, privs = message.args
        for fid in _expand(fid_arg, model.candidate_files(config)):
            target = config.find_object(fid)
            if target is None or target.cls != model.FILE:
                continue
            if self.requires_open:
                if fid not in (proc["rdfset"] | proc["wrfset"]):
                    continue
            else:
                entries = model.parent_entries(config, fid)
                if not permissions.lookup_permits(entries, proc, privs):
                    continue
            for new_owner in _expand(owner_arg, model.candidate_uids(config)):
                for new_group in _expand(group_arg, model.candidate_gids(config)):
                    if new_owner == target["owner"] and new_group == target["group"]:
                        continue
                    if not permissions.may_chown(
                        proc, target, new_owner, new_group, privs
                    ):
                        continue
                    yield config.consume(
                        message, target.update(owner=new_owner, group=new_group)
                    )

    def transfer(self, state, message, pid):
        _, fid_arg, owner_arg, group_arg, privs = message.args
        subject = state.views(pid, *DAC_SUBJECT)
        for fid in _expand(fid_arg, state.domain(model.candidate_files)):
            if not _may_reach(self, state, pid, fid, privs):
                continue
            target = state.views(fid, "owner", "group")
            for new_owner in _expand(owner_arg, state.domain(model.candidate_uids)):
                for new_group in _expand(group_arg, state.domain(model.candidate_gids)):
                    if state.may(
                        permissions.may_chown, subject, target, new_owner, new_group, privs
                    ):
                        state.join(fid, owner=new_owner, group=new_group)


class FchownRule(ChownRule):
    label = "fchown"
    message_name = "fchown"
    requires_open = True


class UnlinkRule(SyscallRule):
    """``unlink(pid, entry, privs)`` — needs write+search on the directory,
    and satisfies the sticky-bit rule in restricted-deletion directories."""

    label = "unlink"
    message_name = "unlink"

    def fire(self, config, message, proc):
        _, entry_arg, privs = message.args
        for entry_id in _expand(entry_arg, model.candidate_dirs(config)):
            entry = config.find_object(entry_id)
            if entry is None or entry.cls != model.DIR:
                continue
            if not permissions.may_write(proc, entry, privs):
                continue
            if not permissions.may_search(proc, entry, privs):
                continue
            target_file = config.find_object(entry["inode"])
            if target_file is not None and target_file.cls != model.FILE:
                target_file = None
            if not permissions.sticky_permits_removal(proc, entry, target_file, privs):
                continue
            yield config.consume(message).remove(entry)

    def transfer(self, state, message, pid):
        _, entry_arg, privs = message.args
        for entry_id in _expand(entry_arg, state.domain(model.candidate_dirs)):
            if _may_modify_entry(state, pid, entry_id, privs):
                state.join(entry_id, present=False)


class CreatRule(SyscallRule):
    """``creat(pid, parent_entry, name, perms, privs)`` — an extension
    beyond the paper's ROSA (§VI notes creat was unsupported).

    Creating a file requires write+search permission on the parent
    directory; the new file is owned by the process's effective ids and
    gets both a File object and a Dir entry (sharing the parent entry's
    directory attributes).
    """

    label = "creat"
    message_name = "creat"

    def fire(self, config, message, proc):
        _, parent_arg, name, perms, privs = message.args
        for parent_id in _expand(parent_arg, model.candidate_dirs(config)):
            parent = config.find_object(parent_id)
            if parent is None or parent.cls != model.DIR:
                continue
            if not permissions.may_write(proc, parent, privs):
                continue
            if not permissions.may_search(proc, parent, privs):
                continue
            fid = model.fresh_oid(config)
            new_file = model.file_obj(
                fid, name=name, owner=proc["euid"], group=proc["egid"], perms=perms
            )
            with_file = config.consume(message).add(new_file)
            entry = model.dir_entry(
                model.fresh_oid(with_file),
                name=name,
                owner=parent["owner"],
                group=parent["group"],
                perms=parent["perms"],
                inode=fid,
            )
            yield with_file.add(entry)


class LinkRule(SyscallRule):
    """``link(pid, fid, parent_entry, name, privs)`` — hard links, an
    extension beyond the paper's ROSA (§VI notes link was unsupported).

    Requires write+search on the target directory.  The new entry refers
    to the *same* file object, so a later privileged write through the
    benign-looking name reaches the linked file — the classic hard-link
    attack shape.
    """

    label = "link"
    message_name = "link"

    def fire(self, config, message, proc):
        _, fid_arg, parent_arg, name, privs = message.args
        for fid in _expand(fid_arg, model.candidate_files(config)):
            target = config.find_object(fid)
            if target is None or target.cls != model.FILE:
                continue
            for parent_id in _expand(parent_arg, model.candidate_dirs(config)):
                parent = config.find_object(parent_id)
                if parent is None or parent.cls != model.DIR:
                    continue
                if not permissions.may_write(proc, parent, privs):
                    continue
                if not permissions.may_search(proc, parent, privs):
                    continue
                entry = model.dir_entry(
                    model.fresh_oid(config),
                    name=name,
                    owner=parent["owner"],
                    group=parent["group"],
                    perms=parent["perms"],
                    inode=fid,
                )
                yield config.consume(message).add(entry)


class RenameRule(SyscallRule):
    """``rename(pid, entry, new_name, privs)`` — modify a directory entry;
    subject to the sticky-bit rule like unlink."""

    label = "rename"
    message_name = "rename"

    def fire(self, config, message, proc):
        _, entry_arg, new_name, privs = message.args
        for entry_id in _expand(entry_arg, model.candidate_dirs(config)):
            entry = config.find_object(entry_id)
            if entry is None or entry.cls != model.DIR:
                continue
            if not permissions.may_write(proc, entry, privs):
                continue
            if not permissions.may_search(proc, entry, privs):
                continue
            target_file = config.find_object(entry["inode"])
            if target_file is not None and target_file.cls != model.FILE:
                target_file = None
            if not permissions.sticky_permits_removal(proc, entry, target_file, privs):
                continue
            if entry["name"] == new_name:
                continue
            yield config.consume(message, entry.update(name=new_name))

    def transfer(self, state, message, pid):
        _, entry_arg, new_name, privs = message.args
        for entry_id in _expand(entry_arg, state.domain(model.candidate_dirs)):
            if _may_modify_entry(state, pid, entry_id, privs):
                state.join(entry_id, name=new_name)


class SocketRule(SyscallRule):
    """``socket(pid, privs)`` — create a fresh unbound TCP socket."""

    label = "socket"
    message_name = "socket"

    def fire(self, config, message, proc):
        sock = model.socket_obj(model.fresh_oid(config), owner_pid=proc.oid)
        yield config.consume(message).add(sock)


class BindRule(SyscallRule):
    """``bind(pid, sock, port, privs)`` — privileged ports need the capability."""

    label = "bind"
    message_name = "bind"

    def fire(self, config, message, proc):
        _, sock_arg, port_arg, privs = message.args
        own_sockets = {
            sock.oid
            for sock in config.objects(model.SOCKET)
            if sock["owner_pid"] == proc.oid
        }
        bound_ports = {
            sock["port"] for sock in config.objects(model.SOCKET) if sock["port"]
        }
        for sock_id in _expand(sock_arg, own_sockets):
            sock = config.find_object(sock_id)
            if sock is None or sock.cls != model.SOCKET or sock.oid not in own_sockets:
                continue
            if sock["port"] != 0:
                continue  # already bound
            for port in _expand(port_arg, model.candidate_ports(config)):
                if port in bound_ports:
                    continue  # EADDRINUSE
                if not permissions.may_bind(port, privs):
                    continue
                yield config.consume(message, sock.update(port=port))


class ConnectRule(SyscallRule):
    """``connect(pid, sock, port, privs)`` — always permitted on own sockets."""

    label = "connect"
    message_name = "connect"

    def fire(self, config, message, proc):
        _, sock_arg, port_arg, _privs = message.args
        own_sockets = {
            sock.oid
            for sock in config.objects(model.SOCKET)
            if sock["owner_pid"] == proc.oid
        }
        for sock_id in _expand(sock_arg, own_sockets):
            sock = config.find_object(sock_id)
            if sock is None or sock.cls != model.SOCKET:
                continue
            # Connecting has no access-control consequence in our model;
            # the rewrite just consumes the message.
            yield config.consume(message)


def unix_rules() -> tuple:
    """All syscall rules of the UNIX module, in deterministic order."""
    return (
        OpenRule(),
        SetuidRule(),
        SeteuidRule(),
        SetresuidRule(),
        SetgidRule(),
        SetegidRule(),
        SetresgidRule(),
        SetgroupsRule(),
        KillRule(),
        ChmodRule(),
        FchmodRule(),
        ChownRule(),
        FchownRule(),
        UnlinkRule(),
        CreatRule(),
        LinkRule(),
        RenameRule(),
        SocketRule(),
        BindRule(),
        ConnectRule(),
    )
