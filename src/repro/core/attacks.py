"""The four modeled privilege-escalation attacks (Table I).

1. Read ``/dev/mem`` — steal any process's data;
2. Write ``/dev/mem`` — corrupt any process's data;
3. Bind a privileged TCP port — masquerade as a trusted server;
4. SIGKILL the sshd server — deny service.

Each attack knows how to build a ROSA query for one ChronoPriv phase:
the initial configuration holds a process with the phase's credentials,
the objects the attack targets, User/Group objects bounding the wildcard
domains, and one message per system call the program can issue — every
message granted the phase's *entire permitted set*, because the attack
model (§III) lets an exploited program raise anything still permitted.
:meth:`Attack.deferred_query` keys that query by these inputs, so the
pipeline builds it only when no cache or store already holds its answer.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.caps import CapabilitySet
from repro.rewriting import Configuration, Msg
from repro.rosa import goals, model, syscalls
from repro.rosa.keys import builder_source
from repro.rosa.query import DeferredQuery, RosaQuery

# Object ids within attack configurations.
PID_TARGET = 1  # the (possibly compromised) program under analysis
PID_SSHD = 2  # attack 4's victim server
FID_DEVMEM = 10
DID_DEV = 11
OID_BASE_USERS = 20

# File population constants (match repro.oskernel.setup).
UID_ROOT = 0
GID_KMEM = 15
#: Attack 4's victim: the paper models "a server owned by another user"
#: — a uid distinct from root and from the analysed process, so killing
#: it needs CAP_KILL or a CAP_SETUID identity change.
UID_SSHD_SERVICE = 2000
PRIVILEGED_PORT = 22
UNPRIVILEGED_PORT = 8080

#: Syscall message constructors by name, with wildcard arguments.  The
#: attacker controls arguments (§III), so everything that can be a
#: wildcard is one; chmod uses 0o777 as the paper prescribes (§V-B).
W = syscalls.WILDCARD


#: One message builder per modelled syscall, taking the granted caps.
_MESSAGE_BUILDERS = {
    "open": lambda caps: syscalls.sys_open(PID_TARGET, W, syscalls.O_RDWR, caps),
    "open_read": lambda caps: syscalls.sys_open(PID_TARGET, W, syscalls.O_RDONLY, caps),
    "open_write": lambda caps: syscalls.sys_open(PID_TARGET, W, syscalls.O_WRONLY, caps),
    "setuid": lambda caps: syscalls.sys_setuid(PID_TARGET, W, caps),
    "seteuid": lambda caps: syscalls.sys_seteuid(PID_TARGET, W, caps),
    "setresuid": lambda caps: syscalls.sys_setresuid(PID_TARGET, W, W, W, caps),
    "setgid": lambda caps: syscalls.sys_setgid(PID_TARGET, W, caps),
    "setegid": lambda caps: syscalls.sys_setegid(PID_TARGET, W, caps),
    "setresgid": lambda caps: syscalls.sys_setresgid(PID_TARGET, W, W, W, caps),
    "setgroups": lambda caps: syscalls.sys_setgroups(PID_TARGET, W, caps),
    "kill": lambda caps: syscalls.sys_kill(PID_TARGET, W, model.SIGKILL, caps),
    "chmod": lambda caps: syscalls.sys_chmod(PID_TARGET, W, 0o777, caps),
    "fchmod": lambda caps: syscalls.sys_fchmod(PID_TARGET, W, 0o777, caps),
    "chown": lambda caps: syscalls.sys_chown(PID_TARGET, W, W, W, caps),
    "fchown": lambda caps: syscalls.sys_fchown(PID_TARGET, W, W, W, caps),
    "unlink": lambda caps: syscalls.sys_unlink(PID_TARGET, W, caps),
    "rename": lambda caps: syscalls.sys_rename(PID_TARGET, W, "attacker", caps),
    "socket": lambda caps: syscalls.sys_socket(PID_TARGET, caps),
    "bind": lambda caps: syscalls.sys_bind(PID_TARGET, W, W, caps),
    "connect": lambda caps: syscalls.sys_connect(PID_TARGET, W, W, caps),
}


def _modelled(names: Iterable[str]) -> List[str]:
    """The names ROSA models a message for, sorted; the rest contribute nothing."""
    return sorted(name for name in set(names) if name in _MESSAGE_BUILDERS)


def _attack_messages(
    names: Iterable[str], privs: CapabilitySet, repeat: int = 1
) -> List[Msg]:
    """One message per allowed syscall, each usable ``repeat`` times."""
    caps = privs.as_frozenset()
    messages: List[Msg] = []
    for name in _modelled(names):
        builder = _MESSAGE_BUILDERS[name]
        for _ in range(repeat):
            messages.append(builder(caps))
    return messages


def _identity_objects(
    uids: Tuple[int, int, int],
    gids: Tuple[int, int, int],
    extra_uids: Iterable[int] = (),
    extra_gids: Iterable[int] = (),
) -> List:
    """User/Group objects bounding the wildcard uid/gid domains.

    Includes the process's own ids plus the ids relevant to the attack
    (file owners etc.) — the paper constrains ROSA's search space the same
    way (§V-B).
    """
    objects = []
    oid = OID_BASE_USERS
    for uid in sorted(set(uids) | set(extra_uids)):
        objects.append(model.user(oid, uid))
        oid += 1
    for gid in sorted(set(gids) | set(extra_gids)):
        objects.append(model.group(oid, gid))
        oid += 1
    return objects


@dataclasses.dataclass(frozen=True)
class Attack:
    """One modeled attack, buildable into a ROSA query per phase."""

    attack_id: int
    name: str
    description: str
    #: Syscall families relevant to the attack; the query only includes a
    #: program syscall if the attack can use it, mirroring the paper's
    #: observation that attacks 3/4 have small relevant-call sets (§VIII).
    relevant_syscalls: FrozenSet[str]

    def _query_inputs(
        self,
        phase_privileges: CapabilitySet,
        uids: Tuple[int, int, int],
        gids: Tuple[int, int, int],
        program_syscalls: FrozenSet[str],
        repeat: int = 1,
        devmem_perms: int = 0o640,
    ) -> Tuple:
        """Exactly what :meth:`build_query`'s configuration and goal depend on.

        The attack id (it fixes the goal and the target objects), the
        credentials, the modelled usable syscalls, and the granted caps
        and ``repeat`` only when a message is built; ``devmem_perms``
        only for the /dev/mem attacks.  Never the label: two phases with
        equal inputs are the same question.  (The key also binds this
        module's source: see :meth:`deferred_query`.)
        """
        usable = _modelled(program_syscalls & self.relevant_syscalls)
        messages = (
            (tuple(usable), phase_privileges.to_mask(), repeat)
            if usable and repeat > 0 else ()
        )
        return (
            self.attack_id,
            tuple(uids),
            tuple(gids),
            messages,
            devmem_perms if self.attack_id in (1, 2) else None,
        )

    def deferred_query(
        self,
        phase_privileges: CapabilitySet,
        uids: Tuple[int, int, int],
        gids: Tuple[int, int, int],
        program_syscalls: FrozenSet[str],
        repeat: int = 1,
        label: str = "",
        devmem_perms: int = 0o640,
    ) -> DeferredQuery:
        """The query of :meth:`build_query`, keyed by its inputs and built
        by the engine only when neither its L1 nor its store answers."""
        return DeferredQuery(
            name=label or f"attack{self.attack_id}",
            source=builder_source(__name__),
            inputs=self._query_inputs(
                phase_privileges, uids, gids, program_syscalls, repeat, devmem_perms
            ),
            build=functools.partial(
                self.build_query, phase_privileges, uids, gids, program_syscalls,
                repeat=repeat, label=label, devmem_perms=devmem_perms,
            ),
        )

    def build_query(
        self,
        phase_privileges: CapabilitySet,
        uids: Tuple[int, int, int],
        gids: Tuple[int, int, int],
        program_syscalls: FrozenSet[str],
        repeat: int = 1,
        label: str = "",
        devmem_perms: int = 0o640,
    ) -> RosaQuery:
        """Build the ROSA query for one ChronoPriv phase.

        ``devmem_perms`` exposes the /dev/mem mode for sensitivity
        analysis: Ubuntu ships root:kmem 0o640 (the default); modelling
        it as 0o000 reproduces the paper's Table III verdicts for the
        euid-0 phases exactly (see EXPERIMENTS.md).
        """
        usable = program_syscalls & self.relevant_syscalls
        messages = _attack_messages(usable, phase_privileges, repeat)
        ruid, euid, suid = uids
        rgid, egid, sgid = gids
        target = model.process(
            PID_TARGET,
            euid=euid,
            ruid=ruid,
            suid=suid,
            egid=egid,
            rgid=rgid,
            sgid=sgid,
        )
        objects: List = [target]
        goal = self._goal()
        if self.attack_id in (1, 2):
            objects.append(
                model.file_obj(
                    FID_DEVMEM, name="/dev/mem", owner=UID_ROOT,
                    group=GID_KMEM, perms=devmem_perms,
                )
            )
            objects.append(
                model.dir_entry(
                    DID_DEV, name="/dev", owner=UID_ROOT, group=UID_ROOT,
                    perms=0o755, inode=FID_DEVMEM,
                )
            )
            objects.extend(
                _identity_objects(uids, gids, extra_uids=[UID_ROOT], extra_gids=[GID_KMEM])
            )
        elif self.attack_id == 3:
            objects.append(model.port_obj(OID_BASE_USERS - 2, PRIVILEGED_PORT))
            objects.append(model.port_obj(OID_BASE_USERS - 1, UNPRIVILEGED_PORT))
            objects.extend(_identity_objects(uids, gids))
        elif self.attack_id == 4:
            # The critical server, owned by another user (§VII-A).
            objects.append(
                model.process(
                    PID_SSHD,
                    euid=UID_SSHD_SERVICE, ruid=UID_SSHD_SERVICE,
                    suid=UID_SSHD_SERVICE,
                    egid=UID_SSHD_SERVICE, rgid=UID_SSHD_SERVICE,
                    sgid=UID_SSHD_SERVICE,
                )
            )
            objects.extend(
                _identity_objects(uids, gids, extra_uids=[UID_SSHD_SERVICE])
            )
        initial = Configuration(objects + messages)
        return RosaQuery(
            name=label or f"attack{self.attack_id}",
            initial=initial,
            goal=goal,
            description=self.description,
            # Attack goals are fully determined by the attack id (see
            # _goal), so the cache key need not introspect the closure.
            goal_key=("attack", self.attack_id),
        )

    def _goal(self):
        if self.attack_id == 1:
            return goals.file_opened_for_read(FID_DEVMEM)
        if self.attack_id == 2:
            return goals.file_opened_for_write(FID_DEVMEM)
        if self.attack_id == 3:
            return goals.socket_bound_to_privileged_port(pid=PID_TARGET)
        if self.attack_id == 4:
            return goals.process_terminated(PID_SSHD)
        raise ValueError(f"unknown attack id {self.attack_id}")


#: Syscalls that can contribute to file-access attacks (1 and 2).
_FILE_ATTACK_SYSCALLS = frozenset(
    {
        "open", "open_read", "open_write",
        "setuid", "seteuid", "setresuid",
        "setgid", "setegid", "setresgid", "setgroups",
        "chmod", "fchmod", "chown", "fchown",
        "unlink", "rename",
    }
)

READ_DEV_MEM = Attack(
    1,
    "read-devmem",
    "Read from /dev/mem to steal application data",
    _FILE_ATTACK_SYSCALLS,
)
WRITE_DEV_MEM = Attack(
    2,
    "write-devmem",
    "Write to /dev/mem to corrupt application data",
    _FILE_ATTACK_SYSCALLS,
)
BIND_PRIVILEGED_PORT = Attack(
    3,
    "bind-privileged-port",
    "Bind to a privileged port to masquerade as a server",
    frozenset({"socket", "bind", "connect"}),
)
KILL_SSHD = Attack(
    4,
    "kill-sshd",
    "Send a SIGKILL signal to kill the sshd server",
    frozenset({"kill", "setuid", "seteuid", "setresuid"}),
)

#: Table I, in order.
ALL_ATTACKS: Tuple[Attack, ...] = (
    READ_DEV_MEM,
    WRITE_DEV_MEM,
    BIND_PRIVILEGED_PORT,
    KILL_SSHD,
)

ATTACKS_BY_ID: Dict[int, Attack] = {attack.attack_id: attack for attack in ALL_ATTACKS}
