"""The intrinsics table: what declared (external) functions do at runtime.

Three families:

* **AutoPriv runtime** — ``priv_raise`` / ``priv_lower`` / ``priv_remove``
  take a capability bit mask (the PrivC frontend exposes ``CAP_*``
  constants as single-bit masks that programs OR together), plus the
  ``prctl`` lockdown call the compiler inserts;
* **syscall wrappers** — thin bindings onto the simulated kernel using
  the C convention: non-negative success values, ``-errno`` on failure;
* **libc-ish helpers** — ``getspnam``, ``crypt``, string utilities, IO,
  and the workload plumbing (``net_accept`` etc.).  ``getspnam`` opens
  ``/etc/shadow`` through the kernel, so the DAC and capability checks
  apply exactly as they would to glibc's implementation.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.caps import Capability, CapabilitySet
from repro.oskernel import EINVAL, SyscallError
from repro.oskernel.setup import PRIMARY_GROUPS, USERNAMES, USER_IDS
from repro.ir import FunctionRef


def _syscall(fn: Callable) -> Callable:
    """Translate SyscallError into a C-style negative return value."""

    def wrapper(vm, args):
        try:
            return fn(vm, args)
        except SyscallError as error:
            return -error.errno_value

    return wrapper


def _mask_to_caps(mask: int) -> CapabilitySet:
    return CapabilitySet.from_mask(mask)


# -- AutoPriv runtime ---------------------------------------------------------


@_syscall
def _priv_raise(vm, args):
    return vm.kernel.sys_priv_raise(vm.process.pid, _mask_to_caps(args[0]))


@_syscall
def _priv_lower(vm, args):
    return vm.kernel.sys_priv_lower(vm.process.pid, _mask_to_caps(args[0]))


@_syscall
def _priv_remove(vm, args):
    return vm.kernel.sys_priv_remove(vm.process.pid, _mask_to_caps(args[0]))


@_syscall
def _prctl_lockdown(vm, args):
    return vm.kernel.sys_prctl_lockdown(vm.process.pid)


# -- credentials -----------------------------------------------------------------


def _make_getter(method: str):
    def getter(vm, args):
        return getattr(vm.kernel, method)(vm.process.pid)

    return getter


@_syscall
def _setuid(vm, args):
    return vm.kernel.sys_setuid(vm.process.pid, args[0])


@_syscall
def _seteuid(vm, args):
    return vm.kernel.sys_seteuid(vm.process.pid, args[0])


@_syscall
def _setresuid(vm, args):
    return vm.kernel.sys_setresuid(vm.process.pid, args[0], args[1], args[2])


@_syscall
def _setgid(vm, args):
    return vm.kernel.sys_setgid(vm.process.pid, args[0])


@_syscall
def _setegid(vm, args):
    return vm.kernel.sys_setegid(vm.process.pid, args[0])


@_syscall
def _setresgid(vm, args):
    return vm.kernel.sys_setresgid(vm.process.pid, args[0], args[1], args[2])


@_syscall
def _setgroups1(vm, args):
    """setgroups(2) with a single supplementary group (enough for su)."""
    return vm.kernel.sys_setgroups(vm.process.pid, (args[0],))


@_syscall
def _setgroups0(vm, args):
    """setgroups(2) clearing the supplementary list."""
    return vm.kernel.sys_setgroups(vm.process.pid, ())


# -- files -------------------------------------------------------------------------


@_syscall
def _open(vm, args):
    path, flags = args[0], args[1]
    mode = args[2] if len(args) > 2 else 0o600
    return vm.kernel.sys_open(vm.process.pid, path, flags, mode)


@_syscall
def _read(vm, args):
    return vm.kernel.sys_read(vm.process.pid, args[0])


@_syscall
def _write(vm, args):
    return vm.kernel.sys_write(vm.process.pid, args[0], args[1])


@_syscall
def _ftruncate(vm, args):
    return vm.kernel.sys_truncate_fd(vm.process.pid, args[0])


@_syscall
def _close(vm, args):
    return vm.kernel.sys_close(vm.process.pid, args[0])


@_syscall
def _chmod(vm, args):
    return vm.kernel.sys_chmod(vm.process.pid, args[0], args[1])


@_syscall
def _fchmod(vm, args):
    return vm.kernel.sys_fchmod(vm.process.pid, args[0], args[1])


@_syscall
def _chown(vm, args):
    return vm.kernel.sys_chown(vm.process.pid, args[0], args[1], args[2])


@_syscall
def _fchown(vm, args):
    return vm.kernel.sys_fchown(vm.process.pid, args[0], args[1], args[2])


@_syscall
def _unlink(vm, args):
    return vm.kernel.sys_unlink(vm.process.pid, args[0])


@_syscall
def _rename(vm, args):
    return vm.kernel.sys_rename(vm.process.pid, args[0], args[1])


@_syscall
def _access(vm, args):
    return vm.kernel.sys_access(vm.process.pid, args[0], args[1])


def _stat_field(field: str):
    @_syscall
    def stat_getter(vm, args):
        stat = vm.kernel.sys_stat(vm.process.pid, args[0])
        return getattr(stat, field)

    return stat_getter


def _stat_exists(vm, args):
    try:
        vm.kernel.sys_stat(vm.process.pid, args[0])
        return 1
    except SyscallError:
        return 0


@_syscall
def _chroot(vm, args):
    return vm.kernel.sys_chroot(vm.process.pid, args[0])


# -- sockets ------------------------------------------------------------------------


@_syscall
def _socket(vm, args):
    return vm.kernel.sys_socket(vm.process.pid)


@_syscall
def _socket_raw(vm, args):
    return vm.kernel.sys_socket(vm.process.pid, raw=True)


@_syscall
def _setsockopt(vm, args):
    return vm.kernel.sys_setsockopt(vm.process.pid, args[0], args[1])


@_syscall
def _bind(vm, args):
    return vm.kernel.sys_bind(vm.process.pid, args[0], args[1])


@_syscall
def _listen(vm, args):
    return vm.kernel.sys_listen(vm.process.pid, args[0])


@_syscall
def _connect(vm, args):
    return vm.kernel.sys_connect(vm.process.pid, args[0], args[1])


def _net_accept(vm, args):
    """Pop the next pending connection id the workload queued; -1 when done."""
    pending: List[int] = vm.env.setdefault("connections", [])
    return pending.pop(0) if pending else -1


def _net_recv(vm, args):
    incoming: List[str] = vm.env.setdefault("incoming", [])
    return incoming.pop(0) if incoming else ""


def _net_send(vm, args):
    vm.env.setdefault("sent", []).append(args[1])
    return len(args[1])


# -- signals ---------------------------------------------------------------------------


@_syscall
def _signal(vm, args):
    signum, handler = args
    if isinstance(handler, FunctionRef):
        handler_name = handler.function.name
    else:
        handler_name = handler  # SIG_IGN / SIG_DFL strings
    return vm.kernel.sys_signal(vm.process.pid, signum, handler_name)


@_syscall
def _kill(vm, args):
    return vm.kernel.sys_kill(vm.process.pid, args[0], args[1])


def _getpid(vm, args):
    return vm.process.pid


def _spawn_wait(vm, args):
    """fork(2) + run the child + waitpid(2), collapsed into one call.

    ``spawn_wait(&child_main, arg)`` forks a child process (inheriting
    credentials and capability sets), executes ``child_main(arg)`` in it
    to completion, and returns the child's exit code to the parent.  The
    VM is single-threaded, so running the child to completion before the
    parent resumes models the fork/handle/waitpid structure of forking
    servers whose parent blocks on the child (sshd -d, su).

    The child shares the parent's module, kernel and workload environment
    but has its own process (fresh descriptor table) and its own stdout.
    Observers registered via ``vm.child_observers`` are called with the
    child VM before it runs — ChronoPriv uses this to attach a per-process
    recorder.
    """
    from repro.ir import FunctionRef
    from repro.vm.interpreter import ProgramExit

    handler, arg = args[0], args[1] if len(args) > 1 else 0
    if not isinstance(handler, FunctionRef):
        return -EINVAL
    child_process = vm.kernel.sys_fork(vm.process.pid)
    # fork(2) clones the parent's execution engine: a reference or
    # instrumented interpreter subclass spawns children of its own kind.
    child_vm = type(vm)(vm.module, vm.kernel, child_process, argv=vm.argv)
    child_vm.env = vm.env  # share the workload queues
    # fork(2) copies the address space: globals carry their current
    # values into the child, then diverge.
    for var, slot in vm.globals.items():
        child_vm.globals[var].value = slot.value
    # Copy the intrinsics table so per-process hooks diverge.  Phases are
    # per-process, so the child counts with the stock hook into its own
    # ``chrono_total``, which an observer's recorder books; a parent's
    # custom hook (only the reference interpreter runs one) is not
    # inherited, and an observer may install the child's own.
    child_vm.intrinsics = dict(vm.intrinsics)
    child_vm.register_intrinsic("__chrono_count", stock_chrono_count)
    for observer in vm.child_observers:
        observer(child_vm)
    try:
        result = child_vm.call_function(handler.function, [arg])
        exit_code = result if isinstance(result, int) else 0
    except ProgramExit as stop:
        exit_code = stop.code
    vm.kernel.sys_exit(child_process.pid)
    vm.stdout.extend(child_vm.stdout)
    vm.children.append(child_vm)
    return exit_code


def _exit(vm, args):
    from repro.vm.interpreter import ProgramExit

    raise ProgramExit(args[0] if args else 0)


# -- libc-ish helpers -----------------------------------------------------------------------


def _getspnam(vm, args):
    """Look up a user's password hash in /etc/shadow.

    Returns "" when the user is absent *or* when the process lacks
    permission to read the shadow database — which is the behaviour the
    programs under study check for (§VII-C: passwd/su need
    CAP_DAC_READ_SEARCH here).
    """
    username = args[0]
    try:
        fd = vm.kernel.sys_open(vm.process.pid, "/etc/shadow", "r")
    except SyscallError:
        return ""
    content = vm.kernel.sys_read(vm.process.pid, fd)
    vm.kernel.sys_close(vm.process.pid, fd)
    for line in content.splitlines():
        fields = line.split(":")
        if fields and fields[0] == username:
            return fields[1]
    return ""


def _update_shadow_hash(content: str, username: str, new_hash: str) -> str:
    lines = []
    for line in content.splitlines():
        fields = line.split(":")
        if fields and fields[0] == username:
            fields[1] = new_hash
            line = ":".join(fields)
        lines.append(line)
    return "\n".join(lines) + "\n"


def _shadow_replace_hash(vm, args):
    """Pure helper: rewrite one user's hash within shadow-format text."""
    return _update_shadow_hash(args[0], args[1], args[2])


def _getpwnam_uid(vm, args):
    return USER_IDS.get(args[0], -1)


def _getpwuid_name(vm, args):
    return USERNAMES.get(args[0], "")


def _getpw_gid(vm, args):
    """Primary group of a uid (from the passwd database)."""
    return PRIMARY_GROUPS.get(args[0], -1)


def _crypt(vm, args):
    """A stand-in for crypt(3): deterministic, salt-prefixed."""
    password = args[0]
    return f"$6${password}"


# -- strings ----------------------------------------------------------------------------------


def _streq(vm, args):
    return int(args[0] == args[1])


def _strlen(vm, args):
    return len(args[0])


def _strcat(vm, args):
    return args[0] + args[1]


def _str_field(vm, args):
    """Split ``args[0]`` on ``args[2]`` and return field ``args[1]`` ("" if absent)."""
    text, index, sep = args
    fields = text.split(sep)
    return fields[index] if 0 <= index < len(fields) else ""


def _int_to_str(vm, args):
    return str(args[0])


def _str_to_int(vm, args):
    """atoi(3): leading integer, 0 when unparsable."""
    text = str(args[0]).strip()
    negative = text.startswith("-")
    if negative:
        text = text[1:]
    digits = ""
    for char in text:
        if not char.isdigit():
            break
        digits += char
    if not digits:
        return 0
    return -int(digits) if negative else int(digits)


# -- IO and environment ----------------------------------------------------------------------


def _print_str(vm, args):
    vm.stdout.append(str(args[0]))
    return 0


def _print_int(vm, args):
    vm.stdout.append(str(args[0]))
    return 0


def _read_line(vm, args):
    return vm.stdin.pop(0) if vm.stdin else ""


def _getpass(vm, args):
    return vm.stdin.pop(0) if vm.stdin else ""


def _argc(vm, args):
    return len(vm.argv)


def _arg_str(vm, args):
    index = args[0]
    return vm.argv[index] if 0 <= index < len(vm.argv) else ""


def _sleep(vm, args):
    return 0


def stock_chrono_count(vm, args):
    """ChronoPriv's stock per-block hook: adds the block's count to
    ``vm.chrono_total``, which :class:`repro.chronopriv.ChronoRecorder`
    books per phase.  The generated core inlines it as that one addition
    and runs no other hook (see :mod:`repro.vm.compiled`); a custom
    ``__chrono_count`` runs only under the reference interpreter."""
    vm.chrono_total += args[0]
    return 0


#: Intrinsics that enter the simulated kernel (the VM's telemetry counts
#: dispatches to these as syscalls; libc-ish helpers and workload plumbing
#: are excluded, but note ``getspnam`` opens /etc/shadow internally).
SYSCALL_INTRINSICS = frozenset({
    "priv_raise", "priv_lower", "priv_remove", "prctl_lockdown",
    "getuid", "geteuid", "getgid", "getegid",
    "setuid", "seteuid", "setresuid", "setgid", "setegid", "setresgid",
    "setgroups1", "setgroups0",
    "open", "read", "write", "ftruncate", "close",
    "chmod", "fchmod", "chown", "fchown", "unlink", "rename", "access",
    "stat_owner", "stat_group", "stat_mode", "stat_exists", "chroot",
    "socket", "socket_raw", "setsockopt", "bind", "listen", "connect",
    "signal", "kill", "spawn_wait", "exit",
})

#: The stock helpers that read nothing but their arguments (no kernel,
#: process, workload or VM state) and run no VM code: name -> the stock
#: function.  The generated core calls one straight from its call site
#: while the VM's entry for it is still this function (see
#: :meth:`repro.vm.compiled._Runtime.call_intrinsic`).  Disjoint from
#: :data:`SYSCALL_INTRINSICS`; ``getspnam`` opens a file, and the IO and
#: workload helpers use the VM's queues, so none of them is here.
PURE_INTRINSICS: Dict[str, Callable] = {
    "strlen": _strlen,
    "strcat": _strcat,
    "streq": _streq,
    "str_field": _str_field,
    "int_to_str": _int_to_str,
    "str_to_int": _str_to_int,
    "crypt": _crypt,
    "getpw_gid": _getpw_gid,
    "getpwnam_uid": _getpwnam_uid,
    "getpwuid_name": _getpwuid_name,
    "shadow_replace_hash": _shadow_replace_hash,
}


def default_intrinsics() -> Dict[str, Callable]:
    """The full intrinsics table a fresh interpreter starts with."""
    return {
        # AutoPriv runtime
        "priv_raise": _priv_raise,
        "priv_lower": _priv_lower,
        "priv_remove": _priv_remove,
        "prctl_lockdown": _prctl_lockdown,
        # credentials
        "getuid": _make_getter("sys_getuid"),
        "geteuid": _make_getter("sys_geteuid"),
        "getgid": _make_getter("sys_getgid"),
        "getegid": _make_getter("sys_getegid"),
        "setuid": _setuid,
        "seteuid": _seteuid,
        "setresuid": _setresuid,
        "setgid": _setgid,
        "setegid": _setegid,
        "setresgid": _setresgid,
        "setgroups1": _setgroups1,
        "setgroups0": _setgroups0,
        # files
        "open": _open,
        "read": _read,
        "write": _write,
        "ftruncate": _ftruncate,
        "close": _close,
        "chmod": _chmod,
        "fchmod": _fchmod,
        "chown": _chown,
        "fchown": _fchown,
        "unlink": _unlink,
        "rename": _rename,
        "access": _access,
        "stat_owner": _stat_field("owner"),
        "stat_group": _stat_field("group"),
        "stat_mode": _stat_field("mode"),
        "stat_exists": _stat_exists,
        "chroot": _chroot,
        # sockets
        "socket": _socket,
        "socket_raw": _socket_raw,
        "setsockopt": _setsockopt,
        "bind": _bind,
        "listen": _listen,
        "connect": _connect,
        "net_accept": _net_accept,
        "net_recv": _net_recv,
        "net_send": _net_send,
        # signals / process
        "signal": _signal,
        "kill": _kill,
        "getpid": _getpid,
        "spawn_wait": _spawn_wait,
        "exit": _exit,
        # libc-ish
        "getspnam": _getspnam,
        "shadow_replace_hash": _shadow_replace_hash,
        "getpwnam_uid": _getpwnam_uid,
        "getpwuid_name": _getpwuid_name,
        "getpw_gid": _getpw_gid,
        "crypt": _crypt,
        "streq": _streq,
        "strlen": _strlen,
        "strcat": _strcat,
        "str_field": _str_field,
        "int_to_str": _int_to_str,
        "str_to_int": _str_to_int,
        # IO / environment
        "print_str": _print_str,
        "print_int": _print_int,
        "read_line": _read_line,
        "getpass": _getpass,
        "argc": _argc,
        "arg_str": _arg_str,
        "sleep": _sleep,
        # ChronoPriv's per-block counter
        "__chrono_count": stock_chrono_count,
    }
