"""PrivC models of the paper's test programs (Table II) and refactors.

Each module exposes a ``spec()`` returning the
:class:`~repro.programs.common.ProgramSpec` for that program with the
paper's §VII-B workload.  ``PROGRAM_MODULES`` registers every model
by name: the Table III programs, the Table V refactors and the corpus
exemplars.
"""

from repro.programs import (
    atd,
    backupd,
    containershim,
    crond,
    greedyd,
    inetd,
    logrotated,
    ntpd,
    passwd,
    passwd_refactored,
    ping,
    sshd,
    sshd_privsep,
    su,
    su_refactored,
    sudohelper,
    thttpd,
    udevd,
    vsftpd,
)
from repro.programs.common import ProgramSpec, source_sloc


PROGRAM_MODULES = {
    "passwd": passwd,
    "ping": ping,
    "sshd": sshd,
    "sshdPrivsep": sshd_privsep,
    "su": su,
    "thttpd": thttpd,
    "passwdRef": passwd_refactored,
    "suRef": su_refactored,
    # Scenario-corpus exemplars (docs/CORPUS.md); each module carries a
    # FAMILY attribute naming its peer group.
    "atd": atd,
    "backupd": backupd,
    "containershim": containershim,
    "crond": crond,
    "greedyd": greedyd,
    "inetd": inetd,
    "logrotated": logrotated,
    "ntpd": ntpd,
    "sudohelper": sudohelper,
    "udevd": udevd,
    "vsftpd": vsftpd,
}

#: The corpus exemplar names, in registry order.
EXEMPLAR_NAMES = tuple(
    name for name, module in PROGRAM_MODULES.items() if hasattr(module, "FAMILY")
)


def spec_by_name(name: str) -> ProgramSpec:
    """Look up any program spec (original or refactored) by name."""
    try:
        return PROGRAM_MODULES[name].spec()
    except KeyError:
        raise KeyError(
            f"unknown program {name!r}; choose from {sorted(PROGRAM_MODULES)}"
        ) from None


__all__ = [
    "ALL_PROGRAM_NAMES",
    "EXEMPLAR_NAMES",
    "PROGRAM_MODULES",
    "ProgramSpec",
    "source_sloc",
    "spec_by_name",
]

ALL_PROGRAM_NAMES = tuple(PROGRAM_MODULES)
