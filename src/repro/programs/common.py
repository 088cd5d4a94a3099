"""Program specifications: everything needed to build and run one model.

A :class:`ProgramSpec` bundles a program's PrivC source with its launch
configuration — the permitted capability set it is installed with, the
invoking user, command-line arguments, stdin, and the workload
environment (pending connections for servers, passwords typed at
prompts).  The PrivAnalyzer pipeline consumes specs; the five paper
programs and the two refactored variants live in sibling modules.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Tuple

from repro.caps import CapabilitySet
from repro.oskernel.setup import GID_USER, UID_USER


def source_sloc(source: str) -> int:
    """Non-blank, non-comment source lines (the sloccount analogue)."""
    count = 0
    in_block_comment = False
    for line in source.splitlines():
        stripped = line.strip()
        if in_block_comment:
            if "*/" in stripped:
                in_block_comment = False
            continue
        if not stripped or stripped.startswith("//"):
            continue
        if stripped.startswith("/*"):
            if "*/" not in stripped:
                in_block_comment = True
            continue
        count += 1
    return count


@dataclasses.dataclass
class ProgramSpec:
    """One analysable program plus its workload."""

    name: str
    description: str
    source: str
    #: The permitted set the program is installed with (§VII-B).
    permitted: CapabilitySet
    uid: int = UID_USER
    gid: int = GID_USER
    argv: Tuple[str, ...] = ()
    stdin: Tuple[str, ...] = ()
    #: Extra VM environment (e.g. pending connections for servers).
    env: Dict[str, object] = dataclasses.field(default_factory=dict)
    #: Build the kernel with the refactored file ownership (§VII-D)?
    refactored_fs: bool = False
    #: Optional extra machine setup, called with (kernel, vm) before run.
    setup: Optional[Callable] = None
    expected_exit: int = 0

    def fresh_env(self) -> Dict[str, object]:
        """A copy of :attr:`env` that one run may consume.

        The VM's network intrinsics pop the workload queues (``connections``,
        ``incoming``) as the program runs, so every run gets its own lists;
        the spec's stay intact and a second run replays the same workload.
        """
        return {
            key: list(value) if isinstance(value, list) else value
            for key, value in self.env.items()
        }

    @property
    def sloc(self) -> int:
        return source_sloc(self.source)
