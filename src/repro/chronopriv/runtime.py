"""ChronoPriv's runtime: attribute instruction counts to privilege phases.

A *phase* is one combination of permitted capability set and process
credentials — the key of the paper's Table III rows.  Every
instrumented block adds its count to its VM's ``chrono_total`` when it
starts (the stock ``__chrono_count`` hook, which the generated core
inlines), so a block's count belongs to the phase in effect when the
block starts.  The recorder books the growth of that total to the phase
in effect at each credential change of its process; phases are numbered
in first-observation order and re-entering a previously seen
combination accumulates into the same row, exactly as the paper groups
its results.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple

from repro.caps import CapabilitySet
from repro.chronopriv.report import ChronoPhase, ChronoReport
from repro.oskernel import Kernel, Process

PhaseKey = Tuple[CapabilitySet, Tuple[int, int, int], Tuple[int, int, int]]


class ChronoRecorder:
    """Accumulates per-phase dynamic instruction counts for one process.

    Nothing runs per block: the VM sums block counts into
    ``vm.chrono_total``, and the recorder books ``vm.chrono_total -
    mark`` to the phase key that was in effect, on each credential
    change of its process and again in :meth:`report`.  A row is made
    only for a positive amount, so a phase that enters no block gets no
    row, and rows keep the order of their first counted block.  A
    ``spawn_wait`` child counts into its own VM's total, for its own
    recorder.

    The kernel's observer list holds the recorder weakly: the recorder
    holds its VM and the VM holds the kernel, so a strong reference back
    would make every analyzed VM garbage that only the cyclic collector
    frees.  Keep the recorder for as long as it should record.
    """

    def __init__(self, program_name: str, process: Process) -> None:
        self.program_name = program_name
        self.process = process
        self._counts: Dict[PhaseKey, int] = {}
        self._vm = None
        #: ``vm.chrono_total`` when the phase in effect began.
        self._mark = 0
        self._key: Optional[PhaseKey] = None

    # -- wiring -------------------------------------------------------------------

    def attach(self, vm, kernel: Kernel) -> None:
        """Start booking ``vm``'s counts and observe credential changes."""
        self._vm = vm
        self._mark = vm.chrono_total
        self._key = self._current_key()
        observe = weakref.WeakMethod(self._on_cred_change)

        def notify(process: Process) -> None:
            bound = observe()
            if bound is not None:
                bound(process)

        kernel.cred_observers.append(notify)

    def _current_key(self) -> PhaseKey:
        creds = self.process.creds
        return (self.process.caps.permitted, creds.uid_triple, creds.gid_triple)

    def _on_cred_change(self, process: Process) -> None:
        if process.pid == self.process.pid:
            self._book()
            self._key = self._current_key()

    def _book(self) -> None:
        """Book the count since the mark to the phase in effect."""
        total = self._vm.chrono_total
        delta = total - self._mark
        if delta > 0:
            self._counts[self._key] = self._counts.get(self._key, 0) + delta
            self._mark = total

    # -- results --------------------------------------------------------------------

    def report(self) -> ChronoReport:
        """The phase table in first-seen order, with percentages."""
        if self._vm is not None:
            self._book()
        total = sum(self._counts.values())
        phases = []
        for index, (key, count) in enumerate(self._counts.items(), start=1):
            permitted, uids, gids = key
            phases.append(
                ChronoPhase(
                    name=f"{self.program_name}_priv{index}",
                    privileges=permitted,
                    uids=uids,
                    gids=gids,
                    instruction_count=count,
                    percent=(100.0 * count / total) if total else 0.0,
                )
            )
        return ChronoReport(program=self.program_name, phases=phases, total=total)
