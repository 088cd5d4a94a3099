"""ChronoPriv's runtime: attribute instruction counts to privilege phases.

A *phase* is one combination of permitted capability set and process
credentials — the key of the paper's Table III rows.  The recorder hooks
the VM's ``__chrono_count`` intrinsic and attributes each block's count
to the phase in effect when the block starts; phases are numbered in
first-observation order and re-entering a previously seen combination
accumulates into the same row, exactly as the paper groups its results.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.caps import CapabilitySet
from repro.chronopriv.report import ChronoPhase, ChronoReport
from repro.oskernel import Kernel, Process

PhaseKey = Tuple[CapabilitySet, Tuple[int, int, int], Tuple[int, int, int]]


class ChronoRecorder:
    """Accumulates per-phase dynamic instruction counts for one process.

    The hot path is one increment per basic-block execution, so the
    recorder keeps a mutable one-element counter *cell* per phase and
    caches the cell for the phase currently in effect; a credential
    change invalidates the cached cell and the next count re-resolves
    it.  Rows materialise lazily on the first count attributed to a
    phase — entering a phase that never executes a block adds no row.
    """

    def __init__(self, program_name: str, process: Process) -> None:
        self.program_name = program_name
        self.process = process
        self._counts: Dict[PhaseKey, List[int]] = {}
        self._order: List[PhaseKey] = []
        self._current_key: Optional[PhaseKey] = None
        #: The current phase's counter cell, or ``None`` until the first
        #: count after a phase change resolves (and maybe creates) it.
        self._cell: Optional[List[int]] = None

    # -- wiring -------------------------------------------------------------------

    def attach(self, vm, kernel: Kernel) -> None:
        """Install the counting hooks and the credential-change observer.

        Both counting paths land here: the ``vm.chrono_count`` method the
        compiled core calls directly, overridden per-instance so spawned
        children — whose counter must stay inert until their own recorder
        attaches — are unaffected, and the ``__chrono_count`` intrinsic
        that the testkit's reference interpreter dispatches.
        """
        vm.register_intrinsic("__chrono_count", self._on_count)
        vm.chrono_count = self.count
        kernel.cred_observers.append(self._on_cred_change)
        self._refresh_key()

    def _on_cred_change(self, process: Process) -> None:
        if process.pid == self.process.pid:
            self._refresh_key()

    def _refresh_key(self) -> None:
        creds = self.process.creds
        self._current_key = (
            self.process.caps.permitted,
            creds.uid_triple,
            creds.gid_triple,
        )
        self._cell = None

    def count(self, count: int) -> int:
        """Attribute ``count`` instructions to the current phase.

        Returns 0: counting retires no instruction and raises no signal,
        so the VM frame has nothing to settle after it (see
        :meth:`repro.vm.interpreter.Interpreter.chrono_count`).
        """
        cell = self._cell
        if cell is None:
            key = self._current_key
            if key is None:  # pragma: no cover - attach() always sets it
                self._refresh_key()
                key = self._current_key
            cell = self._counts.get(key)
            if cell is None:
                cell = self._counts[key] = [0]
                self._order.append(key)
            self._cell = cell
        cell[0] += count
        return 0

    def _on_count(self, vm, args) -> int:
        return self.count(args[0])

    # -- results --------------------------------------------------------------------

    def report(self) -> ChronoReport:
        """The phase table in first-seen order, with percentages."""
        total = sum(cell[0] for cell in self._counts.values())
        phases = []
        for index, key in enumerate(self._order, start=1):
            permitted, uids, gids = key
            count = self._counts[key][0]
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
