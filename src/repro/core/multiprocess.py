"""Multi-process privilege analysis.

The PrivAnalyzer pipeline measures one process; forking programs
(privilege-separated servers) need per-process phase tables and an
aggregate risk metric.  This module runs a spec with a ChronoPriv
recorder attached to the main process *and* to every child spawned via
``spawn_wait``, and computes the instruction-weighted exposure across
all of them.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List

from repro.chronopriv import ChronoRecorder, ChronoReport
from repro.core.attacks import ALL_ATTACKS, Attack
from repro.core.extract import syscalls_used
from repro.core.pipeline import PrivAnalyzer
from repro.ir import Module
from repro.oskernel.setup import build_kernel
from repro.programs.common import ProgramSpec
from repro.rewriting import SearchBudget
from repro.rosa.engine import QueryCache, QueryEngine, QueryRequest
from repro.rosa.query import Verdict
from repro.vm import interpreter_class

#: The privsep study's search budget: one place to tighten it uniformly
#: across ``combined_exposure`` and ``exposure_table`` callers.
DEFAULT_MULTIPROCESS_BUDGET = SearchBudget(max_states=100_000, max_seconds=30.0)


@dataclasses.dataclass
class MultiProcessAnalysis:
    """Per-process ChronoPriv reports for one forking program run."""

    spec: ProgramSpec
    module: Module
    #: The main process's report first, then children in spawn order.
    reports: List[ChronoReport]
    stdout: List[str]
    exit_code: int
    #: Shared query engine: privsep phases repeat credential tuples across
    #: processes and attacks, so exposure computations reuse verdicts.
    engine: QueryEngine = dataclasses.field(
        default_factory=lambda: QueryEngine(cache=QueryCache()),
        repr=False,
        compare=False,
    )

    @property
    def total_instructions(self) -> int:
        return sum(report.total for report in self.reports)

    def syscall_surface(self) -> frozenset:
        return syscalls_used(self.module)

    def combined_exposure(
        self,
        attack: Attack,
        budget: SearchBudget = DEFAULT_MULTIPROCESS_BUDGET,
    ) -> float:
        """Fraction of all processes' instructions executed while the
        executing process was vulnerable to ``attack``."""
        surface = self.syscall_surface()
        total = self.total_instructions
        if total == 0:
            return 0.0
        phases = [
            phase for report in self.reports for phase in report.phases
        ]
        requests = [
            QueryRequest(
                attack.deferred_query(
                    phase.privileges, phase.uids, phase.gids, surface
                ),
                budget=budget,
            )
            for phase in phases
        ]
        vulnerable = sum(
            phase.instruction_count
            for phase, report in zip(phases, self.engine.run_queries(requests))
            if report.verdict is Verdict.VULNERABLE
        )
        return vulnerable / total

    def exposure_table(
        self, budget: SearchBudget = DEFAULT_MULTIPROCESS_BUDGET
    ) -> Dict[str, float]:
        """Combined exposure per modeled attack, by attack name."""
        return {
            attack.name: self.combined_exposure(attack, budget)
            for attack in ALL_ATTACKS
        }

    def render(self) -> str:
        chunks = []
        for report in self.reports:
            chunks.append(report.render())
        return "\n\n".join(chunks)


def analyze_multiprocess(
    spec: ProgramSpec, verdict_store=None
) -> MultiProcessAnalysis:
    """Compile, transform, instrument and run ``spec`` with per-process
    ChronoPriv recorders (main process + every ``spawn_wait`` child).

    ``verdict_store`` (a path or an open :class:`repro.rosa.store.
    SharedVerdictStore`) backs the analysis's query engine with the
    fleet-wide L2, so exposure tables across concurrent studies share
    their searches.
    """
    module, _, _ = PrivAnalyzer().compile(spec)

    kernel = build_kernel(refactored_ownership=spec.refactored_fs)
    process = kernel.spawn(spec.uid, spec.gid, permitted=spec.permitted)
    vm = interpreter_class()(
        module, kernel, process, argv=list(spec.argv), stdin=list(spec.stdin)
    )
    vm.env.update(spec.fresh_env())
    if spec.setup is not None:
        spec.setup(kernel, vm)

    main_recorder = ChronoRecorder(spec.name, process)
    main_recorder.attach(vm, kernel)
    child_recorders: List[ChronoRecorder] = []

    def on_child(child_vm) -> None:
        recorder = ChronoRecorder(
            f"{spec.name}-child{len(child_recorders) + 1}", child_vm.process
        )
        recorder.attach(child_vm, kernel)
        child_recorders.append(recorder)

    vm.child_observers.append(on_child)
    exit_code = vm.run()
    if exit_code != spec.expected_exit:
        raise RuntimeError(
            f"{spec.name}: workload exited with {exit_code}, "
            f"expected {spec.expected_exit}; stdout={vm.stdout!r}"
        )
    reports = [main_recorder.report()] + [
        recorder.report() for recorder in child_recorders
    ]
    analysis = MultiProcessAnalysis(
        spec=spec,
        module=module,
        reports=reports,
        stdout=vm.stdout,
        exit_code=exit_code,
    )
    if verdict_store is not None:
        if isinstance(verdict_store, (str, os.PathLike)):
            from repro.rosa.store import SharedVerdictStore

            verdict_store = SharedVerdictStore(verdict_store)
        analysis.engine.store = verdict_store
    return analysis
