"""The PrivAnalyzer pipeline: AutoPriv → ChronoPriv → ROSA (Figure 1).

:class:`PrivAnalyzer` drives the three stages over one
:class:`~repro.programs.common.ProgramSpec`:

1. compile the PrivC source, run the AutoPriv transform (insert
   ``priv_remove`` at privilege-death points plus the prctl lockdown),
   and add ChronoPriv's counting instrumentation;
2. execute the instrumented program on a fresh simulated machine with
   the paper's workload, recording privilege/credential phases;
3. for every observed phase and every modeled attack, ask ROSA one
   query (built only when no cache or store answers it), yielding the
   ✓/✗/⊙ verdict grid of Tables III and V.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import os
from typing import Dict, List, Optional, Sequence

from repro.autopriv import TransformReport, transform_module
from repro.chronopriv import (
    ChronoPhase,
    ChronoRecorder,
    ChronoReport,
    InstrumentationReport,
    instrument_module,
)
from repro.core.attacks import ALL_ATTACKS, Attack
from repro.core.extract import syscalls_used
from repro.frontend import compile_source
from repro.ir import Module, verify_module
from repro.oskernel.setup import build_kernel
from repro.programs.common import ProgramSpec
from repro.rewriting import SearchBudget
from repro.rosa.engine import QueryCache, QueryEngine, QueryRequest
from repro.rosa.query import RosaReport, Verdict
from repro.telemetry import Telemetry
from repro.vm import interpreter_class

logger = logging.getLogger("repro.pipeline")


@dataclasses.dataclass
class PhaseAnalysis:
    """One Table III row: a phase and its per-attack verdicts."""

    phase: ChronoPhase
    verdicts: Dict[int, RosaReport]

    def vulnerable_to(self, attack_id: int) -> bool:
        report = self.verdicts.get(attack_id)
        return report is not None and report.verdict is Verdict.VULNERABLE

    def vulnerable_to_any(self) -> bool:
        return any(self.vulnerable_to(attack_id) for attack_id in self.verdicts)

    def symbols(self) -> str:
        return " ".join(
            self.verdicts[attack_id].verdict.symbol for attack_id in sorted(self.verdicts)
        )


@dataclasses.dataclass
class ProgramAnalysis:
    """Everything PrivAnalyzer learned about one program."""

    spec: ProgramSpec
    module: Module
    transform: TransformReport
    instrumentation: InstrumentationReport
    chrono: ChronoReport
    syscalls: frozenset
    phases: List[PhaseAnalysis]
    exit_code: int
    stdout: List[str]

    # -- the paper's headline metrics -------------------------------------------

    def vulnerability_window(self, attack_id: int, timeout_vulnerable: bool = False) -> float:
        """Fraction (0–1) of dynamic instructions executed while the
        program was vulnerable to ``attack_id``.

        ``timeout_vulnerable`` counts ⊙ phases as vulnerable; the paper
        counts them as invulnerable (§VII-D2), the default here.
        """
        if self.chrono.total == 0:
            return 0.0
        vulnerable = 0
        for phase_analysis in self.phases:
            report = phase_analysis.verdicts.get(attack_id)
            if report is None:
                continue
            hit = report.verdict is Verdict.VULNERABLE or (
                timeout_vulnerable and report.verdict is Verdict.TIMEOUT
            )
            if hit:
                vulnerable += phase_analysis.phase.instruction_count
        return vulnerable / self.chrono.total

    def invulnerable_window(self) -> float:
        """Fraction of instructions in phases invulnerable to *all* attacks."""
        if self.chrono.total == 0:
            return 1.0
        safe = sum(
            phase_analysis.phase.instruction_count
            for phase_analysis in self.phases
            if not phase_analysis.vulnerable_to_any()
        )
        return safe / self.chrono.total

    def render_table(self) -> str:
        """A Table III / Table V style text table."""
        attack_ids = sorted(self.phases[0].verdicts) if self.phases else []
        header = (
            f"{'Name':<20} {'Privileges':<58} {'UID r,e,s':<15} {'GID r,e,s':<15} "
            f"{'Dyn. Instr. Count':>22}  " + " ".join(str(a) for a in attack_ids)
        )
        lines = [header, "-" * len(header)]
        for phase_analysis in self.phases:
            phase = phase_analysis.phase
            lines.append(
                f"{phase.name:<20} {phase.privileges.describe():<58} "
                f"{phase.describe_uids():<15} {phase.describe_gids():<15} "
                f"{phase.instruction_count:>12,} ({phase.percent:5.2f}%)  "
                + phase_analysis.symbols()
            )
        return "\n".join(lines)


class PrivAnalyzer:
    """The tool: measure how effectively one program uses Linux privileges."""

    def __init__(
        self,
        attacks: Sequence[Attack] = ALL_ATTACKS,
        budget: Optional[SearchBudget] = None,
        indirect_targets_filter: str = "address-taken",
        message_repeat: int = 1,
        optimize: bool = False,
        telemetry: Optional[Telemetry] = None,
        verdict_store=None,
    ) -> None:
        self.attacks = tuple(attacks)
        self.budget = budget or SearchBudget(max_states=200_000, max_seconds=60.0)
        self.indirect_targets_filter = indirect_targets_filter
        self.message_repeat = message_repeat
        self.optimize = optimize
        #: Observability sink: spans per pipeline stage, VM/search metrics,
        #: (when its ``audit`` is set) a kernel syscall audit trail, and
        #: (when its ``profiler`` is live) per-rule search attribution plus
        #: per-opcode and per-intrinsic timers compiled into the dynamic
        #: stage's VM (:meth:`Interpreter.attach_profiler`).  Verdicts and
        #: exposure tables are bit-identical either way.
        self.telemetry = telemetry or Telemetry.disabled()
        #: ``verdict_store`` is the fleet-wide L2 (see
        #: :mod:`repro.rosa.store`): a store object, or a directory path
        #: to open one at.  Sibling analyzers — other processes, sweep
        #: workers, ``privanalyzer serve`` handlers — sharing the
        #: directory compute each distinct search exactly once.
        if isinstance(verdict_store, (str, os.PathLike)):
            from repro.rosa.store import SharedVerdictStore

            verdict_store = SharedVerdictStore(verdict_store)
        #: The ROSA query engine: dedupes/caches/schedules the phase × attack
        #: queries.  Phases sharing a credential tuple search once, and one
        #: analyzer carries answers across programs/table regenerations.
        self.engine = QueryEngine(
            budget=self.budget,
            cache=QueryCache(),
            telemetry=self.telemetry,
            store=verdict_store,
        )

    # -- stage 1: compile + AutoPriv + ChronoPriv ---------------------------------

    def content_key(self, spec: ProgramSpec) -> str:
        """A digest of everything :meth:`compile` reads: the spec's
        source, name and permitted set, and this analyzer's compile
        options.  Two compiles with one key build the same IR."""
        identity = "\0".join((
            spec.name,
            spec.permitted.describe(),
            str(self.optimize),
            self.indirect_targets_filter,
            spec.source,
        ))
        return hashlib.sha256(identity.encode()).hexdigest()

    def compile(self, spec: ProgramSpec) -> tuple:
        """Compile the spec's source and run both compiler stages."""
        from repro.ir.passes import optimize_module

        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        with tracer.span("compile", program=spec.name):
            with tracer.span("frontend.compile"):
                module = compile_source(spec.source, spec.name)
            if self.optimize:
                with tracer.span("ir.optimize"):
                    optimize_module(module)
            with tracer.span("autopriv.transform") as span:
                transform = transform_module(
                    module,
                    spec.permitted,
                    indirect_targets_filter=self.indirect_targets_filter,
                )
                span.set_attribute("insertions", transform.insertion_count)
            for pass_name, seconds in transform.timings.items():
                metrics.histogram(f"autopriv.{pass_name}_seconds").observe(seconds)
            with tracer.span("chronopriv.instrument") as span:
                instrumentation = instrument_module(module)
                span.set_attribute("blocks", instrumentation.blocks_instrumented)
            with tracer.span("ir.verify"):
                verify_module(module)
        module.content_key = self.content_key(spec)
        logger.debug(
            "%s: compiled (%d priv_remove insertions, %d blocks instrumented)",
            spec.name, transform.insertion_count, instrumentation.blocks_instrumented,
        )
        return module, transform, instrumentation

    # -- stage 2: dynamic analysis --------------------------------------------------

    def run_dynamic(self, spec: ProgramSpec, module: Module) -> tuple:
        """Execute the instrumented program with the spec's workload."""
        with self.telemetry.tracer.span("chronopriv-run", program=spec.name) as span:
            kernel = build_kernel(refactored_ownership=spec.refactored_fs)
            if self.telemetry.audit is not None:
                kernel.enable_audit(self.telemetry.audit)
            process = kernel.spawn(spec.uid, spec.gid, permitted=spec.permitted)
            vm = interpreter_class()(
                module, kernel, process, argv=list(spec.argv), stdin=list(spec.stdin),
                metrics=self.telemetry.metrics,
            )
            vm.attach_profiler(self.telemetry.profiler)
            vm.env.update(spec.fresh_env())
            recorder = ChronoRecorder(spec.name, process)
            recorder.attach(vm, kernel)
            if spec.setup is not None:
                spec.setup(kernel, vm)
            # Block bookkeeping, the entry function's code generation and
            # the timers' own cost sit between the timed statements: the
            # root books them as the derived ``vm;interp.loop``.
            with self.telemetry.profiler.root("vm", "interp.loop"):
                exit_code = vm.run()
            span.set_attribute("instructions", vm.executed_instructions)
            span.set_attribute("exit_code", exit_code)
        logger.debug(
            "%s: workload ran %d instructions, exit %d",
            spec.name, vm.executed_instructions, exit_code,
        )
        return recorder.report(), exit_code, vm.stdout

    # -- stage 3: bounded model checking ----------------------------------------------

    def check_phase(
        self, phase: ChronoPhase, program_syscalls: frozenset
    ) -> PhaseAnalysis:
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        verdicts: Dict[int, RosaReport] = {}
        with tracer.span("rosa.check-phase", phase=phase.name):
            requests = [
                QueryRequest(
                    attack.deferred_query(
                        phase.privileges,
                        phase.uids,
                        phase.gids,
                        program_syscalls,
                        repeat=self.message_repeat,
                        label=f"{phase.name}/attack{attack.attack_id}",
                    ),
                    budget=self.budget,
                )
                for attack in self.attacks
            ]
            reports = self.engine.run_queries(requests)
            for attack, report in zip(self.attacks, reports):
                verdicts[attack.attack_id] = report
                metrics.counter("rosa.queries").inc()
                metrics.counter(f"rosa.verdict.{report.verdict.value}").inc()
                metrics.histogram("rosa.query_seconds").observe(report.elapsed)
                metrics.histogram("rosa.states_seen").observe(report.states_seen)
                metrics.gauge("rosa.peak_frontier").set_max(report.stats.peak_frontier)
        return PhaseAnalysis(phase=phase, verdicts=verdicts)

    # -- the whole pipeline ----------------------------------------------------------------

    def analyze(self, spec: ProgramSpec) -> ProgramAnalysis:
        with self.telemetry.tracer.span("pipeline.analyze", program=spec.name) as span:
            module, transform, instrumentation = self.compile(spec)
            chrono, exit_code, stdout = self.run_dynamic(spec, module)
            if exit_code != spec.expected_exit:
                raise RuntimeError(
                    f"{spec.name}: workload exited with {exit_code}, "
                    f"expected {spec.expected_exit}; stdout={stdout!r}"
                )
            with self.telemetry.tracer.span("extract.syscalls"):
                program_syscalls = syscalls_used(module)
            phases = [
                self.check_phase(phase, program_syscalls) for phase in chrono.phases
            ]
            span.set_attribute("phases", len(phases))
        logger.info(
            "%s: %d phases, %d ROSA queries",
            spec.name, len(phases), len(phases) * len(self.attacks),
        )
        return ProgramAnalysis(
            spec=spec,
            module=module,
            transform=transform,
            instrumentation=instrumentation,
            chrono=chrono,
            syscalls=program_syscalls,
            phases=phases,
            exit_code=exit_code,
            stdout=stdout,
        )
