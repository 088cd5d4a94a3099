"""The compiled core's instrumented mode: timers that never change what runs.

A profiled run compiles per-opcode and per-intrinsic timers into the
same closures an unprofiled run executes.  These tests pin down that
the timers are absent without a live profiler, that they leave the
instruction accounting (block pre-adds, baked tails, the budget slow
path) exactly as it was, and that ``spawn_wait`` children are timed too.
"""

import time

import pytest

from repro.chronopriv import ChronoRecorder, instrument_module
from repro.core.pipeline import PrivAnalyzer
from repro.frontend import compile_source
from repro.oskernel import Kernel
from repro.oskernel.setup import build_kernel
from repro.programs import spec_by_name
from repro.telemetry import ManualClock, Profiler, Telemetry
from repro.testkit.reference import ReferenceInterpreter
from repro.vm import Interpreter, ProgramExit, VMError

#: Calls, chrono counters and a loop: every block kind the compiler emits.
LOOP_SOURCE = """
int helper(int x) {
    return x * 3 + 1;
}
void main() {
    int i = 0;
    int total = 0;
    while (i < 12) { total = total + helper(i); i = i + 1; }
    print_int(total);
}
"""

#: Divides by zero inside a callee, mid-block, after several iterations:
#: the caller's call step must unwind its baked tail.
DIVIDE_SOURCE = """
int divide(int a, int b) {
    int q = a / b;
    return q + 1;
}
void main() {
    int i = 3;
    int total = 0;
    while (i >= 0) { total = total + divide(12, i); i = i - 1; }
    print_int(total);
}
"""


BUDGET_MESSAGE = "instruction budget exhausted (runaway program?)"


class CountingClock(ManualClock):
    def __init__(self) -> None:
        super().__init__(tick=1e-6)
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        return super().__call__()


def _op_calls(profiler):
    return sum(
        record.calls
        for stack, record in profiler.records.items()
        if stack[0] == "vm" and stack[-1].startswith("op:")
    )


def _run(module, interpreter=Interpreter, profiler=None, budget=10_000):
    kernel = Kernel()
    vm = interpreter(
        module, kernel, kernel.spawn(1000, 1000), max_instructions=budget
    )
    vm.attach_profiler(profiler)
    try:
        outcome = vm.run()
    except VMError as error:
        outcome = ("vmerror", str(error))
    return outcome, vm.executed_instructions, tuple(vm.stdout)


def _instrumented(source):
    module = compile_source(source)
    instrument_module(module)
    return module


def _dynamic(program, profiler):
    spec = spec_by_name(program)
    telemetry = Telemetry() if profiler is None else Telemetry(profiler=profiler)
    analyzer = PrivAnalyzer(telemetry=telemetry)
    module = analyzer.compile(spec)[0]
    return analyzer.run_dynamic(spec, module)


class TestUnprofiledRunsReadNoClock:
    def test_no_profiler(self, monkeypatch):
        spec = spec_by_name("passwd")
        analyzer = PrivAnalyzer()
        module = analyzer.compile(spec)[0]
        reads = []
        for name in ("monotonic", "perf_counter", "time"):
            real = getattr(time, name)
            monkeypatch.setattr(
                time, name, lambda _real=real: reads.append(1) or _real()
            )
        _, exit_code, _ = analyzer.run_dynamic(spec, module)
        monkeypatch.undo()
        assert exit_code == 0
        assert reads == []

    def test_disabled_profiler(self):
        clock = CountingClock()
        profiler = Profiler(enabled=False, clock=clock)
        _, exit_code, _ = _dynamic("passwd", profiler)
        assert exit_code == 0
        assert clock.calls == 0
        assert profiler.records == {}

    def test_disabled_profiler_attaches_nothing(self):
        module = _instrumented(LOOP_SOURCE)
        kernel = Kernel()
        vm = Interpreter(module, kernel, kernel.spawn(1000, 1000))
        vm.attach_profiler(Profiler(enabled=False))
        vm.attach_profiler(None)
        assert vm._timer is None
        assert "_call_intrinsic" not in vm.__dict__


class TestTimersKeepTheAccounting:
    @pytest.mark.parametrize("source", [LOOP_SOURCE, DIVIDE_SOURCE])
    def test_every_budget_retires_the_same_instructions(self, source):
        module = _instrumented(source)
        full = _run(module)[1]
        for budget in range(1, full + 2):
            plain = _run(module, budget=budget)
            profiler = Profiler(clock=CountingClock())
            profiled = _run(module, profiler=profiler, budget=budget)
            reference = _run(module, ReferenceInterpreter, budget=budget)
            assert plain == profiled == reference, budget
            # Every retired instruction is timed exactly once; the
            # counter also holds the one that tripped the budget.
            tripped = profiled[0] == ("vmerror", BUDGET_MESSAGE)
            assert _op_calls(profiler) == profiled[1] - tripped, budget

    def test_mid_block_error_unwinds_identically(self):
        module = _instrumented(DIVIDE_SOURCE)
        plain = _run(module)
        profiled = _run(module, profiler=Profiler())
        assert plain[0] == ("vmerror", "sdiv by zero")
        assert plain == profiled == _run(module, ReferenceInterpreter)

    def test_budget_exhaustion_is_reported_identically(self):
        module = _instrumented(LOOP_SOURCE)
        plain = _run(module, budget=100)
        assert plain[0] == ("vmerror", BUDGET_MESSAGE)
        assert plain == _run(module, profiler=Profiler(), budget=100)

    def test_exit_inside_an_intrinsic_closes_the_ledger(self):
        module = compile_source("void main() { exit(3); print_int(1); }")
        profiler = Profiler()
        kernel = Kernel()
        vm = Interpreter(module, kernel, kernel.spawn(1000, 1000))
        vm.attach_profiler(profiler)
        assert vm.run() == 3
        assert profiler.records[("vm", "intrinsic:exit")].calls == 1
        assert _op_calls(profiler) == vm.executed_instructions


class TestProfiledRunsMatchUnprofiled:
    @pytest.mark.parametrize("program", ["passwd", "sshdPrivsep"])
    def test_chrono_counts_exit_and_stdout_identical(self, program):
        assert _dynamic(program, None) == _dynamic(program, Profiler())

    def test_spawn_wait_children_are_timed(self):
        spec = spec_by_name("sshdPrivsep")
        module = PrivAnalyzer().compile(spec)[0]
        kernel = build_kernel(refactored_ownership=spec.refactored_fs)
        process = kernel.spawn(spec.uid, spec.gid, permitted=spec.permitted)
        vm = Interpreter(
            module, kernel, process, argv=list(spec.argv), stdin=list(spec.stdin)
        )
        profiler = Profiler()
        vm.attach_profiler(profiler)
        vm.env.update(spec.env)
        ChronoRecorder(spec.name, process).attach(vm, kernel)
        if spec.setup is not None:
            spec.setup(kernel, vm)
        try:
            vm.run()
        except ProgramExit:  # pragma: no cover - run() absorbs exits
            pass

        def family(node):
            yield node
            for child in node.children:
                yield from family(child)

        vms = list(family(vm))
        children = vms[1:]
        assert children, "privilege-separated sshd spawns session children"
        assert all(child._timer is vm._timer for child in children)
        child_instructions = sum(c.executed_instructions for c in children)
        assert child_instructions > 0
        # The op records cover parent and children alike.
        assert _op_calls(profiler) == sum(v.executed_instructions for v in vms)
        assert ("vm", "intrinsic:spawn_wait") in profiler.records
