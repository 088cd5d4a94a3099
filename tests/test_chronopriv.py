"""ChronoPriv: instrumentation correctness and phase accounting."""

import pytest

from repro.caps import CapabilitySet
from repro.chronopriv import ChronoRecorder, instrument_module
from repro.core.pipeline import PrivAnalyzer
from repro.frontend import compile_source
from repro.ir import Call, Unreachable, verify_module
from repro.oskernel.setup import build_kernel, GID_USER, UID_USER
from repro.programs import spec_by_name
from repro.testkit.reference import ReferenceInterpreter, ReferencePhaseCounter
from repro.vm import Interpreter, VMError

SIMPLE = """
void main() {
    int i;
    int total = 0;
    for (i = 0; i < 10; i = i + 1) { total = total + i; }
    print_int(total);
}
"""

# Counting happens at basic-block granularity, so a phase is only
# observable if at least one block *starts* inside it; the control flow
# after each transition below guarantees that.
PHASED = """
void main() {
    priv_raise(CAP_DAC_READ_SEARCH);
    str h = getspnam("user");
    priv_lower(CAP_DAC_READ_SEARCH);
    priv_remove(CAP_DAC_READ_SEARCH);
    int i;
    int x = 0;
    for (i = 0; i < 20; i = i + 1) { x = x + i; }
    priv_raise(CAP_SETUID);
    int rc = setuid(0);
    priv_lower(CAP_SETUID);
    priv_remove(CAP_SETUID);
    if (rc == 0) { x = x + 1; }
    print_int(x);
}
"""


def execute(module, caps=(), program="prog"):
    kernel = build_kernel()
    process = kernel.spawn(UID_USER, GID_USER, permitted=CapabilitySet.of(*caps))
    kernel.sys_prctl_lockdown(process.pid)
    vm = Interpreter(module, kernel, process)
    recorder = ChronoRecorder(program, process)
    recorder.attach(vm, kernel)
    code = vm.run()
    return recorder.report(), vm, code


class TestInstrumentationPass:
    def test_every_block_gets_a_counter(self):
        module = compile_source(SIMPLE)
        report = instrument_module(module)
        main = module.get_function("main")
        for block in main.blocks:
            first = block.instructions[0]
            assert isinstance(first, Call)
            assert first.direct_target.name == "__chrono_count"
        assert report.blocks_instrumented == len(main.blocks)

    def test_idempotent(self):
        module = compile_source(SIMPLE)
        first = instrument_module(module)
        second = instrument_module(module)
        assert second.blocks_instrumented == 0
        verify_module(module)

    def test_counts_exclude_unreachable(self):
        from repro.ir import IRBuilder, Module, VOID

        module = Module("m")
        function = module.add_function("main", VOID, [])
        block = function.add_block("entry")
        builder = IRBuilder(block)
        builder.add(1, 2)
        builder.unreachable()
        report = instrument_module(module)
        # add + unreachable: only the add is countable.
        assert report.instructions_counted == 1

    def test_static_totals_accumulate(self):
        module = compile_source(SIMPLE)
        report = instrument_module(module)
        assert report.per_function["main"] == report.instructions_counted
        assert report.instructions_counted > 0


class TestCountingAccuracy:
    """The recorder's total must equal the uninstrumented execution count."""

    @pytest.mark.parametrize(
        "source,caps",
        [
            (SIMPLE, ()),
            (PHASED, ("CapDacReadSearch", "CapSetuid")),
        ],
    )
    def test_total_matches_ground_truth(self, source, caps):
        # Ground truth: run the *uninstrumented* module and use the VM's
        # own retired-instruction counter.
        plain = compile_source(source)
        kernel = build_kernel()
        process = kernel.spawn(UID_USER, GID_USER, permitted=CapabilitySet.of(*caps))
        kernel.sys_prctl_lockdown(process.pid)
        vm_plain = Interpreter(plain, kernel, process)
        vm_plain.run()
        ground_truth = vm_plain.executed_instructions

        instrumented = compile_source(source)
        instrument_module(instrumented)
        report, vm_instr, _ = execute(instrumented, caps)
        assert report.total == ground_truth

    def test_instrumentation_overhead_is_one_call_per_block_execution(self):
        plain = compile_source(SIMPLE)
        kernel = build_kernel()
        process = kernel.spawn(UID_USER, GID_USER)
        vm_plain = Interpreter(plain, kernel, process)
        vm_plain.run()

        instrumented = compile_source(SIMPLE)
        instrument_module(instrumented)
        report, vm_instr, _ = execute(instrumented)
        overhead = vm_instr.executed_instructions - vm_plain.executed_instructions
        assert overhead > 0
        # Every overhead instruction is one __chrono_count call; the
        # number of calls equals the number of block executions, and each
        # block execution contributed >= 1 counted instruction.
        assert overhead <= report.total


class TestPhases:
    def test_single_phase_without_privileges(self):
        module = compile_source(SIMPLE)
        instrument_module(module)
        report, _, _ = execute(module)
        assert len(report.phases) == 1
        phase = report.phases[0]
        assert phase.privileges == CapabilitySet.empty()
        assert phase.percent == pytest.approx(100.0)

    def test_phase_transitions_on_remove_and_setuid(self):
        module = compile_source(PHASED)
        instrument_module(module)
        report, _, _ = execute(module, ("CapDacReadSearch", "CapSetuid"))
        descriptions = [
            (phase.privileges.describe(), phase.uids) for phase in report.phases
        ]
        assert descriptions == [
            ("CapDacReadSearch,CapSetuid", (1000, 1000, 1000)),
            ("CapSetuid", (1000, 1000, 1000)),
            ("(empty)", (0, 0, 0)),
        ]

    def test_percentages_sum_to_100(self):
        module = compile_source(PHASED)
        instrument_module(module)
        report, _, _ = execute(module, ("CapDacReadSearch", "CapSetuid"))
        assert sum(phase.percent for phase in report.phases) == pytest.approx(100.0)

    def test_phase_names_numbered_in_order(self):
        module = compile_source(PHASED)
        instrument_module(module)
        report, _, _ = execute(module, ("CapDacReadSearch", "CapSetuid"), program="demo")
        assert [phase.name for phase in report.phases] == [
            "demo_priv1",
            "demo_priv2",
            "demo_priv3",
        ]

    def test_reentering_phase_accumulates(self):
        source = """
        void main() {
            int i;
            for (i = 0; i < 3; i = i + 1) {
                priv_raise(CAP_SETGID);
                setegid(1000);
                priv_lower(CAP_SETGID);
            }
        }
        """
        module = compile_source(source)
        instrument_module(module)
        report, _, _ = execute(module, ("CapSetgid",))
        # Raising/lowering does not change the *permitted* set, so all
        # iterations land in one phase.
        assert len(report.phases) == 1

    def test_phase_lookup_by_name(self):
        module = compile_source(PHASED)
        instrument_module(module)
        report, _, _ = execute(module, ("CapDacReadSearch", "CapSetuid"), program="p")
        assert report.phase("p_priv2").privileges == CapabilitySet.of("CapSetuid")
        with pytest.raises(KeyError):
            report.phase("p_priv99")

    def test_render_contains_all_rows(self):
        module = compile_source(PHASED)
        instrument_module(module)
        report, _, _ = execute(module, ("CapDacReadSearch", "CapSetuid"), program="p")
        text = report.render()
        for phase in report.phases:
            assert phase.name in text
        assert "total" in text


def recorded_rows(report):
    return [
        (phase.privileges, phase.uids, phase.gids, phase.instruction_count)
        for phase in report.phases
    ]


def reference_count(module, caps=()):
    """``module`` run by the reference interpreter under the counter that
    reads the process's phase key at every block (the ``vm`` oracle's
    reference side)."""
    kernel = build_kernel()
    process = kernel.spawn(UID_USER, GID_USER, permitted=CapabilitySet.of(*caps))
    kernel.sys_prctl_lockdown(process.pid)
    vm = ReferenceInterpreter(module, kernel, process)
    counter = ReferencePhaseCounter(vm)
    vm.run()
    return counter, vm


class TestRecorderBooksAtCredentialChanges:
    """The recorder books the VM's running total at credential changes;
    a counter that reads the key at every block must agree with it."""

    def assert_agrees(self, source, caps):
        module = compile_source(source)
        instrument_module(module)
        report, vm, _ = execute(module, caps)
        counter, reference_vm = reference_count(module, caps)
        assert recorded_rows(report) == list(counter.table())
        assert reference_vm.executed_instructions == vm.executed_instructions
        return report

    def test_two_credential_changes_inside_one_block(self):
        # Both removals run in one block, so the phase between them
        # enters no block and gets no row.
        report = self.assert_agrees(
            """
            void main() {
                int i;
                int x = 0;
                for (i = 0; i < 3; i = i + 1) { x = x + i; }
                priv_remove(CAP_DAC_READ_SEARCH);
                priv_remove(CAP_SETUID);
                for (i = 0; i < 3; i = i + 1) { x = x + i; }
                print_int(x);
            }
            """,
            ("CapDacReadSearch", "CapSetuid"),
        )
        assert [phase.privileges.describe() for phase in report.phases] == [
            "CapDacReadSearch,CapSetuid",
            "(empty)",
        ]

    def test_reentered_phase_accumulates_in_its_first_row(self):
        report = self.assert_agrees(
            """
            void main() {
                int i;
                int x = 0;
                for (i = 0; i < 3; i = i + 1) {
                    priv_raise(CAP_SETGID);
                    setegid(0);
                    priv_lower(CAP_SETGID);
                    if (i >= 0) { x = x + 1; }
                    priv_raise(CAP_SETGID);
                    setegid(1000);
                    priv_lower(CAP_SETGID);
                    if (i >= 0) { x = x + 2; }
                }
                print_int(x);
            }
            """,
            ("CapSetgid",),
        )
        assert [phase.gids for phase in report.phases] == [
            (1000, 1000, 1000),
            (1000, 0, 1000),
        ]

    def test_spawn_wait_child_counts_into_its_own_total(self):
        module = compile_source(
            """
            int child(int by) {
                int i;
                int x = 0;
                for (i = 0; i < by; i = i + 1) { x = x + i; }
                return x;
            }
            void main() {
                print_int(spawn_wait(&child, 10));
            }
            """
        )
        instrument_module(module)
        kernel = build_kernel()
        process = kernel.spawn(UID_USER, GID_USER)
        vm = Interpreter(module, kernel, process)
        parent = ChronoRecorder("p", process)
        parent.attach(vm, kernel)
        children = []

        def on_child(child_vm):
            recorder = ChronoRecorder("c", child_vm.process)
            recorder.attach(child_vm, kernel)
            children.append((recorder, child_vm))

        vm.child_observers.append(on_child)
        vm.run()
        (child, child_vm), = children
        assert parent.report().total == vm.chrono_total
        assert child.report().total == child_vm.chrono_total > 0
        counter, _ = reference_count(module)
        assert recorded_rows(parent.report()) == list(counter.table())
        assert recorded_rows(child.report()) == list(counter.children[0].table())

    def test_analyze_multiprocess_children_match_the_reference(self):
        from repro.core.multiprocess import analyze_multiprocess
        from repro.core.pipeline import PrivAnalyzer
        from repro.programs import spec_by_name

        spec = spec_by_name("sshdPrivsep")
        analysis = analyze_multiprocess(spec)
        module = PrivAnalyzer().compile(spec)[0]
        kernel = build_kernel(refactored_ownership=spec.refactored_fs)
        process = kernel.spawn(spec.uid, spec.gid, permitted=spec.permitted)
        vm = ReferenceInterpreter(
            module, kernel, process, argv=list(spec.argv), stdin=list(spec.stdin)
        )
        vm.env.update(spec.fresh_env())
        if spec.setup is not None:
            spec.setup(kernel, vm)
        counter = ReferencePhaseCounter(vm)
        vm.run()
        assert len(counter.children) == 1
        assert [recorded_rows(report) for report in analysis.reports] == [
            list(counter.table()),
            list(counter.children[0].table()),
        ]

    def test_a_hook_registered_before_the_first_call_is_refused(self):
        module = compile_source(SIMPLE)
        instrument_module(module)
        kernel = build_kernel()
        vm = Interpreter(module, kernel, kernel.spawn(UID_USER, GID_USER))
        hooked = []
        vm.register_intrinsic("__chrono_count", lambda vm, args: hooked.append(args[0]) or 0)
        with pytest.raises(VMError, match="only under the reference interpreter"):
            vm.run()
        assert hooked == [] and vm.executed_instructions == 0

    def test_a_hook_registered_after_the_first_compile_is_refused(self):
        module = compile_source(SIMPLE)
        instrument_module(module)
        kernel = build_kernel()
        vm = Interpreter(module, kernel, kernel.spawn(UID_USER, GID_USER))
        vm.run()
        counted = vm.chrono_total
        assert counted > 0
        hooked = []
        vm.register_intrinsic("__chrono_count", lambda vm, args: hooked.append(args[0]) or 0)
        with pytest.raises(VMError, match="only under the reference interpreter"):
            vm.run()
        assert hooked == [] and vm.chrono_total == counted

    def test_recorded_vm_is_freed_without_the_cycle_collector(self):
        # The kernel holds the recorder weakly; a strong reference back
        # (recorder -> VM -> kernel -> recorder) would keep the VM alive.
        import gc
        import weakref

        module = compile_source(SIMPLE)
        instrument_module(module)
        gc.disable()
        try:
            report, vm, _ = execute(module)
            freed = weakref.ref(vm)
            del vm
            assert freed() is None
        finally:
            gc.enable()
        assert report.total > 0


class TestKeyedRecipes:
    """Programs compiled by the pipeline share generated code by content;
    nothing ChronoPriv counts may change with it."""

    def test_a_custom_hook_on_a_cached_program_is_refused(self):
        from tests.test_vm_codegen import _vm_of

        plain, report = _vm_of("passwd")  # the recipes are now cached
        hooked = []
        with pytest.raises(VMError, match="only under the reference interpreter"):
            _vm_of("passwd", hook=lambda vm, args: hooked.append(args[0]) or 0)
        assert hooked == []
        # The reference interpreter still runs the hook on the same program.
        reference, _ = _vm_of(
            "passwd", hook=lambda vm, args: hooked.append(args[0]) or 0,
            interpreter=ReferenceInterpreter,
        )
        assert sum(hooked) == plain.chrono_total == report.total
        assert reference.executed_instructions == plain.executed_instructions

    def test_every_table_program_analyzed_twice_gives_one_answer(self):
        from repro.core.report import analysis_to_dict
        from tests.test_vm_cost import TABLE_RUNS

        for program in sorted(TABLE_RUNS):
            spec = spec_by_name(program)
            answers = []
            for _ in range(2):
                analysis = PrivAnalyzer().analyze(spec)
                chrono = analysis.chrono
                assert (
                    chrono.total, len(chrono.phases), analysis.exit_code
                ) == TABLE_RUNS[program]
                answers.append(analysis_to_dict(analysis))
            assert answers[0] == answers[1], program
