"""The generated core's process-wide caches and its call protocol.

:mod:`repro.vm.compiled` compiles each generated text once per process
(:data:`~repro.vm.compiled.CODE_CACHE`, keyed by the text itself), keeps
one recipe per program content, function and mode
(:data:`~repro.vm.compiled.RECIPES`), and binds the code to each VM's
own namespace.  These tests pin down that neither cache outlives a
patched operation table or a change of mode (timed or not), that VMs
(two built from one module, and ``spawn_wait`` children) share code
objects but never globals or locals, and that the caches stay bounded.
The last ones run every budget through signal handlers, including
signals an intrinsic hook raises, against the reference evaluator,
untimed and timed: the settling after a call, and the budget edge the
helpers hand off to.
"""

import gc
import sys
import threading
import weakref

import pytest

from repro.chronopriv import ChronoRecorder, instrument_module
from repro.core.pipeline import PrivAnalyzer
from repro.frontend import compile_source
from repro.oskernel import Kernel, signals
from repro.oskernel.setup import build_kernel
from repro.programs import spec_by_name
from repro.telemetry import Profiler, Telemetry
from repro.testkit.faults import install_fault
from repro.testkit.oracles import family
from repro.testkit.reference import ReferenceInterpreter
from repro.vm import Interpreter, VMError, compiled, set_interpreter_class

from tests.test_testkit_oracles import MUL_CASE, SREM_CASE

#: A global every call updates, a loop that sleeps (the hook the
#: interleaving test uses) and a spawned child running the same helper.
SOURCE = """
int counter;
int bump(int by) {
    counter = counter + by;
    return counter * 3;
}
int child(int by) {
    print_int(bump(by));
    return 0;
}
void main() {
    int i = 0;
    while (i < 4) {
        print_int(bump(i));
        sleep(1);
        i = i + 1;
    }
    print_int(spawn_wait(&child, 10));
    print_int(bump(1));
}
"""


def _vm(module):
    kernel = Kernel()
    return Interpreter(module, kernel, kernel.spawn(1000, 1000))


def _run_alone(module):
    vm = _vm(module)
    return vm.run(), vm.stdout


@pytest.mark.parametrize("fault,case", [
    ("compiled-mul-truncate", MUL_CASE),
    ("vm-mul-truncate", MUL_CASE),
    ("compiled-srem-floor", SREM_CASE),
])
def test_the_vm_oracle_catches_a_fault_installed_after_a_clean_run(fault, case):
    oracle = family("vm")
    assert oracle.run(case).ok  # leaves the clean code in the cache
    with install_fault(fault):
        assert oracle.run(case).failed
    assert oracle.run(case).ok


@pytest.mark.parametrize("fault", ["compiled-mul-truncate", "vm-mul-truncate"])
def test_a_patched_table_changes_the_text(fault):
    module = compile_source("int f(int a) { return a * 3; } void main() { }")
    function = module.functions["f"]

    def code():
        return compiled.compile_function(_vm(module), function)

    clean = code()
    with install_fault(fault):
        patched = code()
        assert patched(_vm(module), [40]) == 120 & 63
    assert patched.__code__ is not clean.__code__
    assert "op_mul" in patched.__globals__
    assert "op_mul" not in clean.__globals__
    again = code()
    assert again.__code__ is clean.__code__
    assert again(_vm(module), [40]) == 120


def _pipeline_run(program, interpreter=Interpreter):
    """One ``run_dynamic`` of a table program compiled by the pipeline
    (so its module carries a content key): (phase rows, exit code,
    stdout) and the texts its VM generated."""
    spec = spec_by_name(program)
    telemetry = Telemetry()
    analyzer = PrivAnalyzer(telemetry=telemetry)
    module = analyzer.compile(spec)[0]
    assert module.content_key is not None
    previous = set_interpreter_class(interpreter)
    try:
        report, exit_code, stdout = analyzer.run_dynamic(spec, module)
    finally:
        set_interpreter_class(previous)
    rows = [(phase.name, phase.instruction_count) for phase in report.phases]
    return (rows, exit_code, stdout), telemetry.metrics.counter("vm.texts_generated").value


def test_a_fault_installed_after_a_keyed_run_gets_fresh_code():
    reference, _ = _pipeline_run("passwd", ReferenceInterpreter)
    _pipeline_run("passwd")  # the clean recipes are now cached
    for fault in ("compiled-mul-truncate", "vm-mul-truncate"):
        with install_fault(fault):
            faulted, generated = _pipeline_run("passwd")
        assert generated > 0, fault
        assert faulted != reference, fault
        clean, generated = _pipeline_run("passwd")
        assert generated > 0, fault
        assert clean == reference, fault


def test_the_inline_division_fault_regenerates_only_dividing_functions():
    # passwd never divides a negative number, so the fault changes no
    # output; its 4 functions that divide by a literal (of 8) get fresh
    # code under it and after it.
    _pipeline_run("passwd")
    with install_fault("compiled-srem-floor"):
        _, generated = _pipeline_run("passwd")
    assert generated == 4
    _, generated = _pipeline_run("passwd")
    assert generated == 4


def _vm_of(program, profiler=None, hook=None, interpreter=Interpreter):
    """A VM of class ``interpreter`` that ran ``program`` compiled by the
    pipeline, with ``hook`` as its ``__chrono_count`` intrinsic when one
    is given."""
    spec = spec_by_name(program)
    module = PrivAnalyzer().compile(spec)[0]
    kernel = build_kernel(refactored_ownership=spec.refactored_fs)
    process = kernel.spawn(spec.uid, spec.gid, permitted=spec.permitted)
    vm = interpreter(module, kernel, process, argv=list(spec.argv), stdin=list(spec.stdin))
    vm.attach_profiler(profiler)
    vm.env.update(spec.fresh_env())
    recorder = ChronoRecorder(spec.name, process)
    recorder.attach(vm, kernel)
    if spec.setup is not None:
        spec.setup(kernel, vm)
    if hook is not None:
        vm.register_intrinsic("__chrono_count", hook)
    vm.run()
    return vm, recorder.report()


def test_plain_and_profiled_runs_of_one_program_keep_their_own_code():
    plain, report = _vm_of("passwd")
    profiler = Profiler()
    profiled, profiled_report = _vm_of("passwd", profiler)
    ops = [key for key in profiler.records if key[1].startswith("op:")]
    calls = sum(profiler.records[key].calls for key in ops)
    assert calls == profiled.executed_instructions > 0
    again, again_report = _vm_of("passwd")
    assert sum(profiler.records[key].calls for key in ops) == calls
    for vm in (plain, again):
        assert vm._compiled
        for code in vm._compiled.values():
            assert "timer" not in code.__globals__
    assert again_report.total == profiled_report.total == report.total


def _holds_ir(root) -> bool:
    """Whether ``root`` reaches an IR object through recipes, tuples,
    lists and code objects (op-table entries are not followed)."""
    from types import CodeType

    from repro.ir import BasicBlock, Function, Module, Value

    stack, seen = [root], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (Module, Function, BasicBlock, Value)):
            return True
        if isinstance(obj, (compiled.Recipe, tuple, list, CodeType)):
            stack.extend(gc.get_referents(obj))
    return False


def test_a_keyed_module_and_its_vm_are_freed_with_the_cache_warm():
    _vm_of("passwd")  # the recipes are now cached
    gc.disable()
    try:
        vm, report = _vm_of("passwd")
        module, freed_vm = weakref.ref(vm.module), weakref.ref(vm)
        # passwd's main has no loop: no block of it is on a cycle, and
        # neither blocks nor instructions point back at their function.
        main = weakref.ref(vm.module.functions["main"])
        del vm
        assert module() is None
        assert freed_vm() is None
        assert main() is None
    finally:
        gc.enable()
    assert report.total == 70037
    recipes = list(compiled.RECIPES._entries.values())
    assert recipes
    assert not any(_holds_ir(recipe) for recipe in recipes)


def test_threads_sharing_the_recipe_cache_agree(monkeypatch):
    # More threads than cores bind (and, racing on a miss, generate)
    # recipes of two programs through a cache too small to hold both.
    monkeypatch.setattr(compiled, "RECIPES", compiled.LRU(6))
    expected = {program: _vm_of(program)[1].total for program in ("passwd", "ping")}
    failures = []

    def work(index):
        try:
            for round_ in range(3):
                program = ("passwd", "ping")[(index + round_) % 2]
                if _vm_of(program)[1].total != expected[program]:
                    failures.append(program)
        except Exception as error:  # reported below, with its thread
            failures.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(compiled.RECIPES) <= 6


def test_vms_share_code_but_not_globals():
    module = compile_source(SOURCE)
    bump = module.functions["bump"]
    counter = module.globals["counter"]
    first, second = _vm(module), _vm(module)
    interleaved = ([], [])
    for by in (1, 2, 3):
        interleaved[0].append(first.call_function(bump, [by]))
        interleaved[1].append(second.call_function(bump, [by * 10]))
    assert interleaved == ([3, 9, 18], [30, 90, 180])
    assert first.globals[counter].value == 6
    assert second.globals[counter].value == 60
    code_a, code_b = first._compiled[bump], second._compiled[bump]
    assert code_a.__code__ is code_b.__code__
    assert code_a.__globals__ is not code_b.__globals__


def test_interleaved_runs_equal_separate_runs():
    module = compile_source(SOURCE)
    alone = _run_alone(module)
    first, second = _vm(module), _vm(module)
    sleep = first.intrinsics["sleep"]
    inner = []

    def sleep_while_second_runs(vm, args):
        # The first VM's main sits mid-loop while the second runs
        # every function to completion.
        if not inner:
            inner.append(second.run())
        return sleep(vm, args)

    first.register_intrinsic("sleep", sleep_while_second_runs)
    assert (first.run(), first.stdout) == alone
    assert (inner[0], second.stdout) == alone
    bump = module.functions["bump"]
    assert first._compiled[bump].__code__ is second._compiled[bump].__code__


def test_spawned_children_share_code_but_not_globals():
    module = compile_source(SOURCE)
    vm = _vm(module)
    vm.run()
    [child] = vm.children
    bump = module.functions["bump"]
    counter = module.globals["counter"]
    assert child._compiled[bump].__code__ is vm._compiled[bump].__code__
    assert child._compiled[bump].__globals__ is not vm._compiled[bump].__globals__
    # The child forked at counter 6, added 10; the parent then added 1.
    assert (child.globals[counter].value, vm.globals[counter].value) == (16, 7)


def test_the_cache_stays_within_its_bound():
    cache = compiled.CodeCache(4)
    texts = [f"def run(vm, args):\n    return {index}\n" for index in range(10)]
    codes = [cache.get(text) for text in texts]
    assert len(cache) == 4
    assert cache.get(texts[-1]) is codes[-1]
    assert cache.get(texts[0]) is not codes[0]  # evicted, compiled afresh
    assert len(cache) == 4


def test_the_process_wide_cache_stays_within_its_bound():
    bound = compiled.CODE_CACHE.capacity
    for index in range(bound + 8):
        module = compile_source(f"void main() {{ print_int({index}); }}")
        vm = _vm(module)
        vm.run()
        assert vm.stdout == [str(index)]
        assert len(compiled.CODE_CACHE) <= bound


#: A handler that loops and prints, delivered at a ``kill`` inside a
#: loop: every budget lands somewhere in a signal path, and stdout shows
#: when each handler ran.
SIGNAL_SOURCE = """
int handled;
void on_usr(int signum) {
    int j = 0;
    while (j < 3) { handled = handled + signum; j = j + 1; }
    print_int(-handled);
}
void poke(int i) {
    print_int(i);
}
void main() {
    signal(SIGUSR1, &on_usr);
    int i = 0;
    while (i < 3) {
        kill(getpid(), SIGUSR1);
        print_int(handled);
        poke(i);
        i = i + 1;
    }
}
"""


def _signalling_run(module, interpreter, budget, hook_signals, profiler=None):
    kernel = Kernel()
    process = kernel.spawn(1000, 1000)
    vm = interpreter(module, kernel, process, max_instructions=budget)
    vm.attach_profiler(profiler)
    if hook_signals:
        # A ``print_int`` hook that raises a signal at every other call
        # outside a handler (ten times at most): the frame must settle
        # after the intrinsic call, as after any call.  (A custom
        # ``__chrono_count`` runs only under the reference interpreter.)
        stock = vm.intrinsics["print_int"]
        printed = []

        def print_and_signal(vm, args):
            if not vm._in_signal_handler and len(printed) < 20:
                printed.append(args)
                if len(printed) % 2 == 0:
                    kernel.sys_kill(process.pid, process.pid, signals.SIGUSR1)
            return stock(vm, args)

        vm.register_intrinsic("print_int", print_and_signal)
    try:
        outcome = vm.run()
    except VMError as error:
        outcome = str(error)
    return outcome, vm.executed_instructions, tuple(vm.stdout)


@pytest.mark.parametrize("hook_signals", [False, True])
def test_every_budget_through_signal_handlers(hook_signals):
    module = compile_source(SIGNAL_SOURCE)
    instrument_module(module)
    full = _signalling_run(module, Interpreter, 10_000, hook_signals)
    assert full[0] == 0 and full[2]
    for budget in range(1, full[1] + 2):
        compiled_run = _signalling_run(module, Interpreter, budget, hook_signals)
        reference = _signalling_run(module, ReferenceInterpreter, budget, hook_signals)
        assert compiled_run == reference, budget


@pytest.mark.parametrize("hook_signals", [False, True])
def test_every_budget_through_timed_counting(hook_signals):
    """Under a profiler the stock count is timed inline and an intrinsic
    is a timed call; both keep the budget and signal parity."""
    module = compile_source(SIGNAL_SOURCE)
    instrument_module(module)
    full = _signalling_run(module, Interpreter, 10_000, hook_signals, Profiler())
    assert full[0] == 0 and full[2]
    for budget in range(1, full[1] + 2):
        timed = _signalling_run(module, Interpreter, budget, hook_signals, Profiler())
        reference = _signalling_run(module, ReferenceInterpreter, budget, hook_signals)
        assert timed == reference, budget
