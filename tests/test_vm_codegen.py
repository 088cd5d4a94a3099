"""The generated core's process-wide code cache and its call protocol.

:mod:`repro.vm.compiled` compiles each generated text once per process
(:data:`~repro.vm.compiled.CODE_CACHE`, keyed by the text itself) and
binds the code to each VM's own namespace.  These tests pin down that a
cached code object never outlives a patched operation table, that VMs
(two built from one module, and ``spawn_wait`` children) share code
objects but never globals or locals, and that the cache stays bounded.
The last one runs every budget through signal handlers, including
signals a counting hook raises, against the reference evaluator: the
settling after a call, and the budget edge the helpers hand off to.
"""

import pytest

from repro.chronopriv import instrument_module
from repro.frontend import compile_source
from repro.oskernel import Kernel, signals
from repro.telemetry import Profiler
from repro.testkit.faults import install_fault
from repro.testkit.oracles import family
from repro.testkit.reference import ReferenceInterpreter
from repro.vm import Interpreter, VMError, compiled

from tests.test_testkit_oracles import MUL_CASE

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


@pytest.mark.parametrize("fault", ["compiled-mul-truncate", "vm-mul-truncate"])
def test_the_vm_oracle_catches_a_fault_installed_after_a_clean_run(fault):
    oracle = family("vm")
    assert oracle.run(MUL_CASE).ok  # leaves the clean code in the cache
    with install_fault(fault):
        assert oracle.run(MUL_CASE).failed
    assert oracle.run(MUL_CASE).ok


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


def _signalling_run(module, interpreter, budget, chrono_signals, profiler=None):
    kernel = Kernel()
    process = kernel.spawn(1000, 1000)
    vm = interpreter(module, kernel, process, max_instructions=budget)
    vm.attach_profiler(profiler)
    if chrono_signals:
        # A counting hook that raises a signal at every other block it
        # counts outside a handler (in loops and in straight-line code,
        # ten times at most): the frame must settle after the counting
        # call, as after any call.
        counted = []

        def count(vm, args):
            if not vm._in_signal_handler and len(counted) < 20:
                counted.append(args)
                if len(counted) % 2 == 0:
                    kernel.sys_kill(process.pid, process.pid, signals.SIGUSR1)
            return 0

        vm.register_intrinsic("__chrono_count", count)
    try:
        outcome = vm.run()
    except VMError as error:
        outcome = str(error)
    return outcome, vm.executed_instructions, tuple(vm.stdout)


@pytest.mark.parametrize("chrono_signals", [False, True])
def test_every_budget_through_signal_handlers(chrono_signals):
    module = compile_source(SIGNAL_SOURCE)
    instrument_module(module)
    full = _signalling_run(module, Interpreter, 10_000, chrono_signals)
    assert full[0] == 0 and full[2]
    for budget in range(1, full[1] + 2):
        compiled_run = _signalling_run(module, Interpreter, budget, chrono_signals)
        reference = _signalling_run(module, ReferenceInterpreter, budget, chrono_signals)
        assert compiled_run == reference, budget


@pytest.mark.parametrize("chrono_signals", [False, True])
def test_every_budget_through_timed_counting(chrono_signals):
    """Under a profiler the stock count is timed inline and a custom
    hook is a timed call; both keep the budget and signal parity."""
    module = compile_source(SIGNAL_SOURCE)
    instrument_module(module)
    full = _signalling_run(module, Interpreter, 10_000, chrono_signals, Profiler())
    assert full[0] == 0 and full[2]
    for budget in range(1, full[1] + 2):
        timed = _signalling_run(module, Interpreter, budget, chrono_signals, Profiler())
        reference = _signalling_run(module, ReferenceInterpreter, budget, chrono_signals)
        assert timed == reference, budget
