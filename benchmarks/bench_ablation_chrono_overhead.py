"""Ablation A3 — ChronoPriv instrumentation overhead.

The paper's §VI instrumentation adds one counter call per basic block.
This ablation measures the cost in both retired instructions and wall
clock, per program.
"""

import pytest

from repro.autopriv import transform_module
from repro.chronopriv import instrument_module
from repro.frontend import compile_source
from repro.oskernel.setup import build_kernel
from repro.programs import spec_by_name
from repro.vm import Interpreter
from benchmarks.conftest import ORIGINAL_PROGRAMS


def build(name, instrumented):
    spec = spec_by_name(name)
    module = compile_source(spec.source, spec.name)
    transform_module(module, spec.permitted)
    if instrumented:
        instrument_module(module)
    return spec, module


def execute(spec, module):
    kernel = build_kernel(refactored_ownership=spec.refactored_fs)
    process = kernel.spawn(spec.uid, spec.gid, permitted=spec.permitted)
    vm = Interpreter(module, kernel, process, argv=list(spec.argv), stdin=list(spec.stdin))
    vm.env.update(spec.fresh_env())
    if spec.setup is not None:
        spec.setup(kernel, vm)
    code = vm.run()
    assert code == spec.expected_exit
    return vm


@pytest.mark.parametrize("name", ORIGINAL_PROGRAMS)
@pytest.mark.parametrize("instrumented", [False, True], ids=["plain", "chrono"])
def test_execution_time(benchmark, name, instrumented):
    spec, module = build(name, instrumented)
    vm = benchmark.pedantic(lambda: execute(spec, module), rounds=3, iterations=1)
    benchmark.extra_info["retired"] = vm.executed_instructions


def test_print_overhead(capsys):
    with capsys.disabled():
        print("\n=== A3: ChronoPriv instruction overhead ===")
        print(f"{'program':<10} {'plain':>10} {'instrumented':>13} {'overhead':>9}")
        for name in ORIGINAL_PROGRAMS:
            spec, plain_module = build(name, instrumented=False)
            plain = execute(spec, plain_module).executed_instructions
            spec, chrono_module = build(name, instrumented=True)
            chrono = execute(spec, chrono_module).executed_instructions
            print(
                f"{name:<10} {plain:>10,} {chrono:>13,} "
                f"{(chrono - plain) / plain:>8.1%}"
            )


@pytest.mark.parametrize("name", ORIGINAL_PROGRAMS)
def test_overhead_is_bounded(name):
    """One counter per block: overhead can never exceed 1 per instruction."""
    spec, plain_module = build(name, instrumented=False)
    plain = execute(spec, plain_module).executed_instructions
    spec, chrono_module = build(name, instrumented=True)
    chrono = execute(spec, chrono_module).executed_instructions
    assert plain < chrono <= 2 * plain
