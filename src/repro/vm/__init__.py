"""The IR interpreter: deterministic execution on the simulated kernel.

Stands in for native execution of the paper's instrumented binaries;
provides exact per-instruction accounting and the intrinsic surface
(syscall wrappers, the AutoPriv ``priv_*`` runtime, libc-ish helpers).
"""

from repro.vm.frame import Frame, GlobalSlot, StackSlot
from repro.vm.interpreter import (
    Interpreter,
    ProgramExit,
    VMError,
    interpreter_class,
    set_interpreter_class,
)
from repro.vm.intrinsics import default_intrinsics

__all__ = [
    "Frame",
    "GlobalSlot",
    "Interpreter",
    "ProgramExit",
    "StackSlot",
    "VMError",
    "default_intrinsics",
    "interpreter_class",
    "set_interpreter_class",
]
