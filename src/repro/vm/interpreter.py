"""The IR interpreter.

Executes one program (an IR module) as one process on a simulated
kernel.  The interpreter stands in for native execution of the paper's
instrumented binaries: deterministic, with exact per-instruction
accounting and hooks for the ChronoPriv runtime.

Design notes:

* defined functions run on the generated core
  (:mod:`repro.vm.compiled`): each becomes one Python function whose
  locals hold the SSA values, and an ``alloca`` whose address escapes
  yields a :class:`~repro.vm.frame.StackSlot` cell, so pointers are
  first-class runtime objects;
* declarations (functions without bodies) dispatch to the intrinsics
  table — syscall wrappers, the AutoPriv ``priv_*`` runtime and libc-ish
  helpers (:mod:`repro.vm.intrinsics`); each name is resolved, with its
  dispatch counters, once per VM;
* pending signals are dispatched at call boundaries by invoking the
  registered handler function in a nested frame, which is how the sshd
  model's privileged signal handlers execute;
* ``executed_instructions`` counts every IR instruction the VM retires —
  ground truth that tests compare against ChronoPriv's instrumented
  counts.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.ir import Function, GlobalVariable, Module
from repro.oskernel import Kernel, Process
from repro.vm.frame import GlobalSlot


#: The interpreter class the pipeline instantiates; ``None`` means the
#: stock :class:`Interpreter`.  See :func:`interpreter_class`.
_INTERPRETER_CLASS: Optional[type] = None


def interpreter_class() -> type:
    """The class the pipeline uses to execute programs.

    Defaults to :class:`Interpreter` (the generated core).  The
    conformance testkit swaps in its straight-line reference interpreter
    with :func:`set_interpreter_class` to run whole differential
    pipelines; embedders can install their own subclasses the same way.
    """
    return _INTERPRETER_CLASS or Interpreter


def set_interpreter_class(cls: Optional[type]) -> Optional[type]:
    """Install ``cls`` as the pipeline's interpreter; returns the previous
    override (``None`` when the stock interpreter was active).  Pass
    ``None`` to restore the default."""
    global _INTERPRETER_CLASS
    previous = _INTERPRETER_CLASS
    _INTERPRETER_CLASS = cls
    return previous


class ProgramExit(Exception):
    """The program called ``exit()`` (or was killed by a signal)."""

    def __init__(self, code: int, signal: Optional[int] = None) -> None:
        super().__init__(f"exit({code})" + (f" by signal {signal}" if signal else ""))
        self.code = code
        self.signal = signal


class VMError(RuntimeError):
    """An execution error: the program did something undefined."""


class Interpreter:
    """Executes one module as one process.

    Defined functions run on the generated core
    (:mod:`repro.vm.compiled`), bound once per function per VM from a
    recipe that every VM running the same program content shares.
    :meth:`attach_profiler` switches later compiles to the core's
    instrumented mode, so a profiled run times the same code an
    unprofiled run executes.  The testkit's reference interpreter
    overrides :meth:`_run_function`, the one frame-execution hook, with
    its own straight-line evaluator.
    """

    def __init__(
        self,
        module: Module,
        kernel: Kernel,
        process: Process,
        argv: Sequence[str] = (),
        stdin: Sequence[str] = (),
        max_instructions: int = 50_000_000,
        metrics=None,
    ) -> None:
        from repro.vm.intrinsics import default_intrinsics

        self.module = module
        self.kernel = kernel
        self.process = process
        self.argv = list(argv)
        self.stdin: List[str] = list(stdin)
        self.stdout: List[str] = []
        self.max_instructions = max_instructions
        #: IR instructions retired (the VM's own ground-truth counter).
        self.executed_instructions = 0
        #: What the stock ``__chrono_count`` hook has counted: the sum of
        #: the counts of every instrumented block entered so far.
        #: :class:`repro.chronopriv.ChronoRecorder` books it per phase.
        self.chrono_total = 0
        #: Pure intrinsic calls the generated core made without
        #: :meth:`_call_intrinsic`; :meth:`run` adds them to the
        #: ``vm.intrinsic_dispatches`` counter.
        self.pure_intrinsic_calls = 0
        self.globals: Dict[GlobalVariable, GlobalSlot] = {}
        for var in module.globals.values():
            slot = GlobalSlot(var.name)
            slot.value = var.initial
            self.globals[var] = slot
        self.intrinsics: Dict[str, Callable] = default_intrinsics()
        #: Optional :class:`repro.telemetry.MetricsRegistry`; when set, the
        #: VM counts retired instructions, intrinsic/syscall dispatches and
        #: the functions it generated text for or bound from a cached recipe.
        self.metrics = metrics
        #: Extra environment the workload provides (e.g. pending HTTP
        #: requests for thttpd, scp channel data for sshd).
        self.env: Dict[str, Any] = {}
        #: Callbacks invoked with each child VM created by ``spawn_wait``
        #: before it runs (ChronoPriv attaches per-process recorders here).
        self.child_observers: List[Callable[["Interpreter"], None]] = []
        #: Child VMs spawned by ``spawn_wait``, in creation order.
        self.children: List["Interpreter"] = []
        self._in_signal_handler = False
        self._call_depth = 0
        #: Per-VM compiled functions.  Each is bound to this VM's global
        #: slots, so the functions cannot be shared across instances;
        #: their recipes and code objects are (see
        #: :data:`repro.vm.compiled.RECIPES`).
        self._compiled: Dict[Function, Callable] = {}
        #: Intrinsic name -> ``call(vm, args)``, its function and dispatch
        #: counters resolved on first use (see :meth:`_call_intrinsic`).
        self._intrinsic_calls: Dict[str, Callable] = {}
        #: Compiled-in wall-clock attribution (see :meth:`attach_profiler`).
        self._timer = None

    # -- public API -------------------------------------------------------------

    def register_intrinsic(self, name: str, fn: Callable) -> None:
        """Install or replace an intrinsic (``fn(vm, args) -> value``).

        Replacing ``__chrono_count`` drops the compiled functions: the
        generated core inlines the stock hook (see
        :mod:`repro.vm.compiled`) and refuses a custom one, which runs
        only under the reference interpreter, so the next call of a
        defined function raises :class:`VMError` rather than skip the
        new hook.
        """
        self.intrinsics[name] = fn
        self._intrinsic_calls.pop(name, None)
        if name == "__chrono_count":
            self._compiled.clear()

    def attach_profiler(self, profiler) -> "Interpreter":
        """Time every opcode and intrinsic into ``profiler``.

        Functions compiled from now on carry per-opcode and
        per-intrinsic timers (``("vm", "op:<opcode>")`` and
        ``("vm", "intrinsic:<name>")`` records), and every child
        ``spawn_wait`` creates inherits them.  A ``None`` or disabled
        profiler attaches nothing, so the generated code stays untimed.
        """
        if profiler is not None and profiler.enabled:
            from repro.vm.compiled import VMTimer

            self._adopt_timer(VMTimer(profiler))
        return self

    def _adopt_timer(self, timer) -> None:
        self._timer = timer
        self._compiled.clear()
        self._call_intrinsic = timer.timed_intrinsics(self._call_intrinsic)
        self.child_observers.append(lambda child: child._adopt_timer(timer))

    def run(self, entry: str = "main", args: Sequence[Any] = ()) -> int:
        """Execute ``entry`` to completion; returns the exit code.

        ``exit()`` and falling off ``main`` both terminate; a fatal signal
        reports 128+signum Unix-style.
        """
        function = self.module.get_function(entry)
        try:
            result = self.call_function(function, list(args))
        except ProgramExit as stop:
            return stop.code
        finally:
            if self.metrics is not None:
                self.metrics.counter("vm.instructions_executed").inc(
                    self.executed_instructions
                )
                if self.pure_intrinsic_calls:
                    self.metrics.counter("vm.intrinsic_dispatches").inc(
                        self.pure_intrinsic_calls
                    )
        return result if isinstance(result, int) else 0

    # -- execution core -----------------------------------------------------------

    def call_function(self, function: Function, args: List[Any]):
        """Call a defined function or dispatch a declaration to intrinsics."""
        if function.is_declaration:
            return self._call_intrinsic(function.name, args)
        # Each VM frame costs several Python frames; cap well below
        # Python's own recursion limit so we fail with a VM diagnostic.
        if self._call_depth > 150:
            raise VMError(f"call depth exceeded calling @{function.name}")
        self._call_depth += 1
        try:
            return self._run_function(function, args)
        finally:
            self._call_depth -= 1

    def _run_function(self, function: Function, args: List[Any]):
        """Execute one defined function's body: the frame-execution hook.
        The first call binds the function for this VM
        (:func:`repro.vm.compiled.compile_function`)."""
        code = self._compiled.get(function)
        if code is None:
            from repro.vm.compiled import compile_function

            code = self._compiled[function] = compile_function(self, function)
        return code(self, args)

    def _call_intrinsic(self, name: str, args: List[Any]):
        call = self._intrinsic_calls.get(name)
        if call is None:
            call = self._intrinsic_calls[name] = self._bind_intrinsic(name)
        return call(self, args)

    def _bind_intrinsic(self, name: str) -> Callable:
        """``call(vm, args)`` for one intrinsic: its function plus the
        dispatch counters it bumps, resolved once."""
        fn = self.intrinsics.get(name)
        if fn is None:
            raise VMError(f"no intrinsic or definition for @{name}")
        if self.metrics is None:
            return fn
        from repro.vm.intrinsics import SYSCALL_INTRINSICS

        counters = [self.metrics.counter("vm.intrinsic_dispatches")]
        if name in SYSCALL_INTRINSICS:
            counters.append(self.metrics.counter("vm.syscall_dispatches"))
            counters.append(self.metrics.counter(f"vm.syscall.{name}"))

        def call(vm, args):
            for counter in counters:
                counter.inc()
            return fn(vm, args)

        return call

    # -- signals --------------------------------------------------------------------

    def _dispatch_pending_signals(self) -> None:
        """Run queued signal handlers (nested; not re-entrant)."""
        if not self.process.alive:
            # A fatal signal (or exit) landed during the last syscall.
            raise ProgramExit(
                128 + (self.process.exit_signal or 0), self.process.exit_signal
            )
        if self._in_signal_handler or not self.process.pending_signals:
            return
        self._in_signal_handler = True
        try:
            while self.process.pending_signals:
                signum, handler_name = self.process.pending_signals.pop(0)
                handler = self.module.functions.get(handler_name)
                if handler is None:
                    raise VMError(f"signal handler @{handler_name} not found")
                self.call_function(handler, [signum])
        finally:
            self._in_signal_handler = False

