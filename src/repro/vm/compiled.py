"""The compiled VM core: per-function closure compilation.

:func:`compile_function` translates one defined IR function into a
:class:`CompiledFunction`: SSA values become integer slots in a flat
register list, and every instruction becomes a specialized closure with
its operands resolved at compile time — no per-step ``isinstance``
ladder, no dispatch-table lookup, no frame-dictionary probes.  It is
the only production execution path: every
:class:`~repro.vm.interpreter.Interpreter` routes defined-function calls
here.  The testkit's :class:`~repro.testkit.reference.ReferenceInterpreter`
is its independent differential twin — a straight-line evaluator that
retires one instruction at a time.

Parity with that one-at-a-time semantics is the design constraint:

* ``executed_instructions`` matches a per-instruction retire count
  exactly, including on every error path.  Each basic block's count is
  added *before* the block runs; closures that can terminate early
  (division, bad pointers) carry their baked ``tail`` — the number of
  pre-counted instructions that will now never retire — and subtract it
  before raising, so the counter always reads as if instructions were
  retired one at a time.  Call closures take their tail back out for
  the whole call, so callees and signal handlers retire onto (and check
  the budget against) the exact count, and an unwinding call leaves it
  exact.
* When a block would cross the instruction budget, its count is not
  pre-added and the block runs through a per-instruction slow path
  that raises at exactly the instruction a one-at-a-time loop would.
  A call whose callee leaves too little budget for the block's
  pre-counted rest hands the remainder of the block to the same slow
  path, so the instructions before the budget point still run.
* Error messages are byte-identical to the reference evaluator's — the
  differential oracles fingerprint them.
* ϕ-nodes compile to per-edge move lists (classic SSA destruction),
  applied in instruction order so a ϕ reading an earlier ϕ of the same
  block observes the new value, exactly like sequential evaluation.
  Block variants are keyed by predecessor only when the block actually
  contains ϕ-nodes.
* Signal delivery stays at call boundaries: every call closure runs the
  pending-signal dispatch after its callee returns.

**Specializations.**  The work a closure can do at compile time, it
does there, so a step pays only for its own operation:

* constants live in the register file: each distinct constant operand
  gets a pool slot after the SSA slots, every call starts from a copy
  of the pooled file, and a constant operand is read exactly like a
  register one (``regs[i]``).  Getter closures
  (:meth:`_Compiler._fetch`) remain only for call arguments and for a
  global missing from ``vm.globals`` at compile time;
* a binop bakes its width's ``half`` and ``mask`` and wraps inline,
  ``((raw + half) & mask) - half``; no ``IntType.wrap`` call runs;
* ``load``/``store`` through a register pointer index ``regs`` and test
  ``slot.__class__ is StackSlot`` before the ``isinstance`` fallback
  (which admits a :class:`~repro.vm.frame.GlobalSlot`);
* call steps test ``process.state`` against ``RUNNING`` instead of
  reading the ``alive`` property.

Operation semantics still come from the shared tables
(``BINARY_OPS``/``ICMP_PREDICATES``, C-level ``operator`` functions
where one exists), read through this module's ``BINARY_OPS`` binding
when each closure is built.  Fault hooks that patch either the shared
table or that binding (the testkit's ``vm-mul-truncate`` and
``compiled-mul-truncate``) therefore compile into every VM built while
they are installed, and the ``vm`` oracle family catches them.

ChronoPriv's per-block counting call compiles to
``vm.chrono_count(n)`` — a direct method call instead of an intrinsic
dispatch — which the recorder overrides per-instance with a bare
counter-cell increment (see :mod:`repro.chronopriv.runtime`).

**Instrumented mode.**  When the VM carries a :class:`VMTimer` at
compile time (:meth:`~repro.vm.interpreter.Interpreter.attach_profiler`),
every step and terminator closure is wrapped with a timer, so a
profiled run measures the closures that ship:

``("vm", "op:<opcode>")``
    Self time of one instruction kind.  Times are *exclusive*: a
    ``call`` instruction's record covers only its own overhead, not the
    callee's instructions (attributed to their own opcodes) nor
    intrinsic bodies.
``("vm", "intrinsic:<name>")``
    Self time of one intrinsic (syscall wrappers, the AutoPriv runtime,
    libc-ish helpers).  ``intrinsic:__chrono_count`` is ChronoPriv's
    per-basic-block hook — its total is exactly the instrumentation tax
    the paper's counting layer adds to every block.

Exclusive timing uses a nested-time ledger (:attr:`VMTimer.nested`):
each compiled frame and intrinsic adds its total wall time to the
ledger on exit, and an enclosing window subtracts the ledger's growth
from its own.  A window *sets* the ledger to its start value plus its
own wall (rather than adding), so doubly-nested work is never
subtracted twice.  ``spawn_wait`` children share their parent's timer,
so a child's frames are nested work of the parent's ``spawn_wait``.
Without a timer the closures are built exactly as in the uninstrumented
core and no clock is ever read; instruction counts, budgets and error
paths are identical either way.

Known (accepted) divergences from the reference evaluator, all outside
the IR the frontend emits: reading an SSA temporary before its
definition yields the slot's initial ``0`` instead of a "use of
undefined value" error, and calling a defined function with too few
arguments zero-fills the missing parameters instead of erroring at
first use.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.ir import (
    Alloca,
    BinOp,
    Branch,
    Call,
    ConstantInt,
    ConstantString,
    FunctionRef,
    Function,
    GlobalVariable,
    ICmp,
    Jump,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Unreachable,
    UndefValue,
    Value,
)
from repro.ir.instructions import BINARY_OPS, ICMP_PREDICATES
from repro.oskernel.process import RUNNING
from repro.vm.frame import StackSlot
from repro.vm.interpreter import VMError

_BUDGET_MSG = "instruction budget exhausted (runaway program?)"

#: ChronoPriv's counting hook (kept literal to avoid an import cycle
#: with :mod:`repro.chronopriv.instrument`).
_CHRONO_COUNT = "__chrono_count"

#: Shared ``ret void`` result — terminators return either the next
#: :class:`_BlockCode` or a ``("ret", value)`` pair.
_RET_NONE = ("ret", None)

# Operand descriptor kinds (first element of the descriptor pair).
_REG = 0      # value lives in a register slot
_CONST = 1    # compile-time constant (int, str, FunctionRef, GlobalSlot)
_GLOBAL = 2   # GlobalVariable missing from vm.globals at compile time
_UNDEF = 3    # unresolvable value; using it raises the reference error


class _BlockCode:
    """One basic block (for one predecessor edge) in compiled form."""

    __slots__ = ("steps", "tails", "term", "count", "term_retires")

    def __init__(self) -> None:
        self.steps: Tuple[Callable, ...] = ()
        #: Per-step baked tail counts, for the budget slow path to undo a
        #: closure's own tail subtraction before re-raising.
        self.tails: Tuple[int, ...] = ()
        self.term: Callable = _unfilled_terminator
        #: Instructions this block pre-adds (steps + retiring terminator).
        self.count: int = 0
        #: False only for blocks missing a terminator: evaluation raises
        #: there *without* retiring an instruction.
        self.term_retires: bool = True


class _BudgetEdge(Exception):
    """A call ran the count up to where its block's pre-counted rest no
    longer fits the budget.  The call step leaves the count exact and
    raises this; the block then finishes on the slow path from the step
    after the call (``count - tail``), which raises at the exact
    instruction.  It never escapes the frame that raised it."""

    def __init__(self, tail: int) -> None:
        super().__init__(tail)
        self.tail = tail


def _unfilled_terminator(vm, regs):  # pragma: no cover - compile-time bug trap
    raise VMError("compiled block was never filled")


class CompiledFunction:
    """A compiled function body; called as ``code(vm, args)``."""

    __slots__ = ("function", "registers", "argc", "entry")

    def __init__(
        self, function: Function, registers: List[Any], argc: int, entry: _BlockCode
    ) -> None:
        self.function = function
        #: The register file a call starts from: zeroed argument and SSA
        #: slots, then the constant pool.
        self.registers = registers
        self.argc = argc
        self.entry = entry

    def __call__(self, vm, args: List[Any]):
        regs = self.registers.copy()
        argc = self.argc
        for index, value in enumerate(args):
            if index >= argc:
                break
            regs[index] = value
        code = self.entry
        maxi = vm.max_instructions
        while True:
            executed = vm.executed_instructions + code.count
            if executed > maxi:
                nxt = _run_slow(vm, regs, code, maxi)
            else:
                vm.executed_instructions = executed
                try:
                    for step in code.steps:
                        step(vm, regs)
                except _BudgetEdge as edge:
                    nxt = _run_slow(vm, regs, code, maxi, code.count - edge.tail)
                else:
                    nxt = code.term(vm, regs)
            if nxt.__class__ is _BlockCode:
                code = nxt
            else:
                return nxt[1]


def _run_slow(vm, regs, code: _BlockCode, maxi: int, start: int = 0):
    """Run one block from step ``start`` with per-instruction counting.

    The budget edge: the fast path did not pre-add the block (or a call
    step stopped short, see :class:`_BudgetEdge`); retire
    instructions one at a time so the budget error fires at exactly the
    instruction one-at-a-time evaluation would raise on.  Step closures
    expect their baked tail to be pre-added (and take it back out when
    they raise), so each step runs with its tail from the parallel
    ``tails`` record added for its duration.
    """
    steps, tails = code.steps, code.tails
    for index in range(start, len(steps)):
        vm.executed_instructions += 1
        if vm.executed_instructions > maxi:
            raise VMError(_BUDGET_MSG)
        tail = tails[index]
        vm.executed_instructions += tail
        try:
            steps[index](vm, regs)
        except _BudgetEdge:
            continue  # the call step left the count exact
        vm.executed_instructions -= tail
    if code.term_retires:
        vm.executed_instructions += 1
        if vm.executed_instructions > maxi:
            raise VMError(_BUDGET_MSG)
    return code.term(vm, regs)


class VMTimer:
    """Compiled-in wall-clock attribution for one VM and its children.

    :meth:`~repro.vm.interpreter.Interpreter.attach_profiler` builds one
    from a live profiler; the compiler wraps closures with :meth:`op`
    and :meth:`window`, and the VM's intrinsic dispatch is wrapped with
    :meth:`timed_intrinsics`.  See the module docstring for the ledger.
    Each wrapper binds its profile record on first use and bumps it
    directly: the hot path pays for two clock reads and two additions,
    and stacks that never run get no record.
    """

    __slots__ = ("profiler", "clock", "nested")

    def __init__(self, profiler) -> None:
        self.profiler = profiler
        self.clock = profiler.clock
        #: Wall seconds consumed by timed frames and intrinsics so far.
        self.nested = 0.0

    def op(self, closure: Callable, opcode: str) -> Callable:
        """``closure`` with its self time accounted to ``op:<opcode>``."""
        timer, clock = self, self.clock
        key = ("vm", "op:" + opcode)
        record = None

        def timed(vm, regs):
            nonlocal record
            nested = timer.nested
            start = clock()
            try:
                return closure(vm, regs)
            finally:
                # A raising instruction still retired: count it too, so
                # op calls always sum to executed_instructions.
                elapsed = (clock() - start) - (timer.nested - nested)
                if record is None:
                    record = timer.profiler.record(key)
                record.calls += 1
                if elapsed > 0.0:
                    record.seconds += elapsed

        return timed

    def window(self, fn: Callable, key=None) -> Callable:
        """``fn(a, b)`` as nested work: its wall time enters the ledger,
        and its self time is accounted to ``key`` when one is given."""
        timer, clock = self, self.clock
        record = None

        def timed(a, b):
            nonlocal record
            nested = timer.nested
            start = clock()
            try:
                return fn(a, b)
            finally:
                elapsed = clock() - start
                if key is not None:
                    if record is None:
                        record = timer.profiler.record(key)
                    record.calls += 1
                    own = elapsed - (timer.nested - nested)
                    if own > 0.0:
                        record.seconds += own
                timer.nested = nested + elapsed

        return timed

    def timed_intrinsics(self, call_intrinsic: Callable) -> Callable:
        """``call_intrinsic(name, args)`` timed per ``intrinsic:<name>``."""
        windows: Dict[str, Callable] = {}

        def call(name, args):
            timed = windows.get(name)
            if timed is None:
                if name == _CHRONO_COUNT:
                    # The compiled counting step already times this
                    # call (see ``_chrono_step``); inert child counters
                    # land here and must not count twice.
                    return call_intrinsic(name, args)
                timed = windows[name] = self.window(
                    call_intrinsic, ("vm", "intrinsic:" + name)
                )
            return timed(name, args)

        return call


def compile_function(vm, function: Function) -> Callable:
    """Compile ``function`` for ``vm`` (globals prebound to its slots).

    With a timer on the VM the body compiles in instrumented mode and
    the whole frame is timed as nested work.
    """
    code = _Compiler(vm, function).compile()
    timer = vm._timer
    return code if timer is None else timer.window(code)


class _Compiler:
    def __init__(self, vm, function: Function) -> None:
        self.vm = vm
        self.function = function
        #: The VM's :class:`VMTimer` when compiling in instrumented mode.
        self.timer = vm._timer
        #: SSA value -> register slot.  Arguments first, then every
        #: instruction (identity-keyed, like the reference's frame map).
        self.regmap: Dict[Value, int] = {}
        for argument in function.arguments:
            self.regmap[argument] = len(self.regmap)
        self.argc = len(self.regmap)
        for block in function.blocks:
            for instruction in block.instructions:
                self.regmap[instruction] = len(self.regmap)
        #: Constant value -> register slot, after the SSA slots.  Every
        #: call's register file starts with these filled in, so a
        #: constant operand is read exactly like a register one.
        self.constants: Dict[Any, int] = {}
        #: (block, pred-or-None) -> _BlockCode.  Blocks without ϕ-nodes
        #: compile once and share the code across every in-edge.
        self.variants: Dict[Tuple[Any, Any], _BlockCode] = {}
        self._worklist: List[Tuple[_BlockCode, Any, Any]] = []

    def compile(self) -> CompiledFunction:
        entry = self._variant(self.function.entry, None)
        while self._worklist:
            code, block, pred = self._worklist.pop()
            self._fill(code, block, pred)
        registers = [0] * len(self.regmap) + list(self.constants)
        return CompiledFunction(self.function, registers, self.argc, entry)

    def _variant(self, block, pred) -> _BlockCode:
        has_phi = any(isinstance(i, Phi) for i in block.instructions)
        key = (block, pred if has_phi else None)
        code = self.variants.get(key)
        if code is None:
            code = _BlockCode()
            self.variants[key] = code
            self._worklist.append((code, block, pred if has_phi else None))
        return code

    # -- operand resolution ---------------------------------------------------

    def _operand(self, value: Value) -> Tuple[int, Any]:
        index = self.regmap.get(value)
        if index is not None:
            return (_REG, index)
        if isinstance(value, (ConstantInt, ConstantString)):
            return (_CONST, value.value)
        if isinstance(value, FunctionRef):
            return (_CONST, value)
        if isinstance(value, GlobalVariable):
            slot = self.vm.globals.get(value)
            if slot is not None:
                return (_CONST, slot)
            return (_GLOBAL, value)
        if isinstance(value, UndefValue):
            return (_CONST, 0)
        return (
            _UNDEF,
            f"@{self.function.name}: use of undefined value {value.short()}",
        )

    def _reg(self, desc: Tuple[int, Any]) -> Optional[int]:
        """The register slot holding a register or constant operand's
        value (a constant gets a pool slot on first use); ``None`` for a
        late-bound global, which only a getter closure can read."""
        kind, payload = desc
        if kind == _REG:
            return payload
        if kind == _CONST:
            index = self.constants.get(payload)
            if index is None:
                index = self.constants[payload] = len(self.regmap) + len(self.constants)
            return index
        return None

    def _fetch(self, desc: Tuple[int, Any]) -> Callable:
        kind, payload = desc
        if kind == _GLOBAL:

            def get(vm, regs, _v=payload):
                return vm.globals[_v]

        else:

            def get(vm, regs, _i=self._reg(desc)):
                return regs[_i]

        return get

    @staticmethod
    def _first_undef(*descs) -> Optional[str]:
        for kind, payload in descs:
            if kind == _UNDEF:
                return payload
        return None

    # -- block compilation ----------------------------------------------------

    def _fill(self, code: _BlockCode, block, pred) -> None:
        body: List[Any] = []
        terminator = None
        for instruction in block.instructions:
            if instruction.is_terminator:
                terminator = instruction
                break
            body.append(instruction)
        step_count = len(body)
        code.term_retires = terminator is not None
        code.count = step_count + (1 if terminator is not None else 0)
        timer = self.timer
        steps: List[Callable] = []
        tails: List[int] = []
        for position, instruction in enumerate(body):
            # Pre-counted instructions that never retire if this one raises.
            tail = code.count - (position + 1)
            step = self._compile_step(instruction, pred, tail)
            if timer is not None:
                step = timer.op(step, instruction.opcode)
            steps.append(step)
            tails.append(tail)
        code.steps = tuple(steps)
        code.tails = tuple(tails)
        code.term = self._compile_terminator(terminator, block)
        if timer is not None and terminator is not None:
            code.term = timer.op(code.term, terminator.opcode)

    def _compile_step(self, instruction, pred, tail: int) -> Callable:
        if isinstance(instruction, Phi):
            return self._compile_phi(instruction, pred, tail)
        if isinstance(instruction, Call):
            return self._compile_call(instruction, tail)
        if isinstance(instruction, BinOp):
            return self._compile_binop(instruction, tail)
        if isinstance(instruction, Load):
            return self._compile_load(instruction, tail)
        if isinstance(instruction, Store):
            return self._compile_store(instruction, tail)
        if isinstance(instruction, ICmp):
            return self._compile_icmp(instruction, tail)
        if isinstance(instruction, Select):
            return self._compile_select(instruction, tail)
        if isinstance(instruction, Alloca):
            dest = self.regmap[instruction]
            name = instruction.name

            def step(vm, regs, _d=dest, _n=name):
                regs[_d] = StackSlot(_n)

            return step
        # The instruction set is closed; this only traps compiler bugs.
        return self._raiser(f"unknown instruction {instruction.opcode}", tail)

    def _raiser(self, message: str, tail: int) -> Callable:
        if tail:

            def step(vm, regs, _m=message, _t=tail):
                vm.executed_instructions -= _t
                raise VMError(_m)

        else:

            def step(vm, regs, _m=message):
                raise VMError(_m)

        return step

    def _compile_phi(self, instruction: Phi, pred, tail: int) -> Callable:
        incoming = instruction.incoming.get(pred)
        if incoming is None:
            return self._raiser(
                f"phi has no incoming for predecessor "
                f"%{pred.name if pred else '?'}",
                tail,
            )
        desc = self._operand(incoming)
        if desc[0] == _UNDEF:
            return self._raiser(desc[1], tail)
        dest = self.regmap[instruction]
        source = self._reg(desc)
        if source is None:

            def step(vm, regs, _d=dest, _v=desc[1]):
                regs[_d] = vm.globals[_v]

        else:

            def step(vm, regs, _d=dest, _s=source):
                regs[_d] = regs[_s]

        return step

    def _compile_binop(self, instruction: BinOp, tail: int) -> Callable:
        lhs = self._operand(instruction.operands[0])
        rhs = self._operand(instruction.operands[1])
        undef = self._first_undef(lhs, rhs)
        if undef is not None:
            return self._raiser(undef, tail)
        dest = self.regmap[instruction]
        op = instruction.op
        opfn = BINARY_OPS[op]
        half, mask = instruction.type.half, instruction.type.mask
        a, b = self._reg(lhs), self._reg(rhs)
        fast = a is not None and b is not None
        if op in ("sdiv", "srem"):
            if fast:

                def step(vm, regs, _d=dest, _a=a, _b=b, _o=opfn, _h=half, _m=mask,
                         _op=op, _t=tail):
                    try:
                        raw = _o(regs[_a], regs[_b])
                    except ZeroDivisionError:
                        vm.executed_instructions -= _t
                        raise VMError(f"{_op} by zero") from None
                    regs[_d] = ((raw + _h) & _m) - _h

                return step
            get_l, get_r = self._fetch(lhs), self._fetch(rhs)

            def step(vm, regs, _d=dest, _l=get_l, _r=get_r, _o=opfn, _h=half,
                     _m=mask, _op=op, _t=tail):
                try:
                    raw = _o(_l(vm, regs), _r(vm, regs))
                except ZeroDivisionError:
                    vm.executed_instructions -= _t
                    raise VMError(f"{_op} by zero") from None
                regs[_d] = ((raw + _h) & _m) - _h

            return step
        if fast:

            def step(vm, regs, _d=dest, _a=a, _b=b, _o=opfn, _h=half, _m=mask):
                regs[_d] = ((_o(regs[_a], regs[_b]) + _h) & _m) - _h

            return step
        get_l, get_r = self._fetch(lhs), self._fetch(rhs)

        def step(vm, regs, _d=dest, _l=get_l, _r=get_r, _o=opfn, _h=half, _m=mask):
            regs[_d] = ((_o(_l(vm, regs), _r(vm, regs)) + _h) & _m) - _h

        return step

    def _compile_icmp(self, instruction: ICmp, tail: int) -> Callable:
        lhs = self._operand(instruction.operands[0])
        rhs = self._operand(instruction.operands[1])
        undef = self._first_undef(lhs, rhs)
        if undef is not None:
            return self._raiser(undef, tail)
        dest = self.regmap[instruction]
        predicate = ICMP_PREDICATES[instruction.predicate]
        a, b = self._reg(lhs), self._reg(rhs)
        if a is not None and b is not None:

            def step(vm, regs, _d=dest, _a=a, _b=b, _p=predicate):
                regs[_d] = 1 if _p(regs[_a], regs[_b]) else 0

            return step
        get_l, get_r = self._fetch(lhs), self._fetch(rhs)

        def step(vm, regs, _d=dest, _l=get_l, _r=get_r, _p=predicate):
            regs[_d] = 1 if _p(_l(vm, regs), _r(vm, regs)) else 0

        return step

    def _compile_load(self, instruction: Load, tail: int) -> Callable:
        pointer = self._operand(instruction.pointer)
        kind, payload = pointer
        if kind == _UNDEF:
            return self._raiser(payload, tail)
        dest = self.regmap[instruction]
        if kind == _CONST and isinstance(payload, StackSlot):
            # Global load: the slot is prebound, no pointer check needed.

            def step(vm, regs, _d=dest, _s=payload):
                value = _s.value
                regs[_d] = 0 if value is None else value

            return step
        if kind == _CONST:
            return self._raiser(f"load through non-pointer {payload!r}", tail)
        if kind == _REG:
            # The exact-class test is the common case; the isinstance
            # fallback admits GlobalSlot (a global's address in a register).

            def step(vm, regs, _d=dest, _p=payload, _t=tail):
                slot = regs[_p]
                if slot.__class__ is StackSlot or isinstance(slot, StackSlot):
                    value = slot.value
                    regs[_d] = 0 if value is None else value
                else:
                    vm.executed_instructions -= _t
                    raise VMError(f"load through non-pointer {slot!r}")

            return step
        get_p = self._fetch(pointer)

        def step(vm, regs, _d=dest, _g=get_p, _t=tail):
            slot = _g(vm, regs)
            if isinstance(slot, StackSlot):
                value = slot.value
                regs[_d] = 0 if value is None else value
            else:
                vm.executed_instructions -= _t
                raise VMError(f"load through non-pointer {slot!r}")

        return step

    def _compile_store(self, instruction: Store, tail: int) -> Callable:
        # The pointer resolves first, then is checked, then the value
        # resolves; error precedence here matches that order.
        pointer = self._operand(instruction.pointer)
        kind, payload = pointer
        if kind == _UNDEF:
            return self._raiser(payload, tail)
        value = self._operand(instruction.value)
        if value[0] == _UNDEF:
            if kind == _CONST and isinstance(payload, StackSlot):
                return self._raiser(value[1], tail)
            if kind == _CONST:
                return self._raiser(
                    f"store through non-pointer {payload!r}", tail
                )
            get_p = self._fetch(pointer)

            def step(vm, regs, _g=get_p, _m=value[1], _t=tail):
                slot = _g(vm, regs)
                vm.executed_instructions -= _t
                if isinstance(slot, StackSlot):
                    raise VMError(_m)
                raise VMError(f"store through non-pointer {slot!r}")

            return step
        source = self._reg(value)
        if kind == _CONST and isinstance(payload, StackSlot):
            if source is not None:

                def step(vm, regs, _s=payload, _v=source):
                    _s.value = regs[_v]

            else:

                def step(vm, regs, _s=payload, _g=self._fetch(value)):
                    _s.value = _g(vm, regs)

            return step
        if kind == _CONST:
            return self._raiser(f"store through non-pointer {payload!r}", tail)
        if kind == _REG and source is not None:

            def step(vm, regs, _p=payload, _v=source, _t=tail):
                slot = regs[_p]
                if slot.__class__ is StackSlot or isinstance(slot, StackSlot):
                    slot.value = regs[_v]
                else:
                    vm.executed_instructions -= _t
                    raise VMError(f"store through non-pointer {slot!r}")

            return step
        get_p = self._fetch(pointer)
        get_v = self._fetch(value)

        def step(vm, regs, _gp=get_p, _gv=get_v, _t=tail):
            slot = _gp(vm, regs)
            if isinstance(slot, StackSlot):
                slot.value = _gv(vm, regs)
            else:
                vm.executed_instructions -= _t
                raise VMError(f"store through non-pointer {slot!r}")

        return step

    def _compile_select(self, instruction: Select, tail: int) -> Callable:
        cond = self._operand(instruction.operands[0])
        if_true = self._operand(instruction.operands[1])
        if_false = self._operand(instruction.operands[2])
        undef = self._first_undef(cond, if_true, if_false)
        if undef is not None:
            return self._raiser(undef, tail)
        dest = self.regmap[instruction]
        c, t, f = self._reg(cond), self._reg(if_true), self._reg(if_false)
        if c is not None and t is not None and f is not None:

            def step(vm, regs, _d=dest, _c=c, _t=t, _f=f):
                regs[_d] = regs[_t] if regs[_c] else regs[_f]

            return step
        get_c = self._fetch(cond)
        get_t = self._fetch(if_true)
        get_f = self._fetch(if_false)

        def step(vm, regs, _d=dest, _gc=get_c, _gt=get_t, _gf=get_f):
            # Like the reference evaluator, all three operands resolve.
            taken = _gt(vm, regs)
            other = _gf(vm, regs)
            regs[_d] = taken if _gc(vm, regs) else other

        return step

    def _compile_call(self, instruction: Call, tail: int) -> Callable:
        dest = self.regmap[instruction]
        arg_descs = [self._operand(arg) for arg in instruction.args]
        callee = instruction.callee
        if isinstance(callee, FunctionRef):
            undef = self._first_undef(*arg_descs)
            if undef is not None:
                return self._raiser(undef, tail)
            target = callee.function
            if (
                target.is_declaration
                and target.name == _CHRONO_COUNT
                and len(instruction.args) == 1
                and isinstance(instruction.args[0], ConstantInt)
            ):
                return self._chrono_step(dest, instruction.args[0].value, tail)
            getters = tuple(self._fetch(desc) for desc in arg_descs)
            if target.is_declaration:

                def step(vm, regs, _d=dest, _n=target.name, _g=getters, _t=tail):
                    vm.executed_instructions -= _t
                    regs[_d] = vm._call_intrinsic(_n, [g(vm, regs) for g in _g])
                    process = vm.process
                    if process.pending_signals or process.state != RUNNING:
                        vm._dispatch_pending_signals()
                    if vm.executed_instructions + _t > vm.max_instructions:
                        raise _BudgetEdge(_t)
                    vm.executed_instructions += _t

                return step

            def step(vm, regs, _d=dest, _f=target, _g=getters, _t=tail):
                vm.executed_instructions -= _t
                regs[_d] = vm.call_function(_f, [g(vm, regs) for g in _g])
                process = vm.process
                if process.pending_signals or process.state != RUNNING:
                    vm._dispatch_pending_signals()
                if vm.executed_instructions + _t > vm.max_instructions:
                    raise _BudgetEdge(_t)
                vm.executed_instructions += _t

            return step
        callee_desc = self._operand(callee)
        undef = self._first_undef(callee_desc, *arg_descs)
        if undef is not None:
            return self._raiser(undef, tail)
        get_callee = self._fetch(callee_desc)
        getters = tuple(self._fetch(desc) for desc in arg_descs)

        def step(vm, regs, _d=dest, _gc=get_callee, _g=getters, _t=tail):
            vm.executed_instructions -= _t
            target = _gc(vm, regs)
            if not isinstance(target, FunctionRef):
                raise VMError(f"indirect call through non-function {target!r}")
            regs[_d] = vm.call_function(
                target.function, [g(vm, regs) for g in _g]
            )
            process = vm.process
            if process.pending_signals or process.state != RUNNING:
                vm._dispatch_pending_signals()
            if vm.executed_instructions + _t > vm.max_instructions:
                raise _BudgetEdge(_t)
            vm.executed_instructions += _t

        return step

    def _chrono_step(self, dest: int, count: int, tail: int) -> Callable:
        """ChronoPriv's per-block counter: a direct method call.

        ``vm.chrono_count`` defaults to the intrinsic dispatch (so inert
        and custom hooks keep working) and the recorder overrides it
        per-instance with a counter-cell increment.  Signal delivery at
        the call boundary is preserved.  In instrumented mode the step is
        timed as ``intrinsic:__chrono_count``, the counting layer's tax.
        """

        def step(vm, regs, _d=dest, _k=count, _t=tail):
            vm.executed_instructions -= _t
            regs[_d] = vm.chrono_count(_k)
            process = vm.process
            if process.pending_signals or process.state != RUNNING:
                vm._dispatch_pending_signals()
            if vm.executed_instructions + _t > vm.max_instructions:
                raise _BudgetEdge(_t)
            vm.executed_instructions += _t

        if self.timer is not None:
            return self.timer.window(step, ("vm", "intrinsic:" + _CHRONO_COUNT))
        return step

    # -- terminators ----------------------------------------------------------

    def _compile_terminator(self, instruction, block) -> Callable:
        function_name = self.function.name
        if instruction is None:

            def term(vm, regs, _m=(
                f"@{function_name}:%{block.name}: block without terminator"
            )):
                raise VMError(_m)

            return term
        if isinstance(instruction, Ret):
            value = instruction.value
            if value is None:

                def term(vm, regs):
                    return _RET_NONE

                return term
            desc = self._operand(value)
            kind, payload = desc
            if kind == _UNDEF:

                def term(vm, regs, _m=payload):
                    raise VMError(_m)

            elif kind == _REG:

                def term(vm, regs, _s=payload):
                    return ("ret", regs[_s])

            elif kind == _GLOBAL:

                def term(vm, regs, _v=payload):
                    return ("ret", vm.globals[_v])

            else:
                result = ("ret", payload)

                def term(vm, regs, _r=result):
                    return _r

            return term
        if isinstance(instruction, Jump):
            target = self._variant(instruction.target, block)

            def term(vm, regs, _n=target):
                return _n

            return term
        if isinstance(instruction, Branch):
            if_true = self._variant(instruction.if_true, block)
            if_false = self._variant(instruction.if_false, block)
            desc = self._operand(instruction.operands[0])
            kind, payload = desc
            if kind == _UNDEF:

                def term(vm, regs, _m=payload):
                    raise VMError(_m)

            elif kind == _GLOBAL:

                def term(vm, regs, _v=payload, _t=if_true, _f=if_false):
                    return _t if vm.globals[_v] else _f

            else:

                def term(vm, regs, _c=self._reg(desc), _t=if_true, _f=if_false):
                    return _t if regs[_c] else _f

            return term
        if isinstance(instruction, Unreachable):

            def term(vm, regs, _m=(
                f"@{function_name}:%{block.name}: reached unreachable"
            )):
                raise VMError(_m)

            return term
        # pragma: no cover - the terminator set is closed
        def term(vm, regs, _m=f"unknown instruction {instruction.opcode}"):
            raise VMError(_m)

        return term
