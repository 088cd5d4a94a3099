"""Independent reference implementations for the differential oracles.

The value of a differential oracle scales with how little the two sides
share.  :class:`ReferenceInterpreter` therefore re-implements the VM's
execution core from the IR semantics rather than reusing the production
code paths: a straight-line ``isinstance`` ladder over per-frame value
dictionaries instead of the generated core's Python locals and
pre-counted blocks, its own operand resolution, and inline arithmetic
(explicit two's-complement wrapping, C-style truncating division)
instead of the shared ``BINARY_OPS``/``ICMP_PREDICATES`` tables.  A bug
in either evaluation strategy — stale generated code, a wrong wrap,
a missed retire — shows up as a disagreement in exit code, stdout,
instruction count, or final kernel state.

Call-boundary behaviour (intrinsic dispatch, signal delivery, the call
depth cap) intentionally reuses the base class: those are *inputs* to
the evaluation strategy under test, and sharing them keeps
disagreements attributable to instruction semantics.

The interpreter subclasses :class:`~repro.vm.interpreter.Interpreter`
and overrides only its frame-execution hook
(:meth:`~repro.vm.interpreter.Interpreter._run_function`), so
``spawn_wait`` children inherit it (``type(vm)``) and the whole
pipeline can run on it via
:func:`~repro.vm.interpreter.set_interpreter_class`.
"""

from __future__ import annotations

from repro.ir import (
    Alloca,
    BinOp,
    Branch,
    Call,
    ConstantInt,
    ConstantString,
    FunctionRef,
    GlobalVariable,
    ICmp,
    Jump,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    UndefValue,
)
from repro.vm.frame import Frame, StackSlot
from repro.vm.interpreter import Interpreter, VMError


def _wrap(bits: int, value: int) -> int:
    """Two's-complement wrap, written independently of ``IntType.wrap``."""
    value %= 1 << bits
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def _trunc_div(a: int, b: int) -> int:
    """C-style truncating division (round toward zero)."""
    quotient, remainder = divmod(abs(a), abs(b))
    return -quotient if (a < 0) != (b < 0) else quotient


class ReferenceInterpreter(Interpreter):
    """The straight-line reference evaluator.

    Drop-in for :class:`Interpreter`; only the per-instruction execution
    strategy differs.
    """

    def _resolve(self, frame: Frame, value):
        # Literal kinds first — the opposite probe order from the
        # compiled core's operand resolution, so ordering bugs cannot
        # hide in both.
        if isinstance(value, ConstantInt):
            return value.value
        if isinstance(value, ConstantString):
            return value.value
        if isinstance(value, FunctionRef):
            return value
        if isinstance(value, GlobalVariable):
            slot = self.globals.get(value)
            if slot is not None:
                return slot
        if isinstance(value, UndefValue):
            return 0
        if value in frame.values:
            return frame.values[value]
        raise VMError(
            f"@{frame.function.name}: use of undefined value {value.short()}"
        )

    def _run_function(self, function, args):
        return self._run_frame(Frame(function, args))

    def _run_frame(self, frame: Frame):
        resolve = self._resolve
        while True:
            block = frame.block
            if block is None:
                raise VMError(f"@{frame.function.name}: fell off function end")
            if frame.index >= len(block.instructions):
                raise VMError(
                    f"@{frame.function.name}:%{block.name}: block without terminator"
                )
            instruction = block.instructions[frame.index]
            self.executed_instructions += 1
            if self.executed_instructions > self.max_instructions:
                raise VMError("instruction budget exhausted (runaway program?)")

            if isinstance(instruction, BinOp):
                lhs = resolve(frame, instruction.operands[0])
                rhs = resolve(frame, instruction.operands[1])
                op = instruction.op
                if op == "add":
                    raw = lhs + rhs
                elif op == "sub":
                    raw = lhs - rhs
                elif op == "mul":
                    raw = lhs * rhs
                elif op == "sdiv":
                    if rhs == 0:
                        raise VMError("sdiv by zero")
                    raw = _trunc_div(lhs, rhs)
                elif op == "srem":
                    if rhs == 0:
                        raise VMError("srem by zero")
                    raw = lhs - _trunc_div(lhs, rhs) * rhs
                elif op == "and":
                    raw = lhs & rhs
                elif op == "or":
                    raw = lhs | rhs
                elif op == "xor":
                    raw = lhs ^ rhs
                elif op == "shl":
                    raw = lhs << rhs
                elif op == "lshr":
                    raw = (lhs % (1 << 64)) >> rhs
                else:  # pragma: no cover - the op set is closed
                    raise VMError(f"unknown binary op {op}")
                frame.values[instruction] = _wrap(instruction.type.bits, raw)
                frame.index += 1
            elif isinstance(instruction, ICmp):
                lhs = resolve(frame, instruction.operands[0])
                rhs = resolve(frame, instruction.operands[1])
                predicate = instruction.predicate
                if predicate == "eq":
                    flag = lhs == rhs
                elif predicate == "ne":
                    flag = lhs != rhs
                elif predicate == "slt":
                    flag = lhs < rhs
                elif predicate == "sle":
                    flag = lhs <= rhs
                elif predicate == "sgt":
                    flag = lhs > rhs
                elif predicate == "sge":
                    flag = lhs >= rhs
                else:  # pragma: no cover - the predicate set is closed
                    raise VMError(f"unknown icmp predicate {predicate}")
                frame.values[instruction] = 1 if flag else 0
                frame.index += 1
            elif isinstance(instruction, Load):
                slot = resolve(frame, instruction.pointer)
                if not isinstance(slot, StackSlot):
                    raise VMError(f"load through non-pointer {slot!r}")
                frame.values[instruction] = 0 if slot.value is None else slot.value
                frame.index += 1
            elif isinstance(instruction, Store):
                slot = resolve(frame, instruction.pointer)
                if not isinstance(slot, StackSlot):
                    raise VMError(f"store through non-pointer {slot!r}")
                slot.value = resolve(frame, instruction.value)
                frame.index += 1
            elif isinstance(instruction, Alloca):
                frame.values[instruction] = StackSlot(instruction.name)
                frame.index += 1
            elif isinstance(instruction, Call):
                callee = instruction.callee
                if not isinstance(callee, FunctionRef):
                    callee = resolve(frame, callee)
                    if not isinstance(callee, FunctionRef):
                        raise VMError(
                            f"indirect call through non-function {callee!r}"
                        )
                args = [resolve(frame, arg) for arg in instruction.args]
                frame.values[instruction] = self.call_function(callee.function, args)
                self._dispatch_pending_signals()
                frame.index += 1
            elif isinstance(instruction, Branch):
                taken = (
                    instruction.if_true
                    if resolve(frame, instruction.operands[0])
                    else instruction.if_false
                )
                frame.prev_block = block
                frame.block = taken
                frame.index = 0
            elif isinstance(instruction, Jump):
                frame.prev_block = block
                frame.block = instruction.target
                frame.index = 0
            elif isinstance(instruction, Phi):
                incoming = instruction.incoming.get(frame.prev_block)
                if incoming is None:
                    raise VMError(
                        f"phi has no incoming for predecessor "
                        f"%{frame.prev_block.name if frame.prev_block else '?'}"
                    )
                frame.values[instruction] = resolve(frame, incoming)
                frame.index += 1
            elif isinstance(instruction, Select):
                cond = resolve(frame, instruction.operands[0])
                frame.values[instruction] = resolve(
                    frame, instruction.operands[1] if cond else instruction.operands[2]
                )
                frame.index += 1
            elif isinstance(instruction, Ret):
                if instruction.value is not None:
                    return resolve(frame, instruction.value)
                return None
            else:
                raise VMError(
                    f"@{frame.function.name}:%{block.name}: "
                    f"reached {instruction.opcode}"
                )


class ReferencePhaseCounter:
    """ChronoPriv's phase table, counted independently of the recorder.

    :class:`~repro.chronopriv.ChronoRecorder` books the VM's running
    ``chrono_total`` at its process's credential changes.  This counter
    shares none of that: it installs a ``__chrono_count`` intrinsic that
    reads the process's (permitted set, uid triple, gid triple) key at
    every block it counts.  Each child ``spawn_wait`` creates gets a
    counter of its own, in :attr:`children`.
    """

    def __init__(self, vm) -> None:
        self.counts = {}
        self.children = []
        vm.register_intrinsic("__chrono_count", self._count)
        vm.child_observers.append(
            lambda child: self.children.append(ReferencePhaseCounter(child))
        )

    def _count(self, vm, args):
        process = vm.process
        creds = process.creds
        key = (process.caps.permitted, creds.uid_triple, creds.gid_triple)
        self.counts[key] = self.counts.get(key, 0) + args[0]
        return 0

    def table(self):
        """``(permitted, uids, gids, count)`` per phase, in the order of
        each phase's first counted block."""
        return tuple(key + (count,) for key, count in self.counts.items())
