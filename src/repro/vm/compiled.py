"""The VM core: each IR function generated as one Python function.

:func:`compile_function` translates one defined IR function into the
source text of one Python ``def``, compiles it (through process-wide
caches) and binds the code to the calling VM's own namespace.  SSA
values become Python locals (``v<slot>``), and the body dispatches over
basic-block ids in a single ``while`` loop.  It is the only production
execution path: every :class:`~repro.vm.interpreter.Interpreter` routes
defined-function calls here.  The testkit's
:class:`~repro.testkit.reference.ReferenceInterpreter` is its
independent differential twin — a straight-line evaluator that retires
one instruction at a time.

Parity with that one-at-a-time semantics is the design constraint:

* ``executed_instructions`` matches a per-instruction retire count
  exactly, including on every error path.  Each basic block's count is
  added *before* the block runs; statements that can terminate early
  (division, bad pointers) carry their baked ``tail`` — the number of
  pre-counted instructions that will now never retire — and subtract it
  before raising, so the counter always reads as if instructions were
  retired one at a time.  A call takes its tail back out for the whole
  call, so callees and signal handlers retire onto (and check the
  budget against) the exact count, and an unwinding call leaves it
  exact.
* When a block would cross the instruction budget, its count is not
  pre-added and the frame hands the block to its *budget edge*: a
  second function, generated on first need from the same statement
  emitters, that retires the block's instructions one at a time and
  raises at exactly the instruction a one-at-a-time loop would.  A call
  whose callee leaves too little budget for the block's pre-counted
  rest hands the rest of the block to the same path.  A block that does
  not fit always ends inside it (the count only grows), so the edge
  never returns; it reads the frame's locals through ``sys._getframe``.
* Error messages are byte-identical to the reference evaluator's — the
  differential oracles fingerprint them.
* ϕ-nodes become per-edge moves (classic SSA destruction), applied in
  instruction order so a ϕ reading an earlier ϕ of the same block
  observes the new value, exactly like sequential evaluation.  Block
  variants are keyed by predecessor only when the block actually
  contains ϕ-nodes.
* Signal delivery stays at call boundaries: every call runs the
  pending-signal dispatch after its callee returns.

**Code shape.**  The generator does at generation time what it can, so
a statement pays only for its own operation, and keeps the text short:
``compile()`` of a statement costs about as much as running it a
hundred times, and much generated code (a corpus program's) runs once:

* a block variant that exactly one terminator reaches is emitted right
  after that terminator (a *fallthrough*), so straight-line and loop
  bodies run without a dispatch; the rest get ids, found by a binary
  ``if b < k`` tree inside the ``while``.  A function whose variants all
  fall through has no loop at all;
* an ``alloca`` whose address is only ever loaded from or stored to is
  a Python local, not a :class:`~repro.vm.frame.StackSlot` (stores map
  ``None`` to ``0``, which is what a load would read), and a load from
  one whose value is only used later in its block is no statement at
  all: its uses read the alloca's local;
* integer and string constants are literals in the text; every other
  constant (global slots, function references, direct-call targets) is
  a name bound in the VM's namespace;
* a binop wraps inline with its width's ``half`` and ``mask`` baked in,
  ``((raw + half) & mask) - half``; no ``IntType.wrap`` call runs;
* an ``sdiv``/``srem`` by a literal ``c > 0`` is one expression,
  ``a % c if a >= 0 else -(-a % c)`` (or ``//``): no ``try`` and no
  call.  A remainder is smaller than ``c``, so it needs no wrap; a
  quotient keeps its wrap, since a dividend an intrinsic returned may be
  wider than the type;
* a block's budget check and pre-add read the counter once:
  ``if (n := vm.executed_instructions + k) > maxi: _edge(vid)``, then
  ``vm.executed_instructions = n``;
* an ``icmp`` whose only reader is the branch right after it is no
  statement: the branch tests the comparison itself.  A local-only
  alloca's zero store is left out when a store to it comes next.  (The
  budget edge keeps both, so it still retires them one at a time.);
* ChronoPriv's per-block counting call is ``vm.chrono_total += n``:
  no call at all, since the stock ``__chrono_count`` hook only adds
  there and the recorder books that total at credential changes (see
  :mod:`repro.chronopriv.runtime`).  A block that starts with its
  counting call enters inline when it is on a cycle of the variant
  graph (the budget check, the pre-add and the addition), and through
  one helper call, :meth:`_Runtime.enter`, otherwise, which keeps the
  text of straight-line code short.  A custom hook runs only under the
  reference interpreter: :func:`compile_function` refuses a VM that has
  one;
* every other call is one helper call (:meth:`_Runtime.call_intrinsic`
  and its siblings) that finds its callee, tail and block position by a
  site id: the text names no callee, and the helper does the tail,
  signal and budget-edge bookkeeping.  In an untimed function the
  helper calls a pure intrinsic
  (:data:`~repro.vm.intrinsics.PURE_INTRINSICS`: ``strlen``, ``streq``
  and the other helpers that touch no kernel or process state) whose VM
  entry is still the stock function straight away, one frame in all:
  such a call retires nothing and cannot signal, so there is no
  bookkeeping to do.

Operation semantics still come from the shared tables
(``BINARY_OPS``/``ICMP_PREDICATES``), read through this module's
``BINARY_OPS`` binding at generation time.  An operation becomes an
inline Python operator only when its table entry *is* the stock
``operator`` function for it, and a division by a positive literal is
inline only when its entry *is* the stock ``sdiv``/``srem`` function
(the expression comes from ``_DIVIDE_BY_CONSTANT``); any other entry
(``lshr``, a division by anything else, or a patched one) is called
through a name bound to that entry.  Fault hooks that patch the shared
table, that binding or the division templates (the testkit's
``vm-mul-truncate``, ``compiled-mul-truncate`` and
``compiled-srem-floor``) therefore change the generated text of every VM
built while they are installed, and the ``vm`` oracle family catches
them.

**Recipe, key and bind.**  Generation (:class:`_Compiler`) makes an
immutable :class:`Recipe`: the code object, plus everything a VM must
bind, by name where the module holds it (constant-pool entries: global
slots by global name, function references by function name;
operation-table entries; timer recorders), the call-site
table (tails, block positions, callee names) and the block-entry table.
:func:`bind` resolves those names against one VM's ``vm.module`` and
``vm.globals`` and gives the function its own run-time helpers
(:class:`_Runtime`: ``_intrinsic``, ``_call``, ``_indirect``, ``_enter``,
``_edge``).  The budget edge is rare, so a bound function
regenerates it from its VM's own :class:`~repro.ir.Function` the first
time a block needs it.  A recipe holds no IR object and no VM, so a
request's module and VM are still freed by reference counting.

:data:`RECIPES` keeps recipes process-wide, keyed by content: the
module's ``content_key`` (a digest of the source and compile options,
stamped by :meth:`repro.core.pipeline.PrivAnalyzer.compile`), the
function's name, and whether the VM is timed; a recipe serves only
while every ``BINARY_OPS``/``ICMP_PREDICATES`` entry and division
template its text read is still the table's entry (so the faults above
get fresh code).  A program analyzed again, by a served request, a
``spawn_wait`` child or
:func:`repro.core.multiprocess.analyze_multiprocess`, generates no
text.  A module without a key (hand-built IR) always
generates.  Generating
still compiles through :data:`CODE_CACHE`, which keeps the code objects
of recently generated texts keyed by the text itself: a code object is
immutable and its key is its whole input, so neither cache can go
stale.  Two VMs running one program share code objects but never
globals or locals.

**Instrumented mode.**  When the VM carries a :class:`VMTimer` at
compile time (:meth:`~repro.vm.interpreter.Interpreter.attach_profiler`),
the same generator wraps every statement and terminator in a timer, so
a profiled run measures the code that ships (blocks then enter inline,
with the count timed on its own, and no statement is left out):

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
Without a timer the text carries no timer call and no clock is ever
read; instruction counts, budgets and error paths are identical either
way.

Known (accepted) divergences from the reference evaluator, all outside
the IR the frontend emits: reading an SSA temporary before its
definition yields ``0`` instead of a "use of undefined value" error (so
does a load through a local-only ``alloca`` before the ``alloca`` ran),
and calling a defined function with too few arguments zero-fills the
missing parameters instead of erroring at first use.
"""

from __future__ import annotations

import builtins
import operator
import re
import sys
import threading
from collections import OrderedDict
from types import CodeType, FunctionType
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.ir import (
    Alloca,
    Instruction,
    Argument,
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
from repro.ir.instructions import BINARY_OPS, ICMP_PREDICATES, _signed_div, _signed_rem
from repro.oskernel.process import RUNNING
from repro.vm.frame import StackSlot
from repro.vm.interpreter import VMError
from repro.vm.intrinsics import PURE_INTRINSICS, stock_chrono_count

_BUDGET_MSG = "instruction budget exhausted (runaway program?)"

#: ChronoPriv's counting hook (kept literal to avoid an import cycle
#: with :mod:`repro.chronopriv.instrument`).
_CHRONO_COUNT = "__chrono_count"

# Operand descriptor kinds (first element of the descriptor pair).
_REG = 0      # value lives in a local (an argument or an instruction)
_CONST = 1    # literal in the text or name bound at bind time (int, str,
              # FunctionRef, a global's GlobalSlot)
_UNDEF = 2    # unresolvable value (a global with no VM slot included);
              # using it raises the reference error

#: The Python operator for each stock ``operator`` function a table
#: entry may be; an entry missing here is called by name.
_INLINE_OPS = {
    operator.add: "+",
    operator.sub: "-",
    operator.mul: "*",
    operator.and_: "&",
    operator.or_: "|",
    operator.xor: "^",
    operator.lshift: "<<",
}
_INLINE_PREDICATES = {
    operator.eq: "==",
    operator.ne: "!=",
    operator.lt: "<",
    operator.le: "<=",
    operator.gt: ">",
    operator.ge: ">=",
}

#: The inline expression of a division by a literal ``c > 0`` for each
#: stock division entry: C's truncation toward zero, which Python's
#: floor operators give for a non-negative dividend and, mirrored, for a
#: negative one.  ``c`` cannot be zero, so there is nothing to catch.
_DIVIDE_BY_CONSTANT = {
    _signed_div: "{a} // {c} if {a} >= 0 else -(-{a} // {c})",
    _signed_rem: "{a} % {c} if {a} >= 0 else -(-{a} % {c})",
}

#: The local names a generated text gives SSA values.
_LOCAL_NAME = re.compile(r"\bv\d+\b")

#: Marks a call result the frame has not stored yet (see ``_finish``).
_UNSTORED = object()


class LRU:
    """A bounded, thread-safe least-recently-used map."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key) -> Any:
        """The entry under ``key`` (now the most recent), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def store(self, key, entry) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class CodeCache(LRU):
    """A bounded, thread-safe LRU of compiled generated texts.

    Maps a text to the code object of the one ``def`` it holds.  The
    text is the whole key, so a hit is always the code ``compile()``
    would produce.  ``compile()`` runs outside the lock; two threads
    missing on one text both compile it and one result is kept.
    """

    def get(self, text: str) -> CodeType:
        code = self.lookup(text)
        if code is None:
            module = compile(text, "<repro.vm generated>", "exec")
            code = next(c for c in module.co_consts if isinstance(c, CodeType))
            self.store(text, code)
        return code


#: The process-wide code cache.  The 8 table programs generate 50
#: distinct texts; the bound keeps a corpus sweep, whose texts almost
#: never repeat, from holding code it will not run again.
CODE_CACHE = CodeCache(64)

#: The process-wide recipe cache (see :func:`compile_function`): one
#: :class:`Recipe` per (program content key, function name, timed).  The
#: 8 table programs need 61; a corpus sweep, whose programs never
#: repeat, only cycles through it.
RECIPES = LRU(128)


def _pad(args: List[Any], argc: int) -> List[Any]:
    """``args`` cut or zero-filled to ``argc`` values."""
    return (list(args) + [0] * argc)[:argc]


def _nonptr(vm, tail: int, access: str, value) -> None:
    vm.executed_instructions -= tail
    raise VMError(f"{access} through non-pointer {value!r}")


def _bad_callee(target) -> None:
    raise VMError(f"indirect call through non-function {target!r}")


class VMTimer:
    """Compiled-in wall-clock attribution for one VM and its children.

    :meth:`~repro.vm.interpreter.Interpreter.attach_profiler` builds one
    from a live profiler; generated code closes each timed statement
    with an :meth:`op_done` recorder, compiled frames are wrapped with
    :meth:`window`, and the VM's intrinsic dispatch with
    :meth:`timed_intrinsics`.  See the module docstring for the ledger.
    Each recorder binds its profile record on first use and bumps it
    directly: the hot path pays for two clock reads and two additions,
    and stacks that never run get no record.
    """

    __slots__ = ("profiler", "clock", "nested")

    def __init__(self, profiler) -> None:
        self.profiler = profiler
        self.clock = profiler.clock
        #: Wall seconds consumed by timed frames and intrinsics so far.
        self.nested = 0.0

    def op_done(self, opcode: str) -> Callable[[float, float], None]:
        """``done(start, nested)``: account the self time since ``start``
        (ledger then at ``nested``) to ``op:<opcode>``."""
        timer, clock = self, self.clock
        key = ("vm", "op:" + opcode)
        record = None

        def done(start: float, nested: float) -> None:
            nonlocal record
            # A raising instruction still retired: count it too, so op
            # calls always sum to executed_instructions.
            elapsed = (clock() - start) - (timer.nested - nested)
            if record is None:
                record = timer.profiler.record(key)
            record.calls += 1
            if elapsed > 0.0:
                record.seconds += elapsed

        return done

    def window_done(self, key=None) -> Callable[[float, float], None]:
        """``done(start, nested)`` closing a window of nested work: its
        wall time enters the ledger, and its self time is accounted to
        ``key`` when one is given."""
        timer, clock = self, self.clock
        record = None

        def done(start: float, nested: float) -> None:
            nonlocal record
            elapsed = clock() - start
            if key is not None:
                if record is None:
                    record = timer.profiler.record(key)
                record.calls += 1
                own = elapsed - (timer.nested - nested)
                if own > 0.0:
                    record.seconds += own
            timer.nested = nested + elapsed

        return done

    def window(self, fn: Callable, key=None) -> Callable:
        """``fn(a, b)`` as nested work (see :meth:`window_done`)."""
        timer, clock = self, self.clock
        done = self.window_done(key)

        def timed(a, b):
            nested = timer.nested
            start = clock()
            try:
                return fn(a, b)
            finally:
                done(start, nested)

        return timed

    def timed_intrinsics(self, call_intrinsic: Callable) -> Callable:
        """``call_intrinsic(name, args)`` timed per ``intrinsic:<name>``."""
        windows: Dict[str, Callable] = {}

        def call(name, args):
            timed = windows.get(name)
            if timed is None:
                timed = windows[name] = self.window(
                    call_intrinsic, ("vm", "intrinsic:" + name)
                )
            return timed(name, args)

        return call


def compile_function(vm, function: Function) -> Callable:
    """Compile ``function`` for ``vm``; returns ``code(vm, args)``.

    Every global operand is bound to its slot in ``vm.globals``; a
    global with no slot there is an undefined value, and using it raises
    the reference interpreter's :class:`VMError`.  With a timer on the
    VM the body is generated in instrumented mode and the whole frame is
    timed as nested work.  A VM whose ``__chrono_count``
    intrinsic is not the stock hook is refused with a :class:`VMError`:
    the generated code inlines the stock hook, and a custom hook runs
    only under the reference interpreter
    (:class:`~repro.testkit.reference.ReferenceInterpreter`).

    When ``vm.module`` carries a content key and ``function`` is its
    function of that name, the recipe comes from :data:`RECIPES` if one
    was made for the same key, function name and mode and every
    operation-table entry its text read is still the table's entry;
    otherwise it is generated (and then kept there).  ``vm.metrics``
    counts ``vm.texts_generated`` and ``vm.code_cache_hits`` (functions
    bound from a kept recipe, without generating text).
    """
    if vm.intrinsics.get(_CHRONO_COUNT) is not stock_chrono_count:
        raise VMError(
            f"@{function.name}: a custom {_CHRONO_COUNT} hook runs only under "
            "the reference interpreter"
        )
    module = vm.module
    timer = vm._timer
    key = recipe = None
    if module.content_key is not None and module.functions.get(function.name) is function:
        key = (module.content_key, function.name, timer is not None)
        recipe = RECIPES.lookup(key)
        if recipe is not None and not recipe.current():
            recipe = None
    metrics = vm.metrics
    if recipe is None:
        recipe = _Compiler(vm, function).recipe()
        if key is not None and recipe.portable:
            RECIPES.store(key, recipe)
        if metrics is not None:
            metrics.counter("vm.texts_generated").inc()
    elif metrics is not None:
        metrics.counter("vm.code_cache_hits").inc()
    code = bind(recipe, vm, function)
    return code if timer is None else timer.window(code)


# Binding kinds: how :func:`bind` finds a namespace entry in a VM.
_VALUE = 0      # the object itself (operation-table entries)
_SLOT = 1       # the VM's slot of the module's global of that name
_REF = 2        # a FunctionRef to the module's function of that name
_OP_DONE = 3    # the VM timer's recorder for that opcode
_WINDOW_DONE = 4  # the VM timer's window recorder for that profile key


class Recipe:
    """What any VM running the same program content binds to run one
    generated function: the code, and everything else by name.

    A recipe holds no IR object and no VM object (unless it is not
    :attr:`portable`), so it outlives neither a request's module nor its
    VM.  It is never mutated after :meth:`_Compiler.recipe` builds it.
    """

    __slots__ = (
        "code", "binds", "sites", "calls", "entries", "reads", "timed", "portable",
    )

    def __init__(self, code, binds, sites, calls, entries, reads, timed, portable) -> None:
        self.code: CodeType = code
        #: (namespace name, binding kind, payload) per bound name.
        self.binds: Tuple[Tuple[str, int, Any], ...] = binds
        #: Call site id -> (tail, variant id, position after the call,
        #: the intrinsic's or defined function's name, or None).
        self.sites: Tuple[Tuple[int, int, int, Any], ...] = sites
        #: The site ids whose callee is a defined function, by name.
        self.calls: Tuple[int, ...] = calls
        #: Variant id -> (instruction count, counting-call argument) for
        #: the variants entered through ``_enter``.
        self.entries: Tuple[Optional[Tuple[int, int]], ...] = entries
        #: (0 for ``BINARY_OPS``, 1 for ``ICMP_PREDICATES`` or 2 for
        #: ``_DIVIDE_BY_CONSTANT``, key, entry) for every table entry the
        #: text read.
        self.reads: Tuple[Tuple[int, Any, Any], ...] = reads
        self.timed = timed
        #: Whether every binding is by name (false when the function
        #: uses an IR object its module does not hold by name).
        self.portable = portable

    def current(self) -> bool:
        """Whether every table entry the text read is still the table's."""
        tables = (BINARY_OPS, ICMP_PREDICATES, _DIVIDE_BY_CONSTANT)
        for table, key, entry in self.reads:
            if tables[table].get(key) is not entry:
                return False
        return True


#: The namespace entries every generated function shares.
_NAMESPACE = {
    "__builtins__": builtins,
    "VMError": VMError,
    "StackSlot": StackSlot,
    "FunctionRef": FunctionRef,
    "_pad": _pad,
    "_nonptr": _nonptr,
    "_bad_callee": _bad_callee,
}


def bind(recipe: Recipe, vm, function: Function) -> Callable:
    """``recipe``'s function bound to ``vm``: its names resolved against
    ``vm.module`` and ``vm.globals``, with run-time helpers of its own."""
    module = vm.module
    sites = recipe.sites
    if recipe.calls:
        sites = list(sites)
        functions = module.functions
        for index in recipe.calls:
            tail, vid, start, name = sites[index]
            sites[index] = (tail, vid, start, functions[name])
    runtime = _Runtime(
        function, sites, recipe.entries, _NO_PURE if recipe.timed else PURE_INTRINSICS
    )
    namespace = dict(_NAMESPACE)
    namespace["_edge"] = runtime.edge
    namespace["_enter"] = runtime.enter
    namespace["_intrinsic"] = runtime.call_intrinsic
    namespace["_call"] = runtime.call_function
    namespace["_indirect"] = runtime.call_indirect
    timer = vm._timer
    if recipe.timed:
        namespace["timer"] = timer
        namespace["clock"] = timer.clock
    for name, kind, payload in recipe.binds:
        if kind == _VALUE:
            value = payload
        elif kind == _SLOT:
            value = vm.globals[module.globals[payload]]
        elif kind == _REF:
            value = FunctionRef(module.functions[payload])
        elif kind == _OP_DONE:
            value = timer.op_done(payload)
        else:
            value = timer.window_done(payload)
        namespace[name] = value
    return FunctionType(recipe.code, namespace)


def _indent(lines: List[str], pad: str = "    ") -> List[str]:
    return [pad + line for line in lines]


def _ends_in_raise(lines: List[str]) -> bool:
    return bool(lines) and lines[-1][:6] == "raise "


def _wrap(raw: str, half: int, mask: int) -> str:
    """``raw`` wrapped to a width: ``((raw + half) & mask) - half``."""
    return f"(({raw}) + {half} & {mask}) - {half}"


class _Compiler:
    """Generates one function's Python text, as it reads for one VM, and
    the :class:`Recipe` that binds it to any VM running the same program
    content.  A :class:`_Runtime` makes one anew, for the VM it runs
    in, to generate budget-edge code the first time a block needs it.
    """

    def __init__(self, vm, function: Function) -> None:
        self.function = function
        #: The VM's module, whose names the recipe binds by.
        self.module = vm.module
        #: The VM's global slots, read when an operand is resolved.
        self.globals = vm.globals
        #: The VM's :class:`VMTimer` when compiling in instrumented mode.
        self.timer = vm._timer
        #: SSA value -> local slot (``v<slot>``).  Arguments first, then
        #: every instruction (identity-keyed, like the reference's frame
        #: map).
        self.regmap: Dict[Value, int] = {}
        for argument in function.arguments:
            self.regmap[argument] = len(self.regmap)
        self.argc = len(self.regmap)
        #: block -> (instructions before the terminator, the terminator
        #: or None, whether the block holds a ϕ-node).
        self.blocks: Dict[Any, Tuple[List[Any], Any, bool]] = {}
        #: ChronoPriv's counting calls -> their count argument.
        self.counting: Dict[Call, int] = {}
        #: instruction -> (its block, its index there).
        where: Dict[Value, Tuple[Any, int]] = {}
        regmap = self.regmap
        for block in function.blocks:
            body: List[Any] = []
            terminator = None
            has_phi = False
            for index, instruction in enumerate(block.instructions):
                regmap[instruction] = len(regmap)
                where[instruction] = (block, index)
                cls = instruction.__class__
                if cls is Phi:
                    has_phi = True
                elif cls is Call:
                    operands = instruction.operands
                    callee = operands[0]
                    if (
                        isinstance(callee, FunctionRef)
                        and callee.function.name == _CHRONO_COUNT
                        and callee.function.is_declaration
                        and len(operands) == 2
                        and isinstance(operands[1], ConstantInt)
                    ):
                        self.counting[instruction] = operands[1].value
                if terminator is None:
                    if instruction.is_terminator:
                        terminator = instruction
                    else:
                        body.append(instruction)
            self.blocks[block] = (body, terminator, has_phi)
        #: Slot -> SSA value.
        self.values: List[Value] = list(self.regmap)
        self._analyze(where)
        #: (namespace name, binding kind, payload) for every name the
        #: text binds besides the fixed helpers (constant pool, op-table
        #: entries, timer recorders).
        self.binds: List[Tuple[str, int, Any]] = []
        self._pool: Dict[Any, str] = {}
        self._names: set = set()
        #: Whether every binding is by name (see :attr:`Recipe.portable`).
        self.portable = True
        #: (table, key) -> the operation-table entry the text read.
        self.reads: Dict[Tuple[int, Any], Any] = {}
        #: Block variants: (block, predecessor-or-None), and for each
        #: the variant ids its terminator reaches.
        self.variants: List[Tuple[Any, Any]] = []
        self.successors: List[Tuple[int, ...]] = []
        self._variant_ids: Dict[Tuple[Any, Any], int] = {}
        #: Variant id -> (instruction count, counting-call argument) for
        #: the variants entered through :meth:`_Runtime.enter` (filled
        #: while the text is generated).
        self.entries: List[Optional[Tuple[int, int]]] = []
        #: Call site id -> (tail, variant id, position after the call,
        #: the intrinsic's name or the defined function, or None).
        self.sites: List[Tuple[int, int, int, Any]] = []

    # -- analysis -------------------------------------------------------------

    def _analyze(self, where: Dict[Value, Tuple[Any, int]]) -> None:
        """Find the local-only allocas, the loads that need no local of
        their own, and the locals to zero first.

        An alloca whose address is only ever loaded from or stored to
        becomes a plain local, and a load from one whose uses all follow
        it in its block, with no store to (or rerun of) that alloca in
        between, reads the alloca's local directly.  A use is safe to leave unzeroed
        when its definition sits earlier in the same block or in the
        entry block (and the use elsewhere); a ϕ's incoming value is read
        at the end of its predecessor.  Every other use may run before
        the definition, so its local starts at ``0``, as the register
        file once did.
        """
        entry = self.function.entry
        allocas = {value for value in where if value.__class__ is Alloca}
        escaped = set()
        unsafe = set()
        #: value -> the last index of a use in its own block, or None
        #: when some use is elsewhere (or a ϕ's).
        last_use: Dict[Value, Optional[int]] = {}
        #: value -> how many operands (ϕ incomings included) read it.
        readers: Dict[Value, int] = {}
        locate = where.get
        for block in self.function.blocks:
            for index, instruction in enumerate(block.instructions):
                cls = instruction.__class__
                if cls is Phi:
                    for pred, value in instruction.incoming.items():
                        site = locate(value) if isinstance(value, Instruction) else None
                        if site is None:
                            continue
                        last_use[value] = None
                        readers[value] = readers.get(value, 0) + 1
                        if site[0] is not pred and site[0] is not entry:
                            unsafe.add(value)
                        if value in allocas:
                            escaped.add(value)
                    continue
                pointer_use = cls is Load or cls is Store
                for position, operand in enumerate(instruction.operands):
                    if not isinstance(operand, Instruction):
                        continue
                    site = locate(operand)
                    if site is None:
                        continue
                    readers[operand] = readers.get(operand, 0) + 1
                    home, at = site
                    if home is block and at < index:
                        if last_use.get(operand, index) is not None:
                            last_use[operand] = index
                    else:
                        last_use[operand] = None
                        if home is not entry or block is entry:
                            unsafe.add(operand)
                    if operand.__class__ is Alloca and not (
                        pointer_use and position == (0 if cls is Load else 1)
                    ):
                        escaped.add(operand)
        self.local_cells = allocas - escaped
        #: Instructions whose value some instruction reads -> how many
        #: operands (ϕ incomings included) read it.
        self.used = readers
        self.zeroed = [f"v{slot}" for slot in sorted(self.regmap[v] for v in unsafe)]
        #: Load slot -> the alloca local it reads directly.
        self.alias: Dict[int, str] = {}
        for block in self.function.blocks:
            instructions = block.instructions
            for index, instruction in enumerate(instructions):
                if (
                    instruction.__class__ is not Load
                    or instruction.operands[0] not in self.local_cells
                ):
                    continue
                last = last_use.get(instruction, index)
                cell = instruction.operands[0]
                if last is not None and not any(
                    later is cell
                    or (later.__class__ is Store and later.operands[1] is cell)
                    for later in instructions[index + 1:last]
                ):
                    self.alias[self.regmap[instruction]] = f"v{self.regmap[cell]}"

    # -- the variant graph ----------------------------------------------------

    def _variant(self, block, pred) -> int:
        key = (block, pred if self.blocks[block][2] else None)
        vid = self._variant_ids.get(key)
        if vid is None:
            vid = self._variant_ids[key] = len(self.variants)
            self.variants.append(key)
            self.successors.append(())
        return vid

    def _layout(self) -> None:
        """Find every variant reachable from the entry, choose the
        fallthroughs and number the dispatched variants."""
        self._variant(self.function.entry, None)
        vid = 0
        while vid < len(self.variants):
            block = self.variants[vid][0]
            terminator = self.blocks[block][1]
            if isinstance(terminator, Jump):
                self.successors[vid] = (self._variant(terminator.target, block),)
            elif isinstance(terminator, Branch):
                self.successors[vid] = (
                    self._variant(terminator.if_true, block),
                    self._variant(terminator.if_false, block),
                )
            vid += 1
        refs = [0] * len(self.variants)
        refs[0] = 1  # the call itself enters the entry variant
        for targets in self.successors:
            for target in targets:
                refs[target] += 1
        #: vid -> the successor emitted right after its terminator.
        self.fallthrough: List[Optional[int]] = [None] * len(self.variants)
        inlined = set()
        for vid, targets in enumerate(self.successors):
            for target in targets:
                if refs[target] == 1:
                    self.fallthrough[vid] = target
                    inlined.add(target)
                    break
        #: The dispatched variants; ``b`` holds an index into this list.
        self.heads = [vid for vid in range(len(self.variants)) if vid not in inlined]
        self.dispatch_id = {vid: index for index, vid in enumerate(self.heads)}
        self.looping = len(self.heads) > 1 or refs[0] > 1
        self.entries = [None] * len(self.variants)
        #: The variants on a cycle, whose counted entry is inlined.  Every
        #: cycle runs through a dispatched variant, so a function that
        #: does not loop has none.
        inline = self.timer is None and self.looping
        self.cyclic = self._cycles() if inline else set()

    def _cycles(self) -> set:
        """The variants on a cycle of the variant graph: the members of
        its strongly connected components (Tarjan) that have an edge
        inside them."""
        successors = self.successors
        order: List[Optional[int]] = [None] * len(successors)
        low = [0] * len(successors)
        stack: List[int] = []
        on_stack = [False] * len(successors)
        cyclic = set()
        order[0] = low[0] = 0
        stack.append(0)
        on_stack[0] = True
        seen = 1
        work = [(0, iter(successors[0]))]
        while work:
            vid, targets = work[-1]
            for target in targets:
                if order[target] is None:
                    order[target] = low[target] = seen
                    seen += 1
                    stack.append(target)
                    on_stack[target] = True
                    work.append((target, iter(successors[target])))
                    break
                if on_stack[target]:
                    low[vid] = min(low[vid], order[target])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[vid])
                if low[vid] == order[vid]:
                    at = stack.index(vid)
                    component = stack[at:]
                    del stack[at:]
                    for member in component:
                        on_stack[member] = False
                    if len(component) > 1 or vid in successors[vid]:
                        cyclic.update(component)
        return cyclic

    # -- operand resolution ---------------------------------------------------

    def _bind(self, obj) -> str:
        """The namespace name bound to ``obj`` (a constant-pool entry)."""
        name = self._pool.get(obj)
        if name is None:
            name = self._pool[obj] = f"k{len(self._pool)}"
            self.binds.append((name, *self._by_name(obj)))
        return name

    def _by_name(self, obj) -> Tuple[int, Any]:
        """How a VM finds ``obj``: by its name in the module when the
        module holds it under that name, else as itself."""
        module = self.module
        if isinstance(obj, FunctionRef):
            if module.functions.get(obj.function.name) is obj.function:
                return (_REF, obj.function.name)
        elif isinstance(obj, StackSlot):
            var = module.globals.get(obj.label)
            if var is not None and self.globals.get(var) is obj:
                return (_SLOT, obj.label)
        self.portable = False
        return (_VALUE, obj)

    def _named(self, name: str, kind: int, payload) -> str:
        """``name``, bound (on first use) as ``kind`` of ``payload``."""
        if name not in self._names:
            self._names.add(name)
            self.binds.append((name, kind, payload))
        return name

    def _operand(self, value: Value) -> Tuple[int, Any]:
        if isinstance(value, (Instruction, Argument)):
            index = self.regmap.get(value)
            if index is not None:
                return (_REG, index)
        if isinstance(value, (ConstantInt, ConstantString)):
            return (_CONST, value.value)
        if isinstance(value, FunctionRef):
            return (_CONST, value)
        if isinstance(value, GlobalVariable):
            slot = self.globals.get(value)
            if slot is not None:
                return (_CONST, slot)
        if isinstance(value, UndefValue):
            return (_CONST, 0)
        return (
            _UNDEF,
            f"@{self.function.name}: use of undefined value {value.short()}",
        )

    def _reg(self, desc: Tuple[int, Any]) -> str:
        """The expression for a local or constant operand."""
        kind, payload = desc
        if kind == _REG:
            return self.alias.get(payload) or f"v{payload}"
        if payload.__class__ is int:
            return repr(payload) if payload >= 0 else f"({payload!r})"
        if payload.__class__ is str:
            return repr(payload)
        return self._bind(payload)

    @staticmethod
    def _first_undef(*descs) -> Optional[str]:
        for kind, payload in descs:
            if kind == _UNDEF:
                return payload
        return None

    def _maybe_none(self, desc: Tuple[int, Any]) -> bool:
        """Whether the operand's value can be ``None`` (a void call's
        result, or a value passed in or merged from one)."""
        return desc[0] == _REG and isinstance(
            self.values[desc[1]], (Argument, Call, Phi, Select)
        )

    # -- generation -----------------------------------------------------------

    def recipe(self) -> Recipe:
        """Generate the function's text, compile it (through
        :data:`CODE_CACHE`) and describe what a VM binds."""
        self._layout()
        return self._recipe(self._text())

    def edge_recipe(self, vid: int, start: int) -> Recipe:
        """The budget edge of variant ``vid`` from ``start`` (see
        :meth:`_slow_text`), after :meth:`_layout`."""
        return self._recipe(self._slow_text(vid, start))

    def _recipe(self, text: str) -> Recipe:
        functions = self.module.functions
        sites = []
        calls = []
        for index, (tail, vid, start, callee) in enumerate(self.sites):
            if isinstance(callee, Function):
                if functions.get(callee.name) is callee:
                    calls.append(index)
                    callee = callee.name
                else:
                    self.portable = False
            sites.append((tail, vid, start, callee))
        reads = tuple((table, name, entry) for (table, name), entry in self.reads.items())
        return Recipe(
            CODE_CACHE.get(text), tuple(self.binds), tuple(sites), tuple(calls),
            tuple(self.entries), reads, self.timer is not None, self.portable,
        )

    def _text(self) -> str:
        lines = ["def run(vm, args):"]
        if self.argc:
            names = ", ".join(f"v{slot}" for slot in range(self.argc))
            lines.append(
                f"    {names}, = args if len(args) == {self.argc} "
                f"else _pad(args, {self.argc})"
            )
        if self.zeroed:
            lines.append("    " + " = ".join(self.zeroed) + " = 0")
        lines.append("    maxi = vm.max_instructions")
        if self.looping:
            lines.append("    b = 0")
            lines.append("    while True:")
            self._tree(lines, 0, len(self.heads), "        ")
        else:
            self._chain(lines, 0, "    ")
        lines.append("")
        return "\n".join(lines)

    def _tree(self, lines: List[str], lo: int, hi: int, pad: str) -> None:
        """Dispatch over head ids ``lo <= b < hi`` by bisection."""
        if hi - lo == 1:
            self._chain(lines, self.heads[lo], pad)
            return
        mid = (lo + hi) // 2
        lines.append(f"{pad}if b < {mid}:")
        self._tree(lines, lo, mid, pad + "    ")
        lines.append(f"{pad}else:")
        self._tree(lines, mid, hi, pad + "    ")

    def _chain(self, lines: List[str], vid: Optional[int], pad: str) -> None:
        """Variant ``vid`` and the fallthroughs after it."""
        while vid is not None:
            block_lines, vid = self._block(vid)
            lines.extend(_indent(block_lines, pad))

    def _goto(self, vid: int) -> str:
        return f"b = {self.dispatch_id[vid]}"

    def _timed(self, lines: List[str], opcode: str) -> List[str]:
        if self.timer is None:
            return lines
        done = self._named("_op_" + opcode, _OP_DONE, opcode)
        return (
            ["_n = timer.nested", "_s = clock()", "try:"] + _indent(lines or ["pass"])
            + ["finally:", f"    {done}(_s, _n)"]
        )

    def _block(self, vid: int) -> Tuple[List[str], Optional[int]]:
        """One variant's fast-path lines, and its fallthrough variant."""
        block, pred = self.variants[vid]
        body, terminator, _ = self.blocks[block]
        count = len(body) + (1 if terminator is not None else 0)
        if count == 0:
            return self._no_terminator(block), None
        # A block that starts with its counting call enters in one go when
        # untimed: inline on a cycle, else through one helper call (see
        # :meth:`_Runtime.enter`).
        timed = self.timer is not None
        first = 0
        if not timed and body and body[0] in self.counting:
            added = self.counting[body[0]]
            if vid in self.cyclic:
                lines = self._count_block(vid, count) + [f"vm.chrono_total += {added}"]
            else:
                self.entries[vid] = (count, added)
                lines = [f"_enter(vm, {vid})"]
            if body[0] in self.used:
                lines.append(f"v{self.regmap[body[0]]} = 0")
            first = 1
        else:
            lines = self._count_block(vid, count)
        # Untimed, the fast path leaves out two statements the budget edge
        # keeps: an icmp that only the branch after it reads (the branch
        # tests the comparison itself) and a local-only alloca's zero
        # store when a store to it comes next.
        test = None if timed else self._fused_test(body, terminator)
        last = len(body) - (test is not None)
        for position in range(first, last):
            instruction = body[position]
            if not timed and self._overwritten(body, position):
                continue
            # Pre-counted instructions that never retire if this one raises.
            tail = count - (position + 1)
            step = self._step(instruction, pred, tail, vid, position + 1)
            lines += self._timed(step, instruction.opcode) if timed else step
            if _ends_in_raise(step):
                return lines, None
            lines += self._chrono_value(instruction)
        if terminator is None:
            return lines + self._no_terminator(block), None
        term_lines, fallthrough = self._terminator(vid, terminator, test)
        return lines + term_lines, fallthrough

    @staticmethod
    def _count_block(vid: int, count: int) -> List[str]:
        """Variant ``vid``'s budget check and pre-add of its ``count``
        instructions, reading the counter once (``n`` is the generator's
        own local)."""
        return [
            f"if (n := vm.executed_instructions + {count}) > maxi: _edge({vid})",
            "vm.executed_instructions = n",
        ]

    def _fused_test(self, body: List[Any], terminator) -> Optional[str]:
        """The comparison a branch tests in place of its condition, when
        the condition is an icmp right before it that nothing else reads."""
        if terminator.__class__ is not Branch or not body:
            return None
        compare = body[-1]
        if (
            compare.__class__ is not ICmp
            or terminator.operands[0] is not compare
            or self.used.get(compare) != 1
        ):
            return None
        lhs = self._operand(compare.operands[0])
        rhs = self._operand(compare.operands[1])
        if self._first_undef(lhs, rhs) is not None:
            return None
        return self._compare(lhs, rhs, compare.predicate)

    def _overwritten(self, body: List[Any], position: int) -> bool:
        """Whether ``body[position]`` is a local-only alloca whose zero
        store the next statement, a store to it, replaces."""
        alloca = body[position]
        if alloca.__class__ is not Alloca or alloca not in self.local_cells:
            return False
        store = body[position + 1] if position + 1 < len(body) else None
        return (
            store.__class__ is Store
            and store.pointer is alloca
            and self._operand(store.value)[0] != _UNDEF
        )

    def _chrono_value(self, instruction) -> List[str]:
        """The IR value of a counting call some instruction reads: 0."""
        if instruction in self.counting and instruction in self.used:
            return [f"v{self.regmap[instruction]} = 0"]
        return []

    def _no_terminator(self, block) -> List[str]:
        message = f"@{self.function.name}:%{block.name}: block without terminator"
        return [f"raise VMError({message!r})"]

    def _terminator(
        self, vid: int, instruction, test: Optional[str] = None
    ) -> Tuple[List[str], Optional[int]]:
        """A terminator's lines and its fallthrough variant; a branch with
        a ``test`` tests that expression instead of its condition."""
        opcode = instruction.opcode
        timed = self.timer is not None
        if isinstance(instruction, Ret):
            if instruction.value is None:
                lines = self._timed(["pass"], opcode) if timed else []
                return lines + ["return None"], None
            desc = self._operand(instruction.value)
            if desc[0] == _UNDEF:
                return self._timed([f"raise VMError({desc[1]!r})"], opcode), None
            value = self._reg(desc)
            if not timed:
                return [f"return {value}"], None
            return self._timed([f"_r = {value}"], opcode) + ["return _r"], None
        if isinstance(instruction, Jump):
            target = self.successors[vid][0]
            lines = self._timed(["pass"], opcode) if timed else []
            if self.fallthrough[vid] == target:
                return lines, target
            return lines + [self._goto(target)], None
        if isinstance(instruction, Branch):
            if_true, if_false = self.successors[vid]
            cond = test
            if cond is None:
                desc = self._operand(instruction.operands[0])
                if desc[0] == _UNDEF:
                    return self._timed([f"raise VMError({desc[1]!r})"], opcode), None
                cond = self._reg(desc)
            lines = []
            if timed:
                lines = self._timed([f"_c = {cond}"], opcode)
                cond = "_c"
            fallthrough = self.fallthrough[vid]
            if fallthrough == if_true:
                return lines + [
                    f"if not {cond}:", f"    {self._goto(if_false)}", "    continue"
                ], if_true
            if fallthrough == if_false:
                return lines + [
                    f"if {cond}:", f"    {self._goto(if_true)}", "    continue"
                ], if_false
            return lines + [
                f"b = {self.dispatch_id[if_true]} if {cond} "
                f"else {self.dispatch_id[if_false]}"
            ], None
        if isinstance(instruction, Unreachable):
            block = self.variants[vid][0]
            message = f"@{self.function.name}:%{block.name}: reached unreachable"
            return self._timed([f"raise VMError({message!r})"], opcode), None
        # The terminator set is closed; this only traps generator bugs.
        message = f"unknown instruction {opcode}"
        return self._timed([f"raise VMError({message!r})"], opcode), None

    # -- statements -----------------------------------------------------------

    def _raise(self, message: str, tail: int) -> List[str]:
        lines = [f"vm.executed_instructions -= {tail}"] if tail else []
        return lines + [f"raise VMError({message!r})"]

    def _step(self, instruction, pred, tail: int, vid: int, start: int) -> List[str]:
        """One instruction's statement lines; ``tail`` is what they take
        out of the pre-added count before raising or calling, and
        ``start`` the position after the instruction in variant ``vid``."""
        cls = instruction.__class__
        if cls is Call:
            return self._call(instruction, tail, vid, start)
        if cls is Load:
            return self._load(instruction, tail)
        if cls is Store:
            return self._store(instruction, tail)
        if cls is BinOp:
            return self._binop(instruction, tail)
        if cls is ICmp:
            return self._icmp(instruction, tail)
        if cls is Phi:
            return self._phi(instruction, pred, tail)
        if cls is Select:
            return self._select(instruction, tail)
        if cls is Alloca:
            dest = f"v{self.regmap[instruction]}"
            if instruction in self.local_cells:
                return [f"{dest} = 0"]
            return [f"{dest} = StackSlot({instruction.name!r})"]
        # The instruction set is closed; this only traps generator bugs.
        return self._raise(f"unknown instruction {instruction.opcode}", tail)

    def _phi(self, instruction: Phi, pred, tail: int) -> List[str]:
        incoming = instruction.incoming.get(pred)
        if incoming is None:
            return self._raise(
                f"phi has no incoming for predecessor "
                f"%{pred.name if pred else '?'}",
                tail,
            )
        desc = self._operand(incoming)
        if desc[0] == _UNDEF:
            return self._raise(desc[1], tail)
        return [f"v{self.regmap[instruction]} = {self._reg(desc)}"]

    def _binop(self, instruction: BinOp, tail: int) -> List[str]:
        lhs = self._operand(instruction.operands[0])
        rhs = self._operand(instruction.operands[1])
        undef = self._first_undef(lhs, rhs)
        if undef is not None:
            return self._raise(undef, tail)
        dest = f"v{self.regmap[instruction]}"
        op = instruction.op
        a, b = self._reg(lhs), self._reg(rhs)
        entry = self.reads[(0, op)] = BINARY_OPS[op]
        half, mask = instruction.type.half, instruction.type.mask
        divisor = rhs[1]
        if rhs[0] == _CONST and divisor.__class__ is int and divisor > 0:
            template = _DIVIDE_BY_CONSTANT.get(entry)
            if template is not None:
                # A remainder is smaller than its literal divisor, so it
                # fits the width; a quotient fits it only when the
                # dividend does, and an intrinsic's result need not.
                self.reads[(2, entry)] = template
                raw = template.format(a=a, c=b)
                if entry is _signed_rem:
                    return [f"{dest} = {raw}"]
                return [f"{dest} = {_wrap(raw, half, mask)}"]
        symbol = _INLINE_OPS.get(entry)
        if symbol is not None:
            raw = f"{a} {symbol} {b}"
        else:
            raw = f"{self._named('op_' + op, _VALUE, entry)}({a}, {b})"
        if op not in ("sdiv", "srem"):
            return [f"{dest} = {_wrap(raw, half, mask)}"]
        lines = ["try:", f"    {dest} = {raw}", "except ZeroDivisionError:"]
        if tail:
            lines.append(f"    vm.executed_instructions -= {tail}")
        return lines + [
            f"    raise VMError({op + ' by zero'!r}) from None",
            f"{dest} = {_wrap(dest, half, mask)}",
        ]

    def _icmp(self, instruction: ICmp, tail: int) -> List[str]:
        lhs = self._operand(instruction.operands[0])
        rhs = self._operand(instruction.operands[1])
        undef = self._first_undef(lhs, rhs)
        if undef is not None:
            return self._raise(undef, tail)
        test = self._compare(lhs, rhs, instruction.predicate)
        return [f"v{self.regmap[instruction]} = 1 if {test} else 0"]

    def _compare(self, lhs, rhs, predicate: str) -> str:
        """The comparison expression of an icmp with defined operands."""
        a, b = self._reg(lhs), self._reg(rhs)
        entry = self.reads[(1, predicate)] = ICMP_PREDICATES[predicate]
        symbol = _INLINE_PREDICATES.get(entry)
        if symbol is not None:
            return f"{a} {symbol} {b}"
        name = self._named("cmp_" + predicate, _VALUE, entry)
        return f"{name}({a}, {b})"

    def _load(self, instruction: Load, tail: int) -> List[str]:
        kind, payload = pointer = self._operand(instruction.pointer)
        if kind == _UNDEF:
            return self._raise(payload, tail)
        dest = f"v{self.regmap[instruction]}"
        if kind == _CONST and isinstance(payload, StackSlot):
            # Global load: the slot is prebound, no pointer check needed.
            return [f"{dest} = {self._bind(payload)}.value",
                    f"if {dest} is None: {dest} = 0"]
        if kind == _CONST:
            return self._raise(f"load through non-pointer {payload!r}", tail)
        if instruction.pointer in self.local_cells:
            if self.regmap[instruction] in self.alias:
                return []
            return [f"{dest} = v{payload}"]
        # The exact-class test is the common case; the isinstance
        # fallback admits GlobalSlot (a global's address in a local).
        slot = self._reg(pointer)
        return [
            f"{dest} = {slot}.value if {slot}.__class__ is StackSlot "
            f"or isinstance({slot}, StackSlot) "
            f"else _nonptr(vm, {tail}, 'load', {slot})",
            f"if {dest} is None: {dest} = 0",
        ]

    def _store(self, instruction: Store, tail: int) -> List[str]:
        # The pointer resolves first, then is checked, then the value
        # resolves; error precedence here matches that order.
        kind, payload = pointer = self._operand(instruction.pointer)
        if kind == _UNDEF:
            return self._raise(payload, tail)
        value = self._operand(instruction.value)
        if value[0] == _UNDEF:
            # A local-only alloca's local holds the cell's value, not the
            # cell, but the cell is always a pointer.
            if (
                kind == _CONST and isinstance(payload, StackSlot)
                or instruction.pointer in self.local_cells
            ):
                return self._raise(value[1], tail)
            if kind == _CONST:
                return self._raise(f"store through non-pointer {payload!r}", tail)
            lines = [f"_p = {self._reg(pointer)}"]
            if tail:
                lines.append(f"vm.executed_instructions -= {tail}")
            return lines + [
                f"if isinstance(_p, StackSlot): raise VMError({value[1]!r})",
                "_nonptr(vm, 0, 'store', _p)",
            ]
        source = self._reg(value)
        if kind == _CONST and isinstance(payload, StackSlot):
            return [f"{self._bind(payload)}.value = {source}"]
        if kind == _CONST:
            return self._raise(f"store through non-pointer {payload!r}", tail)
        slot = self._reg(pointer)
        if instruction.pointer in self.local_cells:
            lines = [f"{slot} = {source}"]
            if self._maybe_none(value):
                lines.append(f"if {slot} is None: {slot} = 0")
            return lines
        return [
            f"if {slot}.__class__ is StackSlot or isinstance({slot}, StackSlot): "
            f"{slot}.value = {source}",
            f"else: _nonptr(vm, {tail}, 'store', {slot})",
        ]

    def _select(self, instruction: Select, tail: int) -> List[str]:
        cond = self._operand(instruction.operands[0])
        if_true = self._operand(instruction.operands[1])
        if_false = self._operand(instruction.operands[2])
        undef = self._first_undef(cond, if_true, if_false)
        if undef is not None:
            return self._raise(undef, tail)
        c, t, f = self._reg(cond), self._reg(if_true), self._reg(if_false)
        return [f"v{self.regmap[instruction]} = {t} if {c} else {f}"]

    def _call(self, instruction: Call, tail: int, vid: int, start: int) -> List[str]:
        """A call.  Apart from the counting call, it runs through a
        helper (:meth:`_Runtime.call_intrinsic` and its siblings) that
        takes ``tail`` out of the pre-added
        count for the callee's run, delivers signals and puts it back;
        the helper finds ``tail``, ``vid``, ``start`` and the callee by
        a site id, so the text names none of them."""
        arg_descs = [self._operand(arg) for arg in instruction.args]
        callee = instruction.callee
        if isinstance(callee, FunctionRef):
            undef = self._first_undef(*arg_descs)
            if undef is not None:
                return self._raise(undef, tail)
            if instruction in self.counting:
                return self._chrono(self.counting[instruction])
            target = callee.function
            helper = "_intrinsic" if target.is_declaration else "_call"
            callee_arg = target.name if target.is_declaration else target
            head = []
        else:
            callee_desc = self._operand(callee)
            undef = self._first_undef(callee_desc, *arg_descs)
            if undef is not None:
                return self._raise(undef, tail)
            helper, callee_arg = "_indirect", None
            head = [self._reg(callee_desc)]
        args = [self._reg(desc) for desc in arg_descs]
        site = len(self.sites)
        self.sites.append((tail, vid, start, callee_arg))
        call = f"{helper}(vm, {', '.join([str(site), *head, *args])})"
        if instruction in self.used:
            return [f"v{self.regmap[instruction]} = {call}"]
        return [call]

    def _chrono(self, count: int) -> List[str]:
        """ChronoPriv's per-block counter: the stock hook's addition to
        ``vm.chrono_total``, inline.  In instrumented mode it is timed as
        ``intrinsic:__chrono_count``, the counting layer's tax."""
        count_line = f"vm.chrono_total += {count}"
        if self.timer is None:
            return [count_line]
        done = self._named(
            "_chrono_done", _WINDOW_DONE, ("vm", "intrinsic:" + _CHRONO_COUNT)
        )
        return [
            "_cn = timer.nested", "_cs = clock()", "try:", f"    {count_line}",
            "finally:", f"    {done}(_cs, _cn)",
        ]

    def _slow_text(self, vid: int, start: int) -> str:
        block, pred = self.variants[vid]
        body, terminator, _ = self.blocks[block]
        retiring = body[start:] + ([terminator] if terminator is not None else [])
        lines: List[str] = []
        for position, instruction in enumerate(retiring):
            lines.append("vm.executed_instructions += 1")
            if position == len(retiring) - 1:
                # The block did not fit, so this retire crosses the budget.
                lines.append(f"raise VMError({_BUDGET_MSG!r})")
                break
            lines.append(
                f"if vm.executed_instructions > maxi: raise VMError({_BUDGET_MSG!r})"
            )
            step = self._step(instruction, pred, 0, vid, start + position + 1)
            lines += self._timed(step, instruction.opcode)
            if _ends_in_raise(step):
                break
            lines += self._chrono_value(instruction)
        names = sorted(set(_LOCAL_NAME.findall("\n".join(lines))))
        prologue = ["maxi = frame['maxi']"] + [
            f"{name} = frame.get({name!r}, 0)" for name in names
        ]
        return "def edge(vm, frame):\n" + "\n".join(_indent(prologue + lines)) + "\n"


#: The pure intrinsics of a timed function: none, so each call is timed.
_NO_PURE: Dict[str, Callable] = {}


class _Runtime:
    """The run-time helpers of one generated function bound to one VM:
    its call sites' calls, its block entries and the budget edge.

    It holds the VM's own :class:`~repro.ir.Function`, never the VM, and
    makes a :class:`_Compiler` for the budget edge only when a block
    first needs one.
    """

    __slots__ = ("function", "sites", "entries", "pure", "_generator", "_slow")

    def __init__(self, function: Function, sites, entries, pure) -> None:
        self.function = function
        #: Call site id -> (tail, variant id, position after the call,
        #: the intrinsic's name or the defined function, or None).
        self.sites = sites
        self.entries = entries
        #: Intrinsic name -> the stock function :meth:`call_intrinsic`
        #: calls directly (:data:`~repro.vm.intrinsics.PURE_INTRINSICS`,
        #: or none in a timed function).
        self.pure = pure
        self._generator: Optional[_Compiler] = None
        self._slow: Dict[Tuple[int, int], Callable] = {}

    def call_intrinsic(self, vm, site: int, *args):
        """Call site ``site``'s intrinsic (see :meth:`_returned`).

        A pure intrinsic whose VM entry is still the stock function is
        called directly: it retires no instruction, queues no signal and
        cannot end the process, so the tail, signal and budget bookkeeping
        around it would change nothing.  Only its tail is taken out if it
        raises, and ``vm.pure_intrinsic_calls`` counts it for the VM's
        dispatch counter (see :meth:`~repro.vm.interpreter.Interpreter.run`).
        """
        tail, vid, start, name = self.sites[site]
        fn = self.pure.get(name)
        if fn is not None and vm.intrinsics.get(name) is fn:
            vm.pure_intrinsic_calls += 1
            try:
                return fn(vm, [*args])
            except BaseException:
                vm.executed_instructions -= tail
                raise
        vm.executed_instructions -= tail
        result = vm._call_intrinsic(name, list(args))
        return self._returned(vm, tail, vid, start, result)

    def call_function(self, vm, site: int, *args):
        """Call site ``site``'s defined function (see :meth:`_returned`)."""
        tail, vid, start, function = self.sites[site]
        vm.executed_instructions -= tail
        result = vm.call_function(function, list(args))
        return self._returned(vm, tail, vid, start, result)

    def call_indirect(self, vm, site: int, target, *args):
        """Call through the pointer ``target`` (see :meth:`_returned`)."""
        tail, vid, start, _ = self.sites[site]
        vm.executed_instructions -= tail
        if not isinstance(target, FunctionRef):
            _bad_callee(target)
        result = vm.call_function(target.function, list(args))
        return self._returned(vm, tail, vid, start, result)

    def _returned(self, vm, tail: int, vid: int, start: int, result):
        """After a call: deliver pending signals, then put the call's
        ``tail`` back, or hand the rest of the block to the budget edge
        if it no longer fits."""
        process = vm.process
        if process.pending_signals or process.state != RUNNING:
            vm._dispatch_pending_signals()
        if tail:
            if vm.executed_instructions + tail > vm.max_instructions:
                self._finish(vid, start, sys._getframe(2), result)
            vm.executed_instructions += tail
        return result

    def enter(self, vm, vid: int) -> None:
        """Enter variant ``vid``, which starts with its counting call: the
        block's budget check, its pre-add and the count (what
        :meth:`_Compiler._block` emits inline on a cycle)."""
        count, added = self.entries[vid]
        n = vm.executed_instructions + count
        if n > vm.max_instructions:
            self._finish(vid, 0, sys._getframe(1))
        vm.executed_instructions = n
        vm.chrono_total += added

    def edge(self, vid: int) -> None:
        """Variant ``vid`` does not fit the budget: finish it one retire at
        a time (see the module docstring).  Always raises."""
        self._finish(vid, 0, sys._getframe(1))

    def _finish(self, vid: int, start: int, frame, result=_UNSTORED) -> None:
        """Run the budget edge of variant ``vid`` from ``start`` over the
        locals of ``frame``; ``result`` is the value of the call just
        before ``start`` when the frame has not stored it yet."""
        values = frame.f_locals
        vm = values["vm"]
        generator = self._generator
        if generator is None:
            generator = self._generator = _Compiler(vm, self.function)
            generator._layout()
        slow = self._slow.get((vid, start))
        if slow is None:
            slow = self._slow[(vid, start)] = bind(
                generator.edge_recipe(vid, start), vm, self.function
            )
        if result is not _UNSTORED:
            call = generator.blocks[generator.variants[vid][0]][0][start - 1]
            values[f"v{generator.regmap[call]}"] = result
        slow(vm, values)
