"""IR modules: the compilation unit."""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence

from repro.ir.function import Function
from repro.ir.instructions import Call
from repro.ir.types import FunctionType, Type
from repro.ir.values import FunctionRef, GlobalVariable


class Module:
    """A translation unit: globals plus functions, by name."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        #: A digest of everything the module was compiled from, set by
        #: whoever compiled it (:meth:`repro.core.pipeline.PrivAnalyzer.compile`),
        #: or None.  Modules with one key hold the same IR, so the VM
        #: shares its generated code among them
        #: (:func:`repro.vm.compiled.compile_function`).  A pass that
        #: changes a keyed module must reset it to None.
        self.content_key: Optional[str] = None

    # -- functions -----------------------------------------------------------

    def add_function(
        self,
        name: str,
        return_type: Type,
        param_types: Sequence[Type] = (),
        param_names: Optional[Sequence[str]] = None,
        vararg: bool = False,
    ) -> Function:
        if name in self.functions:
            raise ValueError(f"duplicate function: {name}")
        ftype = FunctionType(return_type, tuple(param_types), vararg)
        function = Function(name, ftype, param_names)
        self.functions[name] = function
        return function

    def declare(self, name: str, return_type: Type, param_types: Sequence[Type] = (), vararg: bool = False) -> Function:
        """Declare an external function; idempotent when types agree."""
        existing = self.functions.get(name)
        ftype = FunctionType(return_type, tuple(param_types), vararg)
        if existing is not None:
            if existing.type != ftype:
                raise ValueError(
                    f"conflicting declaration for {name}: {existing.type} vs {ftype}"
                )
            return existing
        return self.add_function(name, return_type, param_types, vararg=vararg)

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"no function named {name!r} in module {self.name}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.functions

    def defined_functions(self) -> Iterator[Function]:
        # Snapshot: passes commonly declare new externals while iterating.
        for function in list(self.functions.values()):
            if not function.is_declaration:
                yield function

    # -- globals -------------------------------------------------------------

    def add_global(self, name: str, initial: int = 0) -> GlobalVariable:
        if name in self.globals:
            raise ValueError(f"duplicate global: {name}")
        var = GlobalVariable(name, initial)
        self.globals[name] = var
        return var

    # -- analyses helpers ------------------------------------------------------

    def mark_address_taken(self) -> None:
        """Set ``address_taken`` on functions whose address escapes.

        A :class:`FunctionRef` used as a *call callee* is a direct call;
        any other use (stored, passed as an argument, compared) lets the
        address escape, making the function a possible target of indirect
        calls.  AutoPriv's conservative call graph relies on this (§VII-C).
        """
        for function in self.functions.values():
            function.address_taken = False
        for function in self.defined_functions():
            for instruction in function.instructions():
                operands = instruction.operands
                if isinstance(instruction, Call):
                    operands = instruction.args  # the callee slot is a direct use
                for operand in operands:
                    if isinstance(operand, FunctionRef):
                        operand.function.address_taken = True

    def __repr__(self) -> str:
        return (
            f"<Module {self.name!r}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )
