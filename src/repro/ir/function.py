"""Functions and basic blocks."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.ir.instructions import Instruction
from repro.ir.types import FunctionType, Type
from repro.ir.values import Argument, FunctionRef


class BasicBlock:
    """A straight-line instruction sequence ending in one terminator."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.instructions: List[Instruction] = []

    def append(self, instruction: Instruction) -> Instruction:
        """Append an instruction; refuses to add past a terminator."""
        instructions = self.instructions
        if instructions and instructions[-1].is_terminator:
            raise ValueError(
                f"block {self.name} already has terminator "
                f"{instructions[-1].opcode}; cannot append {instruction.opcode}"
            )
        instructions.append(instruction)
        return instruction

    def insert(self, index: int, instruction: Instruction) -> Instruction:
        """Insert at ``index`` (used by instrumentation passes)."""
        self.instructions.insert(index, instruction)
        return instruction

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> Sequence["BasicBlock"]:
        terminator = self.terminator
        return terminator.successors() if terminator is not None else ()

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock %{self.name} ({len(self.instructions)} insts)>"


class Function:
    """A function: arguments plus a list of basic blocks.

    A function with no blocks is a *declaration* — an external symbol
    resolved by the VM's intrinsics table (syscall wrappers, libc-ish
    helpers, the AutoPriv ``priv_*`` runtime).
    """

    def __init__(
        self,
        name: str,
        ftype: FunctionType,
        param_names: Optional[Sequence[str]] = None,
    ) -> None:
        self.name = name
        self.type = ftype
        names = list(param_names or [])
        while len(names) < len(ftype.param_types):
            names.append(f"arg{len(names)}")
        self.arguments = [
            Argument(ptype, pname, index)
            for index, (ptype, pname) in enumerate(zip(ftype.param_types, names))
        ]
        self.blocks: List[BasicBlock] = []
        #: The names of ``self.blocks`` as :meth:`add_block` last left
        #: them, and per base name the lowest ``.N`` suffix that may still
        #: be free (see :meth:`_unique_block_name`).
        self._names: Set[str] = set()
        self._next_suffix: Dict[str, int] = {}
        #: Set when any FunctionRef to this function escapes into data flow
        #: (i.e. its address is taken somewhere other than a direct call).
        self.address_taken = False

    @property
    def return_type(self) -> Type:
        return self.type.return_type

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no body")
        return self.blocks[0]

    def add_block(self, name: str) -> BasicBlock:
        block = BasicBlock(self._unique_block_name(name))
        self.blocks.append(block)
        return block

    def _unique_block_name(self, base: str) -> str:
        """``base``, or ``base.N`` with the lowest ``N`` no block has.

        The name set is kept across calls, so building a function costs
        time linear in its blocks; it is rebuilt when something other
        than :meth:`add_block` changed how many blocks there are (a pass
        that drops blocks).
        """
        names = self._names
        if len(names) != len(self.blocks):
            names = self._names = {block.name for block in self.blocks}
            self._next_suffix = {}
        name = base
        if name in names:
            # Names only join the set, so every suffix below the hint is
            # still taken.
            counter = self._next_suffix.get(base, 1)
            while f"{base}.{counter}" in names:
                counter += 1
            self._next_suffix[base] = counter + 1
            name = f"{base}.{counter}"
        names.add(name)
        return name

    def ref(self) -> FunctionRef:
        """A value holding this function's address."""
        return FunctionRef(self)

    def instructions(self) -> Iterator[Instruction]:
        """All instructions in block order."""
        for block in self.blocks:
            yield from block.instructions

    def __repr__(self) -> str:
        kind = "declare" if self.is_declaration else "define"
        return f"<{kind} @{self.name} : {self.type}>"
