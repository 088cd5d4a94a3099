"""The IR type system.

A deliberately small, LLVM-flavoured type vocabulary: fixed-width
integers, an untyped pointer (as in modern LLVM's opaque pointers),
``void``, and function types.  Types are interned singletons where
possible so identity comparison works.
"""

from __future__ import annotations

from typing import Optional, Tuple


class Type:
    """Base class of all IR types."""

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"


class VoidType(Type):
    """The type of functions that return nothing."""

    _instance: Optional["VoidType"] = None

    def __new__(cls) -> "VoidType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __str__(self) -> str:
        return "void"


class IntType(Type):
    """A fixed-width two's-complement integer type (``i1``, ``i32``, ``i64``)."""

    _cache: dict = {}

    def __new__(cls, bits: int) -> "IntType":
        if bits <= 0:
            raise ValueError(f"integer width must be positive: {bits}")
        if bits not in cls._cache:
            instance = super().__new__(cls)
            instance.bits = bits
            #: The sign bit's weight: adding it maps the signed range
            #: onto ``[0, 2**bits)``, where ``mask`` wraps.
            instance.half = 1 << (bits - 1)
            instance.mask = (1 << bits) - 1
            cls._cache[bits] = instance
        return cls._cache[bits]

    def __str__(self) -> str:
        return f"i{self.bits}"

    @property
    def min_value(self) -> int:
        return -self.half

    @property
    def max_value(self) -> int:
        return self.half - 1

    def wrap(self, value: int) -> int:
        """Wrap an arbitrary integer into this type's two's-complement range."""
        return ((value + self.half) & self.mask) - self.half


class PointerType(Type):
    """An opaque pointer (we do not track pointee types, like LLVM ≥ 15)."""

    _instance: Optional["PointerType"] = None

    def __new__(cls) -> "PointerType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __str__(self) -> str:
        return "ptr"


class FunctionType(Type):
    """The type of a function: return type plus parameter types."""

    def __init__(self, return_type: Type, param_types: Tuple[Type, ...], vararg: bool = False) -> None:
        self.return_type = return_type
        self.param_types = tuple(param_types)
        self.vararg = vararg

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FunctionType)
            and other.return_type is self.return_type
            and other.param_types == self.param_types
            and other.vararg == self.vararg
        )

    def __hash__(self) -> int:
        return hash((FunctionType, self.return_type, self.param_types, self.vararg))

    def __str__(self) -> str:
        params = ", ".join(str(ptype) for ptype in self.param_types)
        if self.vararg:
            params = params + ", ..." if params else "..."
        return f"{self.return_type} ({params})"


# Shared singletons / common widths.
VOID = VoidType()
BOOL = IntType(1)
I8 = IntType(8)
I32 = IntType(32)
I64 = IntType(64)
PTR = PointerType()
