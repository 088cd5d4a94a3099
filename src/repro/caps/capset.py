"""Immutable capability sets and the per-task capability state.

A Linux task carries three capability sets (capability(7)):

* *effective* — the set the kernel consults for access-control decisions;
* *permitted* — the limiting superset: a capability can only be raised into
  the effective set if it is permitted;
* *inheritable* — the set preserved across ``execve``.

Following the paper (§II), we provide the three PitBull-style operations it
borrows from the AutoPriv runtime: ``priv_raise`` (enable in effective),
``priv_lower`` (disable in effective) and ``priv_remove`` (disable in both
effective and permitted; irrevocable until the next ``execve``).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from repro.caps.capability import Capability, parse_capability

CapLike = Union[Capability, str]

#: Capabilities indexed by kernel bit number (the numbers are dense from 0).
_BY_BIT = tuple(sorted(Capability))
assert [int(cap) for cap in _BY_BIT] == list(range(len(_BY_BIT)))


def _coerce(caps: Iterable[CapLike]) -> frozenset:
    return frozenset(
        cap if isinstance(cap, Capability) else parse_capability(cap) for cap in caps
    )


class CapabilitySet:
    """An immutable set of :class:`Capability` values.

    Behaves like a frozenset with capability-aware construction, ordering
    and rendering.  The rendering (:meth:`describe`) matches the paper's
    table style: camel-case names joined by commas, ``(empty)`` for the
    empty set.
    """

    __slots__ = ("_caps",)

    def __init__(self, caps: Iterable[CapLike] = ()) -> None:
        self._caps = _coerce(caps)

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls) -> "CapabilitySet":
        """The empty capability set."""
        return _EMPTY

    @classmethod
    def full(cls) -> "CapabilitySet":
        """Every capability the kernel defines (the root user's power)."""
        return _FULL

    @classmethod
    def of(cls, *caps: CapLike) -> "CapabilitySet":
        """Convenience variadic constructor.

        >>> CapabilitySet.of("CapSetuid", Capability.CAP_CHOWN)
        CapabilitySet({CapChown, CapSetuid})
        """
        return cls(caps)

    @classmethod
    def parse(cls, text: str) -> "CapabilitySet":
        """Parse a comma-separated list of capability names.

        Accepts the paper's ``(empty)`` marker and blank strings for the
        empty set.
        """
        text = text.strip()
        if not text or text == "(empty)" or text == "empty":
            return cls.empty()
        return cls(part.strip() for part in text.split(",") if part.strip())

    # -- set algebra -------------------------------------------------------

    def union(self, other: "CapabilitySet") -> "CapabilitySet":
        return CapabilitySet(self._caps | other._caps)

    def intersection(self, other: "CapabilitySet") -> "CapabilitySet":
        return CapabilitySet(self._caps & other._caps)

    def difference(self, other: "CapabilitySet") -> "CapabilitySet":
        return CapabilitySet(self._caps - other._caps)

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def add(self, *caps: CapLike) -> "CapabilitySet":
        """Return a new set with ``caps`` added (this type is immutable)."""
        return CapabilitySet(self._caps | _coerce(caps))

    def remove(self, *caps: CapLike) -> "CapabilitySet":
        """Return a new set with ``caps`` removed (missing ones ignored)."""
        return CapabilitySet(self._caps - _coerce(caps))

    def issubset(self, other: "CapabilitySet") -> bool:
        return self._caps <= other._caps

    def __le__(self, other: "CapabilitySet") -> bool:
        return self._caps <= other._caps

    def __lt__(self, other: "CapabilitySet") -> bool:
        return self._caps < other._caps

    # -- queries -----------------------------------------------------------

    def __contains__(self, cap: CapLike) -> bool:
        if isinstance(cap, str):
            cap = parse_capability(cap)
        return cap in self._caps

    def __iter__(self) -> Iterator[Capability]:
        return iter(sorted(self._caps))

    def __len__(self) -> int:
        return len(self._caps)

    def __bool__(self) -> bool:
        return bool(self._caps)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CapabilitySet):
            return self._caps == other._caps
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._caps)

    def as_frozenset(self) -> frozenset:
        """The underlying frozenset of :class:`Capability` values."""
        return self._caps

    def to_mask(self) -> int:
        """Encode the set as a kernel-style bit mask.

        The result is comparable with the hexadecimal ``CapPrm``/``CapEff``
        lines in ``/proc/<pid>/status``.
        """
        mask = 0
        for cap in self._caps:
            mask |= 1 << int(cap)
        return mask

    @classmethod
    def from_mask(cls, mask: int) -> "CapabilitySet":
        """Decode a kernel-style bit mask produced by :meth:`to_mask`."""
        if mask < 0:
            raise ValueError("capability mask must be non-negative")
        unknown = mask >> len(_BY_BIT) << len(_BY_BIT)
        if unknown:
            raise ValueError(f"mask contains unknown capability bits: {unknown:#x}")
        caps = []
        while mask:
            lowest = mask & -mask
            caps.append(_BY_BIT[lowest.bit_length() - 1])
            mask ^= lowest
        return cls(caps)

    def describe(self) -> str:
        """Render in the paper's table style.

        >>> CapabilitySet.of("CapSetuid", "CapChown").describe()
        'CapChown,CapSetuid'
        >>> CapabilitySet.empty().describe()
        '(empty)'
        """
        if not self._caps:
            return "(empty)"
        return ",".join(cap.camel_name for cap in sorted(self._caps))

    def __repr__(self) -> str:
        inner = ", ".join(cap.camel_name for cap in sorted(self._caps))
        return f"CapabilitySet({{{inner}}})"


_EMPTY = CapabilitySet()
_FULL = CapabilitySet(list(Capability))


class CapabilityState:
    """The effective/permitted/inheritable triple of one Linux task.

    Instances are immutable; each mutation returns a new state.  The class
    enforces the kernel invariants from capability(7):

    * effective ⊆ permitted, always;
    * permitted can only shrink (a task cannot grant itself capabilities).
    """

    __slots__ = ("effective", "permitted", "inheritable")

    def __init__(
        self,
        effective: CapabilitySet = _EMPTY,
        permitted: CapabilitySet = _EMPTY,
        inheritable: CapabilitySet = _EMPTY,
    ) -> None:
        if not effective.issubset(permitted):
            raise ValueError(
                "effective set must be a subset of the permitted set: "
                f"effective={effective.describe()} permitted={permitted.describe()}"
            )
        self.effective = effective
        self.permitted = permitted
        self.inheritable = inheritable

    @classmethod
    def for_root(cls) -> "CapabilityState":
        """The state of a root-owned task: everything permitted and effective."""
        return cls(effective=_FULL, permitted=_FULL, inheritable=_EMPTY)

    @classmethod
    def with_permitted(cls, permitted: CapabilitySet) -> "CapabilityState":
        """A task that starts with ``permitted`` available but nothing raised.

        This matches the paper's experimental setup (§VII-B): programs are
        installed "so that they start up with the correct permitted set"
        and must ``priv_raise`` capabilities before privileged operations.
        """
        return cls(effective=_EMPTY, permitted=permitted, inheritable=_EMPTY)

    # -- the AutoPriv runtime operations ------------------------------------

    def raise_caps(self, caps: CapabilitySet) -> "CapabilityState":
        """``priv_raise``: enable ``caps`` in the effective set.

        :raises PermissionError: if any capability is not permitted — the
            kernel refuses ``capset`` calls that would make the effective
            set exceed the permitted set.
        """
        if not caps.issubset(self.permitted):
            missing = caps - self.permitted
            raise PermissionError(
                f"cannot raise non-permitted capabilities: {missing.describe()}"
            )
        return CapabilityState(self.effective | caps, self.permitted, self.inheritable)

    def lower_caps(self, caps: CapabilitySet) -> "CapabilityState":
        """``priv_lower``: disable ``caps`` in the effective set only."""
        return CapabilityState(self.effective - caps, self.permitted, self.inheritable)

    def remove_caps(self, caps: CapabilitySet) -> "CapabilityState":
        """``priv_remove``: disable ``caps`` in effective *and* permitted.

        A removed capability can never be re-acquired by this task (until
        ``execve``, which we do not model); this is the operation AutoPriv
        inserts at privilege-death points.
        """
        return CapabilityState(
            self.effective - caps, self.permitted - caps, self.inheritable
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CapabilityState):
            return (
                self.effective == other.effective
                and self.permitted == other.permitted
                and self.inheritable == other.inheritable
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.effective, self.permitted, self.inheritable))

    def __repr__(self) -> str:
        return (
            f"CapabilityState(effective={self.effective.describe()}, "
            f"permitted={self.permitted.describe()}, "
            f"inheritable={self.inheritable.describe()})"
        )
