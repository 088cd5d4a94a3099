"""Object/message configurations — the Object Maude sugar.

Maude's object extension models a concurrent system as an associative,
commutative *configuration*: a multiset of objects
(``< id : Class | attr : value, ... >``) and messages waiting to be
consumed.  Rewrite rules match an object together with a message and
produce updated objects (and possibly new messages).

We implement configurations as immutable multisets, so the breadth-first
search in :mod:`repro.rewriting.search` identifies configurations up to
reordering — which is exactly the associative-commutative equality Maude
provides.

Attribute values are plain hashable Python values (ints, strings,
frozensets, tuples); this keeps ROSA's rules readable while preserving
the term-rewriting discipline: every rule consumes a message and produces
a new configuration, never mutating in place.

Two notions of sameness serve two purposes:

* **identity** — an object's ``(cls, oid, attribute names, attribute
  values)`` with the raw values, attributes in name order.  ``==`` and
  ``hash`` use it, and a configuration's hash is an O(1)-maintained sum
  over its elements' identity hashes, so the search's visited set never
  builds a canonical form.  Identity hashes are salted per process;
* the **canonical key** — the same content in a deterministic,
  process-independent form (frozensets as sorted tuples).  Cache keys,
  digests and reports read it; it is built on first access and then
  cached, so a search that only dedups never builds one.

A configuration derived by :meth:`Configuration.consume` (one message
consumed, at most one object replaced) costs one count-map copy, and it
takes its oid index and per-class object tuples from its parent: shared
when only a message went away, patched when one object changed.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Optional, Tuple

_MASK64 = (1 << 64) - 1


def _mix(value: int) -> int:
    """Bijective 64-bit mixer (splitmix64 finalizer) over an element hash.

    Configuration hashes are *multiset homomorphic*: the hash of a
    configuration is the wrapped sum of ``_mix(hash(element))`` over its
    element occurrences, so :meth:`Configuration.add` / ``remove`` /
    ``consume`` / ``update_object`` maintain the hash with O(1) arithmetic instead of
    rehashing the whole object graph.  Plain summation of raw hashes
    would cancel catastrophically (e.g. small-int hashes); the mixer
    spreads each element over the full 64 bits first.
    """
    value &= _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _canonical_value(value) -> Hashable:
    """A deterministic, hashable key for an attribute value."""
    if isinstance(value, frozenset):
        return ("frozenset",) + tuple(sorted(value, key=_element_order))
    if isinstance(value, tuple):
        return ("tuple",) + tuple(_canonical_value(item) for item in value)
    return value


def _bools_as_ints(value):
    """``value`` with every bool replaced by the int it equals."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, tuple):
        return tuple(_bools_as_ints(item) for item in value)
    return value


def _element_order(item) -> Tuple[str, str]:
    """The sort key of one frozenset element in a canonical key.

    Equal elements must get equal sort keys, or two equal frozensets
    would list their elements in different orders: ``True == 1`` (so
    bools sort as ints), and a nested frozenset's repr follows its
    iteration order (so it is sorted as its canonical form).
    """
    if isinstance(item, (bool, tuple, frozenset)):
        item = _bools_as_ints(_canonical_value(item))
    return (str(type(item)), repr(item))


def _total_order(value) -> Tuple:
    """A sort key that orders any two canonical keys: a type tag before
    every leaf, so a ``str`` and an ``int`` in one position compare by tag."""
    if isinstance(value, tuple):
        return (0, tuple(_total_order(item) for item in value))
    return (1, type(value).__name__, value)


class Obj:
    """One object in a configuration: ``< oid : cls | attrs >``.

    Objects are immutable; :meth:`update` returns a modified copy.  The
    ``oid`` is unique within a configuration (the rewriting layer does not
    enforce this; :class:`Configuration.update_object` does).

    Equality and hashing use the object's *identity* ``(cls, oid, attribute
    names, attribute values)`` with the raw hashable values, attributes in
    name order.  The canonical :attr:`key` says the same thing in a
    process-independent, sortable form; it is built on first access only.
    """

    __slots__ = ("oid", "cls", "attrs", "_ident", "_hash", "_key")

    def __init__(self, oid: int, cls: str, **attrs) -> None:
        attrs = {name: attrs[name] for name in sorted(attrs)}
        self._set(oid, cls, attrs, tuple(attrs))

    def _set(self, oid: int, cls: str, attrs: Dict, names: Tuple[str, ...]) -> None:
        # ``attrs`` is in name order and ``names`` is its key tuple, so
        # equal attribute maps give equal identities without a sort.
        self.oid = oid
        self.cls = cls
        self.attrs = attrs
        self._ident = ident = (cls, oid, names, tuple(attrs.values()))
        # Objects are shared across the many configurations a search
        # builds, so the identity is hashed once, not per lookup.
        self._hash = hash(ident)
        self._key = None

    def __getitem__(self, name: str):
        return self.attrs[name]

    def get(self, name: str, default=None):
        return self.attrs.get(name, default)

    def update(self, **changes) -> "Obj":
        """Return a copy with the given attributes replaced."""
        attrs = dict(self.attrs)
        attrs.update(changes)
        if len(attrs) == len(self.attrs):
            names = self._ident[2]
        else:
            # A new attribute name: restore name order.
            attrs = {name: attrs[name] for name in sorted(attrs)}
            names = tuple(attrs)
        obj = Obj.__new__(Obj)
        obj._set(self.oid, self.cls, attrs, names)
        return obj

    @property
    def key(self) -> Hashable:
        """The canonical key: equal keys mean equal objects, in any process."""
        key = self._key
        if key is None:
            key = self._key = (
                "obj",
                self.cls,
                self.oid,
                tuple((name, _canonical_value(value)) for name, value in self.attrs.items()),
            )
        return key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Obj) and other._ident == self._ident

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}: {value!r}" for name, value in self.attrs.items())
        return f"< {self.oid} : {self.cls} | {inner} >"

    def __reduce__(self):
        # Rebuild through __init__ so cached hashes are recomputed in the
        # receiving process (str hashes are salted per interpreter).
        return (_rebuild_obj, (self.oid, self.cls, self.attrs))


def _rebuild_obj(oid: int, cls: str, attrs: Dict) -> "Obj":
    return Obj(oid, cls, **attrs)


class Msg:
    """One pending message, e.g. a system call the process may execute.

    ``args`` is a tuple of hashable values.  ROSA encodes wildcards as the
    sentinel ``-1`` in message arguments, mirroring the paper's Figure 2.
    """

    __slots__ = ("name", "args", "_key", "_hash")

    def __init__(self, name: str, *args) -> None:
        self.name = name
        self.args = tuple(args)
        self._key = ("msg", name, tuple(_canonical_value(arg) for arg in self.args))
        self._hash = hash(self._key)

    @property
    def key(self) -> Hashable:
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Msg) and other._key == self._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ",".join(repr(arg) for arg in self.args)
        return f"{self.name}({inner})"

    def __reduce__(self):
        # Rebuild through __init__ so cached hashes are recomputed in the
        # receiving process (str hashes are salted per interpreter).
        return (Msg, (self.name,) + self.args)


class Configuration:
    """An immutable multiset of objects and messages.

    Multiset semantics matter: ROSA lets the user say an attacker may
    execute a given system call N times by including the message N times
    (§V-B), so duplicate messages must be preserved and consumed one at a
    time.
    """

    __slots__ = ("_counts", "_ihash", "_key", "_index", "_delta", "_msg_names")

    def __init__(self, elements: Iterable = ()) -> None:
        counts: Dict = {}
        for element in elements:
            if not isinstance(element, (Obj, Msg)):
                raise TypeError(f"configuration element must be Obj or Msg: {element!r}")
            counts[element] = counts.get(element, 0) + 1
        self._init_from_counts(counts)

    def _init_from_counts(self, counts: Dict, ihash: Optional[int] = None) -> None:
        self._counts = counts
        if ihash is None:
            ihash = 0
            for element, count in counts.items():
                ihash = (ihash + count * _mix(element._hash)) & _MASK64
        self._ihash = ihash
        # The canonical key and the lookup indexes are computed lazily:
        # most configurations a search constructs are immediately rejected
        # by the visited set (via the incremental hash plus a count-map
        # comparison) and never enumerated again.
        self._key: Optional[Tuple] = None
        #: ``(oid -> object, class -> objects in element order)``; while
        #: ``_delta`` is set, the parent's index that still needs it.
        self._index: Optional[Tuple[Dict[int, Obj], Dict[str, Tuple[Obj, ...]]]] = None
        #: The ``(old, new)`` object a functional edit replaced, applied
        #: to the parent's index on first use (see :meth:`_indexes`).
        self._delta: Optional[Tuple[Obj, Obj]] = None
        self._msg_names: Optional[frozenset] = None

    @classmethod
    def _from_counts(
        cls, counts: Dict, ihash: Optional[int] = None
    ) -> "Configuration":
        """Internal fast constructor from an already-validated count map."""
        config = cls.__new__(cls)
        config._init_from_counts(counts, ihash)
        return config

    def __reduce__(self):
        return (Configuration, (list(self),))

    # -- canonical identity --------------------------------------------------

    @property
    def key(self) -> Hashable:
        """Canonical hashable key: equal keys mean AC-equal configurations.

        Built on first access — searches that dedup on the configuration
        itself (incremental hash + count-map equality) never pay for it.
        """
        key = self._key
        if key is None:
            items = [(elem.key, count) for elem, count in self._counts.items()]
            try:
                items.sort()
            except TypeError:
                # Same-name messages holding ``KEEP`` (a str) and an id (an
                # int) in one argument position have no natural order.
                items.sort(key=_total_order)
            key = self._key = tuple(items)
        return key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Configuration) and other._counts == self._counts

    def __hash__(self) -> int:
        # The incrementally maintained multiset hash: O(1) here, updated
        # per functional edit instead of rehashed from the object graph.
        return self._ihash

    # -- iteration -------------------------------------------------------------

    def __iter__(self) -> Iterator:
        for element, count in self._counts.items():
            for _ in range(count):
                yield element

    def __len__(self) -> int:
        return sum(self._counts.values())

    def count(self, element) -> int:
        return self._counts.get(element, 0)

    def objects(self, cls: Optional[str] = None) -> Iterator[Obj]:
        """All objects in element order, optionally filtered by class name."""
        if cls is not None:
            return iter(self._indexes()[1].get(cls, ()))
        return (element for element in self._counts if isinstance(element, Obj))

    def messages(self, name: Optional[str] = None) -> Iterator[Msg]:
        """All distinct pending messages, optionally filtered by name."""
        for element in self._counts:
            if isinstance(element, Msg) and (name is None or element.name == name):
                yield element

    def message_names(self) -> frozenset:
        """The set of distinct pending message names (cached).

        This is the rewrite layer's rule index: a message-triggered rule
        can only fire when its trigger name is present, so rule systems
        consult this set to skip rules outright.
        """
        names = self._msg_names
        if names is None:
            names = self._msg_names = frozenset(
                element.name for element in self._counts if isinstance(element, Msg)
            )
        return names

    def find_object(self, oid: int) -> Optional[Obj]:
        """The object with identifier ``oid``, or None."""
        return self._indexes()[0].get(oid)

    def _indexes(self) -> Tuple[Dict[int, Obj], Dict[str, Tuple[Obj, ...]]]:
        """The oid index and the per-class object tuples (built once).

        A configuration derived by :meth:`consume` or :meth:`update_object`
        from an indexed parent shares the parent's index when only a
        message went away, and patches it on first use when one object
        was replaced (most derived configurations are dedup hits that
        never need it).  Any other configuration scans its elements.
        """
        index = self._index
        if self._delta is not None:
            index = self._index = _patched_index(index, *self._delta)
            self._delta = None
        elif index is None:
            by_oid: Dict[int, Obj] = {}
            by_cls: Dict[str, list] = {}
            for element in self._counts:
                if isinstance(element, Obj):
                    by_oid[element.oid] = element
                    by_cls.setdefault(element.cls, []).append(element)
            index = self._index = (
                by_oid, {cls: tuple(objs) for cls, objs in by_cls.items()}
            )
        return index

    # -- functional updates ------------------------------------------------------

    def add(self, *elements) -> "Configuration":
        """Return a configuration with ``elements`` added."""
        counts = dict(self._counts)
        ihash = self._ihash
        for element in elements:
            if not isinstance(element, (Obj, Msg)):
                raise TypeError(f"configuration element must be Obj or Msg: {element!r}")
            counts[element] = counts.get(element, 0) + 1
            ihash = (ihash + _mix(element._hash)) & _MASK64
        return Configuration._from_counts(counts, ihash)

    def remove(self, element) -> "Configuration":
        """Return a configuration with one occurrence of ``element`` removed.

        :raises KeyError: if the element is not present.
        """
        count = self._counts.get(element, 0)
        if count == 0:
            raise KeyError(f"element not in configuration: {element!r}")
        counts = dict(self._counts)
        if count == 1:
            del counts[element]
        else:
            counts[element] = count - 1
        ihash = (self._ihash - _mix(element._hash)) & _MASK64
        return Configuration._from_counts(counts, ihash)

    def update_object(self, new_obj: Obj) -> "Configuration":
        """Replace the object whose oid matches ``new_obj.oid``.

        :raises KeyError: if no object with that oid exists.
        """
        old = self.find_object(new_obj.oid)
        if old is None:
            raise KeyError(f"no object with oid {new_obj.oid}")
        if old == new_obj:
            return self
        return self._edit(None, old, new_obj)

    def consume(self, message: Msg, obj: Optional[Obj] = None) -> "Configuration":
        """Remove one occurrence of ``message`` and replace one object.

        This is the shape of almost every ROSA rule: a process consumes a
        system-call message and at most one object changes state.  It is
        ``remove(message)`` then ``update_object(obj)`` done as one edit:
        one count-map copy and one new configuration.

        :raises KeyError: if the message is not pending, or no object
            has ``obj.oid``.
        """
        if message not in self._counts:
            raise KeyError(f"element not in configuration: {message!r}")
        old = None
        if obj is not None:
            old = self.find_object(obj.oid)
            if old is None:
                raise KeyError(f"no object with oid {obj.oid}")
            if old == obj:
                old = None
        return self._edit(message, old, obj)

    def _edit(
        self, message: Optional[Msg], old: Optional[Obj], new: Optional[Obj]
    ) -> "Configuration":
        """One occurrence of ``message`` consumed and ``old`` replaced by
        ``new`` (either may be None), in the element order the separate
        ``remove`` and ``update_object`` steps would leave."""
        counts = dict(self._counts)
        ihash = self._ihash
        messages_kept = message is None
        if message is not None:
            count = counts[message]
            if count == 1:
                del counts[message]
            else:
                counts[message] = count - 1
                messages_kept = True
            ihash -= _mix(message._hash)
        delta = None
        if old is not None:
            count = counts[old]
            if count == 1:
                del counts[old]
            else:  # pragma: no cover - object oids are unique in practice
                counts[old] = count - 1
            if counts.get(new, 0) == 0 and count == 1:
                delta = (old, new)
            counts[new] = counts.get(new, 0) + 1
            ihash += _mix(new._hash) - _mix(old._hash)
        config = Configuration._from_counts(counts, ihash & _MASK64)
        if self._index is not None and (old is None or delta is not None):
            # Otherwise (no parent index, duplicate objects) it is scanned.
            config._index = self._indexes()
            config._delta = delta
        if messages_kept:
            config._msg_names = self._msg_names
        return config

    def __repr__(self) -> str:
        parts = sorted(repr(element) for element in self)
        return "Configuration{\n  " + "\n  ".join(parts) + "\n}"


def _patched_index(index, old: Obj, new: Obj):
    """``index`` with ``old`` replaced by ``new``, which goes last in its
    class, where it sits in the edited configuration's element order."""
    by_oid, by_cls = index
    by_oid = dict(by_oid)
    by_oid[new.oid] = new
    by_cls = dict(by_cls)
    by_cls[old.cls] = tuple(obj for obj in by_cls[old.cls] if obj is not old)
    by_cls[new.cls] = by_cls.get(new.cls, ()) + (new,)
    return by_oid, by_cls


class ObjectRule:
    """One rewrite rule over configurations.

    Subclasses (or instances built with :func:`object_rule`) implement
    :meth:`rewrites`, enumerating every configuration reachable from
    ``config`` by one application of this rule.  The search layer pairs
    each result with :attr:`label` for witness paths.
    """

    label: str = "rule"

    def rewrites(self, config: Configuration) -> Iterator[Configuration]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label!r})"


class MessageRule(ObjectRule):
    """A rule triggered by consuming one message of a fixed name.

    This captures the Object Maude idiom: a rule fires when an object can
    consume a matching message.  Subclasses implement
    :meth:`rewrites_for_message`.
    """

    message_name: str = ""

    def rewrites(self, config: Configuration) -> Iterator[Configuration]:
        for message in config.messages(self.message_name):
            yield from self.rewrites_for_message(config, message)

    def rewrites_for_message(
        self, config: Configuration, message: Msg
    ) -> Iterator[Configuration]:
        raise NotImplementedError


class ObjectSystem:
    """A set of object rules, exposing the successor function for search.

    Rules are *indexed by the message head they consume*: a
    :class:`MessageRule` can only fire when a message with its trigger
    name is pending, so :meth:`rules_for` — the one rule filter, which
    :meth:`successors` and the search profiler both iterate — leaves such
    rules out when the configuration holds no matching message, instead
    of attempting all rules against all messages per state.  Rule order
    is preserved, so the successor stream is element-for-element
    identical to the unindexed enumeration (skipped rules would have
    yielded nothing).

    ``indexed=False`` restores the brute-force enumeration; benchmarks
    use it to measure the index's effect, and tests use it to assert the
    two paths agree.
    """

    def __init__(
        self, name: str, rules: Iterable[ObjectRule], indexed: bool = True
    ) -> None:
        self.name = name
        self.rules = tuple(rules)
        self.indexed = indexed
        #: :meth:`rules_for`'s answers by pending message-name set.
        self._fireable: Dict[frozenset, Tuple[ObjectRule, ...]] = {}

    def rules_for(self, config: Configuration) -> Tuple[ObjectRule, ...]:
        """The rules that may fire at ``config``, in rule order.

        Memoized per set of pending message names (configurations cache
        theirs), so a search allocates nothing per state here.
        """
        if not self.indexed:
            return self.rules
        present = config.message_names()
        rules = self._fireable.get(present)
        if rules is None:
            rules = self._fireable[present] = tuple(
                rule
                for rule in self.rules
                if not isinstance(rule, MessageRule)
                or not rule.message_name
                or rule.message_name in present
            )
        return rules

    def successors(self, config: Configuration) -> Iterator[Tuple[str, Configuration]]:
        for rule in self.rules_for(config):
            for result in rule.rewrites(config):
                yield rule.label, result

    def __repr__(self) -> str:
        return f"ObjectSystem({self.name!r}, {len(self.rules)} rules)"
