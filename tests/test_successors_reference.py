"""Differential test: ROSA successors against the reference object layer.

``RefObj`` and ``RefConfiguration`` are the original formulation of
:mod:`repro.rewriting.objects`, kept here as the specification: every
object builds its canonical key eagerly and hashes and compares by it,
and ``consume`` is ``remove`` followed by ``update_object``, each with its
own count-map copy and a fresh oid index.  ``reference_successors`` is the
original indexed ``ObjectSystem.successors``, and the two ``setres*``
rules keep their original ``fire``, which checks every (r, e, s)
combination.

The production layer hashes objects by their raw identity, builds the
canonical key lazily, edits a configuration with one copy, inherits its
parent's indexes and filters each ``setres*`` field once.  From every
generated configuration, and from the states a few rewrites away, both
must yield the same labels in the same order, successors with equal
canonical keys, and the same objects in the same order.
"""

import random
from typing import Dict, Hashable, Iterable, Iterator, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.caps import Capability
from repro.rewriting import Configuration, MessageRule, Msg, Obj
from repro.rewriting.objects import _MASK64, _canonical_value, _mix
from repro.rosa import model, permissions, syscalls
from repro.rosa.query import unix_system
from repro.rosa.rules import KEEP, SetresgidRule, SetresuidRule, _expand, unix_rules
from repro.testkit.generators import GID_POOL, UID_POOL, build_configuration, gen_config_case


class RefObj:
    """The reference object: hashed and compared by its canonical key."""

    __slots__ = ("oid", "cls", "attrs", "_key", "_hash")

    def __init__(self, oid: int, cls: str, **attrs) -> None:
        self.oid = oid
        self.cls = cls
        self.attrs = dict(attrs)
        self._key = (
            "obj",
            cls,
            oid,
            tuple(sorted((name, _canonical_value(value)) for name, value in attrs.items())),
        )
        self._hash = hash(self._key)

    def __getitem__(self, name: str):
        return self.attrs[name]

    def get(self, name: str, default=None):
        return self.attrs.get(name, default)

    def update(self, **changes) -> "RefObj":
        attrs = dict(self.attrs)
        attrs.update(changes)
        return RefObj(self.oid, self.cls, **attrs)

    @property
    def key(self) -> Hashable:
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RefObj) and other._key == self._key

    def __hash__(self) -> int:
        return self._hash


def _ref_total_order(value) -> Tuple:
    """A type tag before every leaf, so a str and an int compare."""
    if isinstance(value, tuple):
        return (0, tuple(_ref_total_order(item) for item in value))
    return (1, type(value).__name__, value)


class RefConfiguration:
    """The reference configuration: every edit copies the count map."""

    __slots__ = ("_counts", "_ihash", "_key", "_by_oid", "_msg_names")

    def __init__(self, elements: Iterable = ()) -> None:
        counts: Dict = {}
        for element in elements:
            if not isinstance(element, (RefObj, Msg)):
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
        self._key: Optional[Tuple] = None
        self._by_oid: Optional[Dict[int, RefObj]] = None
        self._msg_names: Optional[frozenset] = None

    @classmethod
    def _from_counts(cls, counts: Dict, ihash: Optional[int] = None) -> "RefConfiguration":
        config = cls.__new__(cls)
        config._init_from_counts(counts, ihash)
        return config

    @property
    def key(self) -> Hashable:
        key = self._key
        if key is None:
            items = [(elem.key, count) for elem, count in self._counts.items()]
            try:
                items.sort()
            except TypeError:  # same-name messages mixing KEEP and an id
                items.sort(key=_ref_total_order)
            key = self._key = tuple(items)
        return key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, RefConfiguration) and other._counts == self._counts

    def __hash__(self) -> int:
        return self._ihash

    def __iter__(self) -> Iterator:
        for element, count in self._counts.items():
            for _ in range(count):
                yield element

    def objects(self, cls: Optional[str] = None) -> Iterator[RefObj]:
        for element in self._counts:
            if isinstance(element, RefObj) and (cls is None or element.cls == cls):
                yield element

    def messages(self, name: Optional[str] = None) -> Iterator[Msg]:
        for element in self._counts:
            if isinstance(element, Msg) and (name is None or element.name == name):
                yield element

    def message_names(self) -> frozenset:
        names = self._msg_names
        if names is None:
            names = self._msg_names = frozenset(
                element.name for element in self._counts if isinstance(element, Msg)
            )
        return names

    def find_object(self, oid: int) -> Optional[RefObj]:
        index = self._by_oid
        if index is None:
            index = self._by_oid = {
                element.oid: element
                for element in self._counts
                if isinstance(element, RefObj)
            }
        return index.get(oid)

    def add(self, *elements) -> "RefConfiguration":
        counts = dict(self._counts)
        ihash = self._ihash
        for element in elements:
            if not isinstance(element, (RefObj, Msg)):
                raise TypeError(f"configuration element must be Obj or Msg: {element!r}")
            counts[element] = counts.get(element, 0) + 1
            ihash = (ihash + _mix(element._hash)) & _MASK64
        return RefConfiguration._from_counts(counts, ihash)

    def remove(self, element) -> "RefConfiguration":
        count = self._counts.get(element, 0)
        if count == 0:
            raise KeyError(f"element not in configuration: {element!r}")
        counts = dict(self._counts)
        if count == 1:
            del counts[element]
        else:
            counts[element] = count - 1
        ihash = (self._ihash - _mix(element._hash)) & _MASK64
        return RefConfiguration._from_counts(counts, ihash)

    def update_object(self, new_obj: RefObj) -> "RefConfiguration":
        old = self.find_object(new_obj.oid)
        if old is None:
            raise KeyError(f"no object with oid {new_obj.oid}")
        if old == new_obj:
            return self
        counts = dict(self._counts)
        count = counts[old]
        if count == 1:
            del counts[old]
        else:
            counts[old] = count - 1
        counts[new_obj] = counts.get(new_obj, 0) + 1
        ihash = (self._ihash - _mix(old._hash) + _mix(new_obj._hash)) & _MASK64
        return RefConfiguration._from_counts(counts, ihash)

    def consume(self, message: Msg, *updates: RefObj) -> "RefConfiguration":
        config = self.remove(message)
        for obj in updates:
            config = config.update_object(obj)
        return config


class RefSetresuidRule(SetresuidRule):
    def fire(self, config, message, proc):
        _, r_arg, e_arg, s_arg, privs = message.args
        domain = model.candidate_uids(config)
        for new_r in _expand(r_arg, domain):
            for new_e in _expand(e_arg, domain):
                for new_s in _expand(s_arg, domain):
                    values = dict(ruid=new_r, euid=new_e, suid=new_s)
                    updates = {}
                    allowed = True
                    for field, value in values.items():
                        if value == KEEP:
                            continue
                        if not permissions.may_set_uid(proc, value, privs):
                            allowed = False
                            break
                        updates[field] = value
                    if allowed and updates:
                        yield config.consume(message, proc.update(**updates))


class RefSetresgidRule(SetresgidRule):
    def fire(self, config, message, proc):
        _, r_arg, e_arg, s_arg, privs = message.args
        domain = model.candidate_gids(config)
        for new_r in _expand(r_arg, domain):
            for new_e in _expand(e_arg, domain):
                for new_s in _expand(s_arg, domain):
                    values = dict(rgid=new_r, egid=new_e, sgid=new_s)
                    updates = {}
                    allowed = True
                    for field, value in values.items():
                        if value == KEEP:
                            continue
                        if not permissions.may_set_gid(proc, value, privs):
                            allowed = False
                            break
                        updates[field] = value
                    if allowed and updates:
                        yield config.consume(message, proc.update(**updates))


_REFERENCE_RULES = {SetresuidRule: RefSetresuidRule(), SetresgidRule: RefSetresgidRule()}
REFERENCE_RULES = tuple(_REFERENCE_RULES.get(type(rule), rule) for rule in unix_rules())


def reference_successors(rules, config):
    """The original indexed ``ObjectSystem.successors``."""
    present = config.message_names()
    for rule in rules:
        trigger = (
            rule.message_name
            if isinstance(rule, MessageRule) and rule.message_name
            else None
        )
        if trigger is not None and trigger not in present:
            continue
        for result in rule.rewrites(config):
            yield rule.label, result


def to_reference(config: Configuration) -> RefConfiguration:
    return RefConfiguration(
        RefObj(element.oid, element.cls, **element.attrs)
        if isinstance(element, Obj)
        else element
        for element in config
    )


def _objects_view(config) -> Tuple:
    """Every object key in element order, per class and by oid."""
    objects = list(config.objects())
    classes = sorted({obj.cls for obj in objects})
    return (
        [obj.key for obj in objects],
        {cls: [obj.key for obj in config.objects(cls)] for cls in classes},
        {obj.oid: config.find_object(obj.oid).key for obj in objects},
    )


def assert_same_successors(config: Configuration, max_states: int = 60) -> int:
    """Walk breadth-first from ``config`` in lockstep with the reference;
    return how many state pairs were compared."""
    system = unix_system()
    pending = [(config, to_reference(config))]
    seen = {config.key}
    compared = 0
    with pytest.MonkeyPatch.context() as patch:
        while pending and compared < max_states:
            state, ref_state = pending.pop(0)
            compared += 1
            produced = list(system.successors(state))
            # Rules that create objects (socket, creat, link) build them
            # through the model's constructors: make those reference objects.
            patch.setattr(model, "Obj", RefObj)
            expected = list(reference_successors(REFERENCE_RULES, ref_state))
            patch.undo()
            assert [label for label, _ in produced] == [label for label, _ in expected]
            for (label, successor), (_, ref_successor) in zip(produced, expected):
                key = successor.key
                assert key == ref_successor.key, label
                assert _objects_view(successor) == _objects_view(ref_successor), label
                assert successor.message_names() == ref_successor.message_names(), label
                if key not in seen:
                    seen.add(key)
                    pending.append((successor, ref_successor))
    return compared


_CAPS = (
    (),
    (Capability.CAP_SETUID,),
    (Capability.CAP_SETGID,),
    (Capability.CAP_SETUID, Capability.CAP_SETGID, Capability.CAP_DAC_OVERRIDE),
)
_W = syscalls.WILDCARD
_UID_ARGS = st.sampled_from((_W, KEEP) + UID_POOL)
_GID_ARGS = st.sampled_from((_W, KEEP) + GID_POOL)
_MODES = st.sampled_from((syscalls.O_RDONLY, syscalls.O_WRONLY, syscalls.O_RDWR))


@st.composite
def extra_messages(draw):
    privs = draw(st.sampled_from(_CAPS))
    kind = draw(st.sampled_from(("setresuid", "setresgid", "setgroups", "open")))
    if kind == "setresuid":
        return syscalls.sys_setresuid(1, draw(_UID_ARGS), draw(_UID_ARGS), draw(_UID_ARGS), privs)
    if kind == "setresgid":
        return syscalls.sys_setresgid(1, draw(_GID_ARGS), draw(_GID_ARGS), draw(_GID_ARGS), privs)
    if kind == "setgroups":
        return syscalls.sys_setgroups(1, draw(st.sampled_from((_W,) + GID_POOL)), privs)
    return syscalls.sys_open(1, draw(st.sampled_from((_W, 10, 11, 30, 99))), draw(_MODES), privs)


@st.composite
def configurations(draw):
    case = gen_config_case(random.Random(draw(st.integers(0, 2**32 - 1))))
    config = build_configuration(case)
    return config.add(*draw(st.lists(extra_messages(), max_size=3)))


@settings(max_examples=60, deadline=None)
@given(configurations())
def test_successor_streams_match_reference(config):
    assert assert_same_successors(config) >= 1


_SUREF_PRIVS = (Capability.CAP_SETGID,)


@pytest.mark.parametrize(
    "messages",
    [
        # suRef's phase 4, attack 2: every argument a wildcard.
        (
            syscalls.sys_open(1, _W, syscalls.O_RDONLY, _SUREF_PRIVS),
            syscalls.sys_open(1, _W, syscalls.O_WRONLY, _SUREF_PRIVS),
            syscalls.sys_setgroups(1, _W, _SUREF_PRIVS),
            syscalls.sys_setresgid(1, _W, _W, _W, _SUREF_PRIVS),
            syscalls.sys_setresuid(1, _W, _W, _W, _SUREF_PRIVS),
        ),
        # Unprivileged setres* calls that keep one id each.
        (
            syscalls.sys_setresuid(1, KEEP, _W, _W),
            syscalls.sys_setresuid(1, _W, KEEP, 1000),
            syscalls.sys_setresgid(1, _W, _W, KEEP),
            syscalls.sys_setresgid(1, KEEP, KEEP, KEEP),
            syscalls.sys_open(1, 10, syscalls.O_RDWR),
        ),
    ],
    ids=["wildcards", "keep"],
)
def test_successor_streams_match_reference_on_suref_shapes(messages):
    config = Configuration(
        [
            model.process(1, ruid=1000, euid=998, suid=1001, rgid=1000, egid=998, sgid=1001),
            model.file_obj(10, name="/dev/mem", owner=0, group=15, perms=0o640),
            model.dir_entry(11, name="/dev", owner=0, group=0, perms=0o755, inode=10),
            *(model.user(20 + index, uid) for index, uid in enumerate((0, 998, 1000, 1001))),
            *(model.group(24 + index, gid) for index, gid in enumerate((15, 998, 1000, 1001))),
            *messages,
        ]
    )
    assert assert_same_successors(config, max_states=120) > 1


_VALUES = st.recursive(
    st.one_of(st.integers(-2, 3), st.booleans(), st.sampled_from(("r", "w", "run"))),
    lambda inner: st.one_of(
        st.frozensets(inner, max_size=3),
        st.tuples(inner, inner),
        st.lists(inner, max_size=2).map(tuple),
    ),
    max_leaves=6,
)
_ATTRS = st.dictionaries(st.sampled_from(("euid", "rdfset", "state", "name")), _VALUES, max_size=3)
_OBJECTS = st.builds(
    lambda oid, cls, attrs: (oid, cls, attrs),
    st.integers(1, 2),
    st.sampled_from(("Process", "File")),
    _ATTRS,
)


@settings(max_examples=300, deadline=None)
@given(_OBJECTS, _OBJECTS, _ATTRS)
def test_object_identity_agrees_with_canonical_key(first, second, changes):
    (oid_a, cls_a, attrs_a), (oid_b, cls_b, attrs_b) = first, second
    a = Obj(oid_a, cls_a, **attrs_a)
    # Pair each object with one that often matches it: the same content
    # reordered, an update of it, or an unrelated object.
    for b in (
        Obj(oid_b, cls_b, **attrs_b),
        Obj(oid_a, cls_a, **dict(reversed(list(attrs_a.items())))),
        a.update(**changes),
        Obj(oid_a, cls_a, **{**attrs_a, **changes}),
    ):
        assert (a == b) == (a.key == b.key)
        if a == b:
            assert hash(a) == hash(b)
    updated = a.update(**changes)
    rebuilt = Obj(oid_a, cls_a, **{**attrs_a, **changes})
    assert updated == rebuilt and hash(updated) == hash(rebuilt)
    assert updated.key == rebuilt.key
    # The lazily built key is the reference's eager key, bit for bit.
    assert a.key == RefObj(oid_a, cls_a, **attrs_a).key
    assert updated.key == RefObj(oid_a, cls_a, **{**attrs_a, **changes}).key
    assert repr(a) == repr(Obj(oid_a, cls_a, **attrs_a))


def test_frozenset_and_tuple_attributes_compare_by_content():
    a = Obj(1, "P", members=frozenset({3, 1, 2}), path=(1, frozenset({"x", "y"})))
    b = Obj(1, "P", path=(1, frozenset({"y", "x"})), members=frozenset({2, 3, 1}))
    assert a == b and hash(a) == hash(b) and a.key == b.key
    assert a != Obj(1, "P", members=(1, 2, 3), path=(1, frozenset({"x", "y"})))
    assert a != a.update(members=frozenset({1, 2}))
