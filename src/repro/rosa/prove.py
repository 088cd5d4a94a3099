"""Proving INVULNERABLE before searching: a sound abstract reachability check.

ROSA decides a query by enumerating every reachable configuration
(:func:`repro.rosa.query.check`).  Many INVULNERABLE queries are
unreachable for a short reason — without ``CAP_SETUID`` the effective
uid only permutes the process's own three uids, so a root-owned file
mode never opens — and enumerating every gid and supplementary-group
combination to learn that is the bulk of the paper programs' search
cost.  Following Nicole et al. (*Automatically Proving Microkernels
Free from Privilege Escalation*), :func:`prove` instead computes an
over-approximation of the reachable set by abstract interpretation and
checks that the goal cannot hold anywhere in it.

**The domain** (:class:`AbstractState`) is non-relational: one value set
per (object, attribute).

* ``supplementary``, ``rdfset`` and ``wrfset`` only ever grow, so each
  is a *must* set (members in every concretization) and a *may* set
  (the union of all members).
* Every object carries a :data:`PRESENT` pseudo-attribute, a subset of
  ``{True, False}``; ``unlink`` is the only rule that removes one.
* Messages are never consumed: every message stays available forever,
  which over-approximates any ``repeat``.
* Wildcards range over the initial configuration's ``model.candidate_*``
  domains, exactly as :func:`repro.rosa.rules._expand` does.

Every domain is finite and transfers only join, so chaotic iteration
(apply every message's transfer until a sweep changes nothing) reaches a
fixpoint that contains the abstraction of every reachable configuration.

**The model stays in one place.**  Each syscall rule's abstract transfer
(``transfer``) sits next to its concrete ``fire`` in
:mod:`repro.rosa.rules` and calls the same :mod:`repro.rosa.permissions`
checks, evaluated over the concrete *views* of the abstract objects
(:meth:`AbstractState.views`).  Each goal factory in
:mod:`repro.rosa.goals` attaches a ``may_hold`` next to its predicate.

**Two non-monotone traps**, both handled by enumerating views rather
than by summarising them:

* DAC class selection is exclusive: joining a group can *deny* access
  (mode ``0o604``).  A supplementary set is viewed as both its must and
  its may set, so any one membership test sees both outcomes.
* Pathname lookup with no parent entry is unconstrained, so an
  ``unlink`` can *widen* access; :meth:`AbstractState.lookup_may_permit`
  reads entry presence.

**Decline, don't guess.**  :func:`prove` answers ``False`` (search
instead) for a goal without ``may_hold``, a ``query.system`` that is not
a plain :class:`~repro.rewriting.ObjectSystem` of message rules, a
configuration with a repeated object id, and any message matched by a
rule without a transfer (the object-creating ``socket``, ``bind``,
``connect``, ``creat`` and ``link``).  It never answers VULNERABLE.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.rewriting import Configuration, MessageRule, Msg, ObjectSystem
from repro.rosa import model, permissions
from repro.rosa.query import RosaQuery, unix_system
from repro.rosa.rules import DAC_OBJECT, DAC_SUBJECT, SyscallRule

#: The pseudo-attribute recording whether an object may (still) exist.
PRESENT = "present"

#: Set-valued attributes that only grow: tracked as must/may sets.
GROWING = frozenset({"supplementary", "rdfset", "wrfset"})


class Views(tuple):
    """The concrete views of one abstract object: attribute dicts.

    :meth:`AbstractState.may` enumerates the arguments that are views and
    passes every other argument through unchanged.
    """


class AbstractState:
    """One value set per (object, attribute): the abstraction of a set of
    configurations sharing one object population."""

    def __init__(self, config: Configuration) -> None:
        #: Object class by oid (objects never change class).
        self.classes: Dict[int, str] = {}
        #: Possible values; for :data:`GROWING` attributes, the may set.
        self.values: Dict[Tuple[int, str], frozenset] = {}
        #: Must sets of the :data:`GROWING` attributes.
        self.must: Dict[Tuple[int, str], frozenset] = {}
        #: The distinct messages, never consumed.
        self.messages: Tuple[Msg, ...] = tuple(config.messages())
        #: Set by :meth:`join` whenever a value set grows.
        self.changed = False
        self._config = config
        self._domains: Dict[Callable, frozenset] = {}
        #: :meth:`views` results, dropped whenever a value set grows.
        self._views: Dict[Tuple, "Views"] = {}
        for obj in config.objects():
            self.classes[obj.oid] = obj.cls
            self.values[(obj.oid, PRESENT)] = frozenset((True,))
            for name, value in obj.attrs.items():
                if name in GROWING:
                    self.must[(obj.oid, name)] = value
                    self.values[(obj.oid, name)] = value
                else:
                    self.values[(obj.oid, name)] = frozenset((value,))

    # -- reading ---------------------------------------------------------------

    def domain(self, candidates: Callable[[Configuration], frozenset]) -> frozenset:
        """A wildcard domain (``model.candidate_*``) of the initial configuration."""
        domain = self._domains.get(candidates)
        if domain is None:
            domain = self._domains[candidates] = candidates(self._config)
        return domain

    def may_exist(self, oid: int) -> bool:
        """Whether ``config.find_object(oid)`` may be an object."""
        return oid in self.classes and True in self.values[(oid, PRESENT)]

    def may_be(self, oid: int, cls: str) -> bool:
        """Whether object ``oid`` may exist with class ``cls``."""
        return self.classes.get(oid) == cls and True in self.values[(oid, PRESENT)]

    def may_run(self, pid: int) -> bool:
        """Whether ``pid`` may be a live process (a rule's caller or victim)."""
        return self.may_be(pid, model.PROCESS) and (
            model.STATE_RUN in self.values[(pid, "state")]
        )

    def may_be_absent(self, oid: int) -> bool:
        """Whether ``config.find_object(oid)`` may be None."""
        return oid not in self.classes or False in self.values[(oid, PRESENT)]

    def oids(self, cls: str) -> List[int]:
        """The objects of class ``cls`` that may exist."""
        return [oid for oid in self.classes if self.may_be(oid, cls)]

    def views(self, oid: int, *attributes: str) -> Views:
        """Every concrete combination of ``attributes`` of object ``oid``.

        A growing set is viewed as its must and its may set: the checks
        test the membership of one value at a time, and those two views
        give both outcomes of any one such test.
        """
        views = self._views.get((oid, attributes))
        if views is None:
            pools = [
                {self.must[(oid, name)], self.values[(oid, name)]}
                if name in GROWING
                else self.values[(oid, name)]
                for name in attributes
            ]
            views = self._views[(oid, attributes)] = Views(
                dict(zip(attributes, combination))
                for combination in itertools.product(*pools)
            )
        return views

    def referent(self, oid: int, attribute: str, cls: str, *attributes: str) -> Views:
        """Views of the object that ``oid``'s ``attribute`` names, plus
        ``None`` where it may name no ``cls`` object (as a rule's
        ``find_object`` followed by a class test would see it)."""
        views: list = []
        for target in self.values[(oid, attribute)]:
            if self.may_be(target, cls):
                views.extend(self.views(target, *attributes))
            if self.classes.get(target) != cls or self.may_be_absent(target):
                views.append(None)
        return Views(views)

    @staticmethod
    def may(check: Callable[..., bool], *arguments) -> bool:
        """Whether ``check`` holds for some combination of the views among
        ``arguments`` (non-view arguments are passed as they are)."""
        pools = [
            argument if isinstance(argument, Views) else (argument,)
            for argument in arguments
        ]
        return any(check(*combination) for combination in itertools.product(*pools))

    def lookup_may_permit(self, fid: int, pid: int, privs) -> bool:
        """Whether pathname lookup of ``fid`` by ``pid`` may succeed.

        :func:`repro.rosa.permissions.lookup_permits` is unconstrained
        when no parent entry exists, so when every parent entry may be
        gone (unlinked), lookup may succeed whatever the entries' modes.
        """
        parents = [
            oid for oid in self.classes
            if self.classes[oid] == model.DIR and fid in self.values[(oid, "inode")]
        ]
        if all(
            False in self.values[(oid, PRESENT)]
            or self.values[(oid, "inode")] != {fid}
            for oid in parents
        ):
            return True
        subject = self.views(pid, *DAC_SUBJECT)
        return any(
            True in self.values[(oid, PRESENT)]
            and self.may(
                permissions.may_search, subject, self.views(oid, *DAC_OBJECT), privs
            )
            for oid in parents
        )

    # -- writing ---------------------------------------------------------------

    def join(self, oid: int, **updates: Hashable) -> None:
        """Join one possible value per attribute, as ``Obj.update`` would set it.

        For a growing attribute the value is one member the set may gain;
        :data:`PRESENT` takes ``False`` for a removed object.
        """
        for name, value in updates.items():
            key = (oid, name)
            values = self.values[key]
            if value not in values:
                self.values[key] = values | {value}
                self.changed = True
                self._views.clear()

    # -- order -----------------------------------------------------------------

    def __le__(self, other: "AbstractState") -> bool:
        """``self ⊑ other``: every configuration ``self`` describes,
        ``other`` describes too (objects ``self`` lacks must be removable
        in ``other``)."""
        if any(other.classes.get(oid) != cls for oid, cls in self.classes.items()):
            return False
        if not set(self.messages) <= set(other.messages):
            return False
        empty = frozenset()
        if any(
            not values <= other.values.get(key, empty)
            for key, values in self.values.items()
        ):
            return False
        if any(not must >= other.must.get(key, empty) for key, must in self.must.items()):
            return False
        return all(
            False in other.values[(oid, PRESENT)]
            for oid in other.classes
            if oid not in self.classes
        )


def _owner(cls: type, name: str) -> Optional[type]:
    return next((klass for klass in cls.__mro__ if name in vars(klass)), None)


def has_transfer(rule) -> bool:
    """Whether ``rule``'s abstract transfer describes its ``fire``.

    Only a :class:`~repro.rosa.rules.SyscallRule` whose ``fire`` and
    ``transfer`` come from the same class qualifies: a subclass that
    overrides one without the other (or the message dispatch) declines.
    """
    cls = type(rule)
    return (
        isinstance(rule, SyscallRule)
        and "transfer" not in getattr(rule, "__dict__", {})
        and cls.transfer is not None
        and _owner(cls, "fire") is _owner(cls, "transfer")
        and _owner(cls, "rewrites_for_message") is SyscallRule
        and _owner(cls, "rewrites") is MessageRule
    )


#: Per system: its rules by trigger name, each None when some rule of
#: that name has no transfer; None for a system the check cannot read.
_DISPATCH: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _dispatch(system: ObjectSystem) -> Optional[Dict[str, Optional[tuple]]]:
    try:
        return _DISPATCH[system]
    except KeyError:
        pass
    dispatch: Optional[Dict[str, Optional[tuple]]] = None
    if type(system) is ObjectSystem and all(
        isinstance(rule, MessageRule) and rule.message_name for rule in system.rules
    ):
        dispatch = {}
        for rule in system.rules:
            dispatch[rule.message_name] = dispatch.get(rule.message_name, ()) + (rule,)
        for name, rules in dispatch.items():
            if not all(has_transfer(rule) for rule in rules):
                dispatch[name] = None
    _DISPATCH[system] = dispatch
    return dispatch


def steps_of(
    system: ObjectSystem, messages: Iterable[Msg]
) -> Optional[List[Tuple[SyscallRule, Msg]]]:
    """Each (rule, message) pair that may fire, or None to decline."""
    dispatch = _dispatch(system)
    if dispatch is None:
        return None
    steps = []
    for message in messages:
        if message.name not in dispatch:
            continue  # no rule consumes it: it never fires
        rules = dispatch[message.name]
        if rules is None:
            return None
        steps.extend((rule, message) for rule in rules)
    return steps


def fixpoint(
    config: Configuration,
    system: Optional[ObjectSystem] = None,
    until: Callable[[AbstractState], bool] = lambda state: False,
) -> Optional[AbstractState]:
    """The abstract fixpoint of everything reachable from ``config``.

    Chaotic iteration: every (rule, message) step joins its transfer into
    one state until a sweep changes nothing.  Stops early, returning the
    state as it stands, once ``until(state)`` holds.  None when the check
    declines (see the module docstring).
    """
    oids = [obj.oid for obj in config.objects()]
    if len(set(oids)) != len(oids):
        return None
    state = AbstractState(config)
    steps = steps_of(system or unix_system(), state.messages)
    if steps is None:
        return None
    while not until(state):
        state.changed = False
        for rule, message in steps:
            rule.abstract(state, message)
        if not state.changed:
            break
    return state


def prove(query: RosaQuery) -> bool:
    """True when the query's goal is unreachable in the abstract fixpoint.

    A True answer is a proof: no configuration the bounded search could
    reach satisfies the goal, so the query is INVULNERABLE.  False means
    only "not proved" — the check declined or the goal may hold — and the
    caller searches.
    """
    may_hold = getattr(query.goal, "may_hold", None)
    if may_hold is None:
        return False
    state = fixpoint(query.initial, query.system, until=may_hold)
    return state is not None and not may_hold(state)
