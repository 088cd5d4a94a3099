"""Independence and symmetry declarations for ROSA syscall messages.

This module is the domain knowledge behind
:mod:`repro.rewriting.reduction` for the UNIX rule module:

* **Resource tokens** — every syscall message kind declares the coarse
  attribute-level tokens its rule reads (for enabledness and effect)
  and writes (:data:`MESSAGE_FOOTPRINTS`).  Two pending messages are
  independent when neither writes a token the other touches — they then
  commute: executing them in either order reaches the same state, and
  neither can enable or disable the other.

* **Identifier schema** — which object attributes and message arguments
  hold uids, gids, or object ids (:data:`CLASS_SCHEMAS`,
  :data:`MESSAGE_ARG_DOMAINS`).  Symmetry canonicalization renames the
  *anonymous* ids (those named neither by the goal nor by a concrete
  message argument) to canonical labels, collapsing states that differ
  only by such a renaming.  This is sound because the UNIX rules are
  rename-equivariant: :mod:`repro.rosa.permissions` compares ids only
  for equality (there is no uid-0 special case — root's power flows
  entirely through capabilities), and wildcard domains are sets that
  map through any renaming.

* **Goal footprints** — :class:`GoalFootprint` records what a goal
  predicate reads (for partial-order visibility) and which concrete ids
  it mentions (which must stay pinned under symmetry).  Goals without a
  footprint disable reduction for their query.

:func:`build_reducer` assembles these into a :class:`RosaReducer`, the
object :func:`repro.rosa.query.check` installs between the search and
the rule system.  Reduction preserves reachability verdicts: symmetry
merges are exact by construction, and ample sets satisfy the classic
conditions (the message commutes with every other pending message, is
invisible to the goal, and the state space is acyclic because every
rule consumes one message and none create any).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.rewriting import Configuration, MessageRule, Msg, Obj, ObjectSystem, SearchBudget
from repro.rewriting.reduction import (
    Footprint,
    LazyCanonicalKey,
    ReductionStats,
    blind_signature,
    canonical_key,
    footprint,
    typed_fset,
    typed_id,
)
from repro.rosa import model

# Identifier domains.
OID = "oid"
UID = "uid"
GID = "gid"

#: Object-class attribute schema: which attributes hold ids of which
#: domain.  Attributes not listed are plain values (names, perms,
#: states, ports — never renamed).  ``("fset", domain)`` marks a
#: frozenset of ids.
CLASS_SCHEMAS: Dict[str, Dict[str, object]] = {
    model.PROCESS: {
        "euid": UID, "ruid": UID, "suid": UID,
        "egid": GID, "rgid": GID, "sgid": GID,
        "supplementary": ("fset", GID),
        "rdfset": ("fset", OID),
        "wrfset": ("fset", OID),
    },
    model.FILE: {"owner": UID, "group": GID},
    model.DIR: {"owner": UID, "group": GID, "inode": OID},
    model.SOCKET: {"owner_pid": OID},
    model.USER: {"uid": UID},
    model.GROUP: {"gid": GID},
    model.PORT: {},
}

#: Message argument domains, by message name, in argument order.  ``None``
#: marks a plain argument (modes, perms, signals, names, ports, caps).
MESSAGE_ARG_DOMAINS: Dict[str, Tuple[Optional[str], ...]] = {
    "open": (OID, OID, None, None),
    "setuid": (OID, UID, None),
    "seteuid": (OID, UID, None),
    "setresuid": (OID, UID, UID, UID, None),
    "setgid": (OID, GID, None),
    "setegid": (OID, GID, None),
    "setresgid": (OID, GID, GID, GID, None),
    "setgroups": (OID, GID, None),
    "kill": (OID, OID, None, None),
    "chmod": (OID, OID, None, None),
    "fchmod": (OID, OID, None, None),
    "chown": (OID, OID, UID, GID, None),
    "fchown": (OID, OID, UID, GID, None),
    "unlink": (OID, OID, None),
    "creat": (OID, OID, None, None, None),
    "link": (OID, OID, OID, None, None),
    "rename": (OID, OID, None, None),
    "socket": (OID, None),
    "bind": (OID, OID, None, None),
    "connect": (OID, OID, None, None),
}

# Resource tokens (see the per-rule derivations below).  Coarse on
# purpose: a token covers one attribute family across *all* objects, so
# declared footprints safely over-approximate per-object ones.
PROC_STATE = "proc.state"
PROC_UIDS = "proc.uids"
PROC_GIDS = "proc.gids"
PROC_FDS = "proc.fds"
FILE_PERMS = "file.perms"
FILE_OWNER = "file.owner"  # owner and group bits together
DIRS = "dirs"  # directory-entry existence and attributes
POP_FILE = "pop.file"  # the File object population
POP_SOCK = "pop.sock"  # the Socket object population
SOCK_PORT = "sock.port"
OID_MAX = "oid.max"  # the fresh-oid counter (read+written by creators)

#: Read/write footprints of each syscall rule, derived from
#: :mod:`repro.rosa.rules`.  Every rule reads ``proc.state`` (the
#: dead-process check).  Reads include everything enabledness depends
#: on — permission inputs, wildcard candidate populations, skip-guard
#: comparisons — because partial-order reduction needs "m2 cannot
#: enable, disable, or alter m" exactly as much as effect disjointness.
MESSAGE_FOOTPRINTS: Dict[str, Footprint] = {
    "open": footprint(
        reads={PROC_STATE, PROC_UIDS, PROC_GIDS, FILE_PERMS, FILE_OWNER, DIRS, POP_FILE},
        writes={PROC_FDS},
    ),
    "setuid": footprint(reads={PROC_STATE, PROC_UIDS}, writes={PROC_UIDS}),
    "seteuid": footprint(reads={PROC_STATE, PROC_UIDS}, writes={PROC_UIDS}),
    "setresuid": footprint(reads={PROC_STATE, PROC_UIDS}, writes={PROC_UIDS}),
    "setgid": footprint(reads={PROC_STATE, PROC_GIDS}, writes={PROC_GIDS}),
    "setegid": footprint(reads={PROC_STATE, PROC_GIDS}, writes={PROC_GIDS}),
    "setresgid": footprint(reads={PROC_STATE, PROC_GIDS}, writes={PROC_GIDS}),
    "setgroups": footprint(reads={PROC_STATE, PROC_GIDS}, writes={PROC_GIDS}),
    "kill": footprint(reads={PROC_STATE, PROC_UIDS}, writes={PROC_STATE}),
    "chmod": footprint(
        reads={PROC_STATE, PROC_UIDS, PROC_GIDS, FILE_OWNER, FILE_PERMS, DIRS, POP_FILE},
        writes={FILE_PERMS},
    ),
    "fchmod": footprint(
        reads={PROC_STATE, PROC_UIDS, PROC_FDS, FILE_OWNER, FILE_PERMS, POP_FILE},
        writes={FILE_PERMS},
    ),
    "chown": footprint(
        reads={PROC_STATE, PROC_UIDS, PROC_GIDS, FILE_OWNER, DIRS, POP_FILE},
        writes={FILE_OWNER},
    ),
    "fchown": footprint(
        reads={PROC_STATE, PROC_UIDS, PROC_GIDS, FILE_OWNER, PROC_FDS, POP_FILE},
        writes={FILE_OWNER},
    ),
    "unlink": footprint(
        reads={PROC_STATE, PROC_UIDS, PROC_GIDS, DIRS, POP_FILE, FILE_OWNER, FILE_PERMS},
        writes={DIRS, OID_MAX},
    ),
    "creat": footprint(
        reads={PROC_STATE, PROC_UIDS, PROC_GIDS, DIRS, OID_MAX},
        writes={POP_FILE, DIRS, OID_MAX},
    ),
    "link": footprint(
        reads={PROC_STATE, PROC_UIDS, PROC_GIDS, POP_FILE, DIRS, OID_MAX},
        writes={DIRS, OID_MAX},
    ),
    "rename": footprint(
        reads={PROC_STATE, PROC_UIDS, PROC_GIDS, DIRS, POP_FILE, FILE_OWNER, FILE_PERMS},
        writes={DIRS},
    ),
    "socket": footprint(reads={PROC_STATE, OID_MAX}, writes={POP_SOCK, OID_MAX}),
    "bind": footprint(reads={PROC_STATE, POP_SOCK, SOCK_PORT}, writes={SOCK_PORT}),
    "connect": footprint(reads={PROC_STATE, POP_SOCK}, writes=frozenset()),
}


@dataclasses.dataclass(frozen=True)
class GoalFootprint:
    """What a goal predicate depends on.

    ``reads`` are the resource tokens the predicate inspects — a message
    whose writes intersect them is *visible* and can never be deferred
    by partial-order reduction.  ``oids``/``uids``/``gids`` are the
    concrete identifiers the predicate mentions; symmetry must pin them
    (a renamed key that moved a goal-referenced id could merge a goal
    state with a non-goal state).
    """

    reads: FrozenSet[str]
    oids: FrozenSet[int] = frozenset()
    uids: FrozenSet[int] = frozenset()
    gids: FrozenSet[int] = frozenset()

    def union(self, other: "GoalFootprint") -> "GoalFootprint":
        return GoalFootprint(
            reads=self.reads | other.reads,
            oids=self.oids | other.oids,
            uids=self.uids | other.uids,
            gids=self.gids | other.gids,
        )


def combined_footprint(goals: Iterable) -> Optional[GoalFootprint]:
    """The union footprint of several goals; None if any goal lacks one."""
    merged: Optional[GoalFootprint] = None
    for goal in goals:
        fp = getattr(goal, "footprint", None)
        if not isinstance(fp, GoalFootprint):
            return None
        merged = fp if merged is None else merged.union(fp)
    return merged


def _typed_value(value, domain):
    if domain is None:
        if isinstance(value, frozenset):
            return ("frozenset",) + tuple(sorted(value, key=repr))
        if isinstance(value, tuple):
            return ("tuple",) + tuple(_typed_value(item, None) for item in value)
        return value
    if isinstance(domain, tuple):  # ("fset", inner-domain)
        inner = domain[1]
        return typed_fset(_typed_value(item, inner) for item in value)
    # Only non-negative ints are identifiers; the wildcard sentinel (-1)
    # and the KEEP sentinel ("keep") pass through untouched.
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return typed_id(domain, value)
    return value


def _typed_obj_key(obj: Obj) -> Tuple:
    schema = CLASS_SCHEMAS[obj.cls]
    attrs = tuple(
        (name, _typed_value(obj.attrs[name], schema.get(name)))
        for name in sorted(obj.attrs)
    )
    return ("obj", obj.cls, typed_id(OID, obj.oid), attrs)


def _typed_msg_key(msg: Msg) -> Tuple:
    domains = MESSAGE_ARG_DOMAINS[msg.name]
    args = tuple(
        _typed_value(value, domain) for value, domain in zip(msg.args, domains)
    )
    return ("msg", msg.name, args)


#: Below this estimated raw state-space size, reduction costs more than
#: it can possibly save: the reducer's setup (inert classification) plus
#: per-state canonicalization overwhelm a search that finishes in a few
#: dozen states either way.  The query engine downgrades such searches
#: to the raw space (see
#: :meth:`repro.rosa.engine.QueryEngine._effective_reduction`); direct
#: :func:`repro.rosa.query.check` calls are never downgraded — baselines,
#: differential oracles and reduction tests rely on the flag meaning
#: exactly what it says.
REDUCTION_MIN_SPACE = 256


def estimated_space(initial: Configuration, cap: int = 1 << 20) -> int:
    """A cheap size heuristic for gating reduction, *not* a bound.

    ``prod(count + 1)`` over the pending message multiset counts the
    sub-multisets of messages a search can consume.  Every UNIX rule
    consumes one message, but a wildcard argument rewrites one message
    in many ways, so the reachable space can be far larger: for suRef's
    phase 4, attack 2 (five wildcard messages) this returns 32 while the
    raw search sees 12712 states.  It only ranks queries against
    :data:`REDUCTION_MIN_SPACE`.  The product is clamped at ``cap`` —
    callers only compare it against small thresholds, and unclamped it
    grows combinatorially.
    """
    bound = 1
    for element, count in initial._counts.items():
        if isinstance(element, Msg):
            bound *= count + 1
            if bound >= cap:
                return cap
    return bound


#: Messages that write the uid triple family (``proc.uids``); no other
#: message kind can change any process's uids.
_UID_FAMILY = frozenset({"setuid", "seteuid", "setresuid"})
#: Messages that write the gid family (``proc.gids``); the only writers.
_GID_FAMILY = frozenset({"setgid", "setegid", "setresgid", "setgroups"})


class RosaReducer:
    """Symmetry-canonical visited keys plus ample-set successor filtering.

    Built per query by :func:`build_reducer`; :meth:`canonical` replaces
    the search's visited-set key extractor and :meth:`successors`
    replaces the rule system's successor function.  ``stats`` accumulates
    the reduction counters the report and telemetry surface.
    """

    def __init__(
        self,
        system: ObjectSystem,
        goal_footprint: GoalFootprint,
        pinned: Dict[str, FrozenSet],
        por: bool,
        initial: Optional[Configuration] = None,
    ) -> None:
        self.system = system
        self.goal_reads = goal_footprint.reads
        self.pinned = pinned
        self.por = por
        self.stats = ReductionStats()
        #: Typed keys are cached per element: Obj/Msg instances are shared
        #: across the many configurations a search builds, so the cache
        #: hit rate approaches 1 after the first few states.
        self._typed: Dict[object, Tuple] = {}
        #: canonical body -> incremental hash of the first raw state seen
        #: with it; a second raw hash under the same body is a symmetry
        #: merge (metrics only — correctness never consults this).
        self._first_raw: Dict[Tuple, int] = {}
        #: raw configuration -> visited-set key.  BFS canonicalizes every
        #: successor *edge*; distinct edges frequently produce the same
        #: raw configuration, and Configuration hashes in O(1) via its
        #: incremental hash, so keying finished answers by the raw state
        #: skips re-deriving the key on repeats — and, because equal raw
        #: configurations share one :class:`LazyCanonicalKey` instance,
        #: most set probes short-circuit on identity.
        self._canon: Dict[Configuration, Hashable] = {}
        #: Cross-state canonicalization memo shared by every
        #: :func:`canonical_key` call of this search (see its docstring).
        self._memo: Dict = {}
        #: Rules by the message name they consume, in rule order.
        self._rules_by_name: Dict[str, List[MessageRule]] = {}
        for rule in system.rules:
            if isinstance(rule, MessageRule) and rule.message_name:
                self._rules_by_name.setdefault(rule.message_name, []).append(rule)
        #: Pending message -> forever-inert verdict (see
        #: :meth:`_classify_inert`); filled from the first configuration
        #: :meth:`_ample` sees (the search's initial state) unless one
        #: was provided up front.  Messages never spawn during search, so
        #: the initial pending set covers every reachable state.
        self._inert: Optional[Dict[Msg, bool]] = None
        #: Cached deterministic sort keys for pending-message ordering.
        self._sort_keys: Dict[Msg, str] = {}
        if initial is not None:
            self._classify_inert(initial)

    # -- symmetry ---------------------------------------------------------------

    def _typed_key(self, element) -> Tuple:
        cached = self._typed.get(element)
        if cached is None:
            if isinstance(element, Obj):
                cached = _typed_obj_key(element)
            else:
                cached = _typed_msg_key(element)
            self._typed[element] = cached
        return cached

    def canonical(self, config: Configuration) -> Hashable:
        cached = self._canon.get(config)
        if cached is not None:
            return cached
        key = self._canonical_uncached(config)
        self._canon[config] = key
        return key

    def _canonical_uncached(self, config: Configuration) -> Hashable:
        typed_elements = [
            (self._typed_key(element), count)
            for element, count in config._counts.items()
        ]
        blind, has_anon = blind_signature(typed_elements, self.pinned, self._memo)
        if not has_anon:
            # Fast path: no anonymous ids, the configuration is its own
            # canonical representative.
            return config
        # Lazy slow path: the key hashes by the O(1)-combinable blinded
        # signature; colour refinement runs only if the visited set sees
        # a hash collision and probes equality (see LazyCanonicalKey).
        return LazyCanonicalKey(config, blind, self._canonical_body)

    def _canonical_body(self, config: Configuration) -> Tuple:
        """Full colour-refinement canonical form; collision path only."""
        typed_elements = [
            (self._typed_key(element), count)
            for element, count in config._counts.items()
        ]
        body = canonical_key(typed_elements, self.pinned, memo=self._memo)
        # ``body`` cannot be None here: lazy keys are built only for
        # states with anonymous ids.
        self.stats.canonicalized += 1
        raw = self._first_raw.setdefault(body, config._ihash)
        if raw != config._ihash:
            self.stats.symmetry_hits += 1
        return body

    # -- partial order ----------------------------------------------------------

    def successors(self, config: Configuration) -> Iterator[Tuple[str, Configuration]]:
        if self.por:
            ample = self._ample(config)
            if ample is not None:
                return iter(ample)
        return self.system.successors(config)

    def _classify_inert(self, initial: Configuration) -> Dict[Msg, bool]:
        """Which pending messages are *forever inert*: pure consumes always.

        A message is forever inert when, at every reachable state, each
        of its transitions is a pure consume — the result is exactly the
        state minus one occurrence of the message.  Such a message
        commutes with everything (consuming it first reaches ``s ∖ {m}``
        with every object untouched, and no rule reads the message
        multiset of other kinds), is invisible to goals (goals read only
        objects), and the space is acyclic (every rule consumes a
        message), so its transitions form a sound ample set.

        Classification is per message value, from the initial state:

        * ``connect`` and non-SIGKILL ``kill`` are pure consumes by rule
          construction, at any state;
        * the uid family is inert when *every* pending uid-family
          message yields only pure consumes at the initial state.  Those
          messages are the only writers of any process's uid triple and
          their enabledness reads only uids plus the capability set
          frozen inside the message args — so if none of them can move a
          uid at the start, no reachable state ever differs in uids and
          the initial classification holds everywhere;
        * the gid family is frozen analogously (sole writers of gid
          triples and supplementary groups, enabledness on gids + frozen
          caps).

        Messages with zero transitions at the initial state classify as
        pure vacuously — under a frozen family they stay disabled
        forever, so they neither write nor ever lead an ample set (ample
        selection requires an enabled transition).
        """
        purity: Dict[Msg, bool] = {}
        pending = list(initial.messages())
        for msg in pending:
            expected = None
            pure = True
            for rule in self._rules_by_name.get(msg.name, ()):
                for result in rule.rewrites_for_message(initial, msg):
                    if expected is None:
                        expected = initial.consume(msg)
                    if result != expected:
                        pure = False
                        break
                if not pure:
                    break
            purity[msg] = pure
        uid_frozen = all(
            purity[msg] for msg in pending if msg.name in _UID_FAMILY
        )
        gid_frozen = all(
            purity[msg] for msg in pending if msg.name in _GID_FAMILY
        )
        inert: Dict[Msg, bool] = {}
        for msg in pending:
            if msg.name == "connect":
                inert[msg] = True
            elif msg.name == "kill" and msg.args[2] != model.SIGKILL:
                inert[msg] = True
            elif msg.name in _UID_FAMILY:
                inert[msg] = uid_frozen
            elif msg.name in _GID_FAMILY:
                inert[msg] = gid_frozen
            else:
                inert[msg] = False
        self._inert = inert
        return inert

    def _sort_key(self, msg: Msg) -> str:
        key = self._sort_keys.get(msg)
        if key is None:
            key = repr(msg.key)
            self._sort_keys[msg] = key
        return key

    def _ample(self, config: Configuration) -> Optional[List[Tuple[str, Configuration]]]:
        pending = sorted(config.messages(), key=self._sort_key)
        if len(pending) < 2:
            return None
        inert = self._inert
        if inert is None:
            # Lazily classify from the first multi-message state the
            # search expands — that is the initial configuration, whose
            # pending set covers every reachable state's.
            inert = self._classify_inert(config)
        for msg in pending:
            if not inert.get(msg, False):
                continue
            # Forever-inert message: its transitions are the ample set.
            # Defense in depth — verify the pure-consume invariant holds
            # at *this* state before relying on it; fall through to the
            # footprint path on any mismatch (costs reduction, never
            # soundness).
            transitions = []
            expected = None
            still_pure = True
            for rule in self._rules_by_name.get(msg.name, ()):
                for result in rule.rewrites_for_message(config, msg):
                    if expected is None:
                        expected = config.consume(msg)
                    if result != expected:
                        still_pure = False
                        break
                    transitions.append((rule.label, result))
                if not still_pure:
                    break
            if still_pure and transitions:
                self.stats.ample_states += 1
                self.stats.por_pruned += len(pending) - 1
                return transitions
        for msg in pending:
            fp = MESSAGE_FOOTPRINTS.get(msg.name)
            if fp is None:
                continue
            # Visible messages (their writes reach what the goal reads)
            # can flip the goal and must never be deferred — nor lead an
            # ample set, since deferral happens to everything else.
            if fp.writes & self.goal_reads:
                continue
            compatible = True
            for other in pending:
                if other is msg:
                    # Further occurrences of the same message (repeat >= 2)
                    # need no self-independence: a persistent set only has
                    # to commute with *non-ample* actions, and consuming
                    # another instance of this very message IS the ample
                    # action — any path that executes it has already taken
                    # an ample transition.
                    continue
                other_fp = MESSAGE_FOOTPRINTS.get(other.name)
                if other_fp is None or not fp.independent(other_fp):
                    compatible = False
                    break
            if not compatible:
                continue
            transitions: List[Tuple[str, Configuration]] = []
            for rule in self._rules_by_name.get(msg.name, ()):
                for result in rule.rewrites_for_message(config, msg):
                    transitions.append((rule.label, result))
            if transitions:
                self.stats.ample_states += 1
                self.stats.por_pruned += len(pending) - 1
                return transitions
        return None


def build_reducer(
    initial: Configuration,
    goal,
    system: ObjectSystem,
    budget: SearchBudget,
) -> Optional[RosaReducer]:
    """A reducer for this query, or None when reduction cannot apply.

    Reduction is declined (returning None, the caller falls back to the
    unreduced search) when:

    * the goal carries no :class:`GoalFootprint` — visibility and
      pinning would be guesses;
    * the rule system is not the stock UNIX module (the schemas and
      footprints here describe exactly those rules);
    * the initial configuration holds a message or object class outside
      the schema — an unmarked id occurrence would break renaming.

    ``budget.max_depth`` does not decline the reducer but switches
    partial-order reduction off: a partial-order-reduced witness can be
    *longer* than the shortest one (deferred messages commute to after
    the ample message), so depth-bounded verdicts could differ.
    Symmetry stays on — isomorphic states sit at the same depths, so
    merging them never changes a depth-bounded verdict.
    """
    goal_fp = getattr(goal, "footprint", None)
    if not isinstance(goal_fp, GoalFootprint):
        return None
    from repro.rosa.keys import system_signature  # keys -> query -> this module

    if system_signature(system) != system_signature():
        return None
    for name in initial.message_names():
        if name not in MESSAGE_ARG_DOMAINS or name not in MESSAGE_FOOTPRINTS:
            return None
    for obj in initial.objects():
        if obj.cls not in CLASS_SCHEMAS:
            return None
    # Distinguished ids: everything the goal or a concrete message
    # argument names.  All other ids — including ids of initial objects
    # nothing refers to, like the User/Group objects bounding wildcard
    # domains — are anonymous and fair game for renaming (rules compare
    # them only for equality, so renamed states are bisimilar).  Message
    # arguments never grow during search (no rule creates messages), so
    # the pinned sets computed here stay complete for every reachable
    # state.
    pinned_oids = set(goal_fp.oids)
    pinned_uids = set(goal_fp.uids)
    pinned_gids = set(goal_fp.gids)
    by_domain = {OID: pinned_oids, UID: pinned_uids, GID: pinned_gids}
    for msg in initial.messages():
        for value, domain in zip(msg.args, MESSAGE_ARG_DOMAINS[msg.name]):
            if domain is not None and isinstance(value, int) and value >= 0:
                by_domain[domain].add(value)
    pinned = {
        OID: frozenset(pinned_oids),
        UID: frozenset(pinned_uids),
        GID: frozenset(pinned_gids),
    }
    por = budget.max_depth is None
    return RosaReducer(system, goal_fp, pinned, por, initial=initial)

