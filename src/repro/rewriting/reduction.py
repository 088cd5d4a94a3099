"""State-space reduction for bounded search: symmetry + partial order.

Two classic model-checking reductions, shaped for the object/message
configurations of :mod:`repro.rewriting.objects`:

* **Symmetry reduction** — :func:`canonical_key` computes a canonical
  visited-set key that is invariant under bijective renaming of the
  *anonymous* (non-distinguished) identifiers of a state.  Two states
  receive the same canonical key only when one is a renaming of the
  other, so merging them in the visited set is exact: the key itself
  encodes a renaming, false merges are impossible by construction, and
  an imperfect canonicalization can only *miss* a merge (sound, just
  less reduction).  Canonicalization is *lazy*: states are keyed by a
  :class:`LazyCanonicalKey` whose hash is the O(state) rename-invariant
  :func:`blind_signature`, and the colour-refinement body is computed
  only when the visited set sees a hash collision — the common
  no-collision case never pays for refinement at all.

* **Partial-order reduction** — :class:`Footprint` declares, per
  transition kind, the resource tokens it reads and writes; two kinds
  are :meth:`independent <Footprint.independent>` when neither writes a
  token the other touches.  A domain layer (see
  :mod:`repro.rosa.independence`) uses this relation to pick *ample*
  successor sets: when one pending message commutes with every other
  pending message and cannot affect the goal, only its transitions need
  exploring from that state.

The algorithms here are domain-agnostic: callers describe each element
of a state as a *typed key* — the element's canonical key with every
identifier occurrence wrapped by :func:`typed_id` (and identifier sets
by :func:`typed_fset`) — plus which identifier values are pinned.
Everything identifier-shaped that is not pinned is fair game for
renaming.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional, Sequence, Tuple

#: Cap on the permutation candidates enumerated to break refinement
#: ties.  Tie classes whose joint assignment count exceeds the cap are
#: pinned instead (their members keep their raw values) — a sound
#: fallback that trades missed merges for bounded canonicalization cost.
TIE_CAP = 24


class _Sentinel:
    """An interned marker with a stable repr (used inside typed keys)."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: Head of a typed identifier occurrence: ``(ID, domain, value)``.
ID = _Sentinel("<id>")
#: Head of a typed identifier set: ``(FSET, child, child, ...)``.
FSET = _Sentinel("<fset>")
#: Stand-in for the identifier currently being refined, inside its own
#: occurrence contexts (distinguishes "me" from "someone of my colour").
SELF = _Sentinel("<self>")


def typed_id(domain: str, value) -> Tuple:
    """Mark one identifier occurrence of ``domain`` inside a typed key."""
    return (ID, domain, value)


def typed_fset(values) -> Tuple:
    """Mark an unordered collection of typed values inside a typed key.

    The children are kept in a deterministic order here and re-sorted
    after renaming (renaming changes the sort order of the members).
    """
    return (FSET,) + tuple(sorted(values, key=repr))


@dataclasses.dataclass
class ReductionStats:
    """Counters a reduction layer accumulates across one search."""

    #: Successor states merged with an already-visited isomorphic state
    #: (same canonical key, different raw configuration).
    symmetry_hits: int = 0
    #: Pending messages deferred at states where an ample subset was
    #: selected (each deferred message's interleavings are pruned).
    por_pruned: int = 0
    #: States whose full colour-refinement canonical form was actually
    #: computed — under lazy canonicalization only blind-hash collisions
    #: pay this, so the counter is the slow path's cost figure.
    canonicalized: int = 0
    #: States where partial-order reduction selected an ample subset.
    ample_states: int = 0


@dataclasses.dataclass(frozen=True)
class Footprint:
    """The resource tokens one transition kind reads and writes.

    Tokens are opaque hashable labels (strings in practice) naming the
    state the transition's *enabledness and effect* depend on.  The
    declared footprint must over-approximate the real one — a missing
    token makes partial-order reduction unsound, a spurious token only
    costs reduction.
    """

    reads: FrozenSet[str]
    writes: FrozenSet[str]

    def independent(self, other: "Footprint") -> bool:
        """True when the two kinds commute: neither writes what the other touches."""
        if self.writes & other.writes:
            return False
        if self.writes & other.reads:
            return False
        if self.reads & other.writes:
            return False
        return True


def footprint(reads=(), writes=()) -> Footprint:
    return Footprint(reads=frozenset(reads), writes=frozenset(writes))


# -- symmetry canonicalization -------------------------------------------------


def _collect_ids(node, out: set) -> None:
    if type(node) is tuple and node:
        head = node[0]
        if head is ID:
            out.add((node[1], node[2]))
            return
        for child in node[1:] if head is FSET else node:
            _collect_ids(child, out)


def _resolve(node, rename: Mapping, self_id=None):
    """Substitute identifier occurrences; rebuild frozenset nodes sorted."""
    if type(node) is tuple and node:
        head = node[0]
        if head is ID:
            ident = (node[1], node[2])
            if ident == self_id:
                return SELF
            mapped = rename.get(ident)
            return node[2] if mapped is None else mapped
        if head is FSET:
            resolved = [_resolve(child, rename, self_id) for child in node[1:]]
            return ("frozenset",) + tuple(sorted(resolved, key=repr))
        return tuple(_resolve(child, rename, self_id) for child in node)
    return node


#: First canonical label handed out; labels descend from here so they can
#: never collide with real identifiers (uids/gids/oids are non-negative,
#: and the wildcard sentinel is -1).
_LABEL_BASE = -1000


_MASK64 = 0xFFFFFFFFFFFFFFFF


def _spread(value: int) -> int:
    """``value`` scattered over 64 bits (the splitmix64 finalizer).

    :func:`blind_signature` sums per-element and per-id terms, and sums
    of structured hashes collide systematically: tuple hashes of small
    or address-like integers are close to additive, which made the
    collisions of ``hash((id(tkey), count))`` terms depend on where the
    allocator put each key, and of ``hash((7, profile))`` terms on the
    string-hash seed.  Spread terms sum without that structure.
    """
    z = ((value + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _memo_entry(memo: Dict, tkey, pinned: Mapping[str, FrozenSet]) -> Tuple:
    """The shared per-typed-key memo record: (tkey, anonymous ids, cache,
    stable hash).

    Typed keys are interned by the caller (one instance per distinct
    element), so ``id(tkey)`` is a stable identity within one memo's
    lifetime; the entry keeps the key alive, which makes that safe.  The
    stable hash stands for the element in :func:`blind_signature`: its
    first-seen index in the memo, spread over 64 bits, so it does not
    depend on object addresses.
    """
    entry = memo.get(id(tkey))
    if entry is None:
        found: set = set()
        _collect_ids(tkey, found)
        empty: FrozenSet = frozenset()
        anon_here = tuple(
            sorted(
                ident
                for ident in found
                if ident[1] not in pinned.get(ident[0], empty)
            )
        )
        entry = (tkey, anon_here, {}, _spread(len(memo)))
        memo[id(tkey)] = entry
    return entry


def blind_signature(
    typed_elements: Sequence[Tuple[Hashable, int]],
    pinned: Mapping[str, FrozenSet],
    memo: Dict,
) -> Tuple[int, bool]:
    """O(state) rename-invariant hash of a state: ``(hash, has_anon)``.

    Every anonymous identifier occurrence is *blinded* — replaced by a
    fixed per-domain marker — so any per-domain bijective renaming of
    the anonymous ids leaves each element's blinded form, and therefore
    the multiset hash, unchanged: isomorphic states always collide.
    Blinding conflates distinct ids, so non-isomorphic states may
    collide too; the hash is a grouping key only, never an equality —
    callers must confirm candidate merges with :func:`canonical_key`.

    Blinding alone is too coarse in practice — states that differ only
    in *which* element an anonymous id links to (a process whose euid
    matches the file owner's uid versus one whose euid does not) blind
    to the same element multiset.  The signature therefore also folds in
    one round of colour refinement: each anonymous id's *occurrence
    profile*, the multiset of blinded elements it appears in.  Profiles
    are combined as an unordered multiset (ids carry no order), so the
    result stays rename-invariant while separating the linkage patterns
    that dominate wildcard-expansion siblings.

    Per-element blinded reprs are cached in ``memo`` (cache key ``0``,
    disjoint from :func:`canonical_key`'s per-colouring keys), so after
    warm-up the cost per state is dict probes and integer hashing.  The
    combines are plain 64-bit sums: commutative, so neither element nor
    id order matters.  An element enters the sum as its stable value
    (blinded hash, or the memo entry's spread index) times its count,
    so two states' element terms collide only when they hold the same
    values with the same counts, barring a 2**-64 accident; each id's
    profile enters spread (see :func:`_spread`).  The collisions, and so
    how many states pay for a canonical body, are then the same on
    every run, whatever the string-hash seed or object addresses.
    """
    total = 0
    has_anon = False
    profiles: Dict[Tuple, List[Tuple[int, int]]] = {}
    for tkey, count in typed_elements:
        entry = _memo_entry(memo, tkey, pinned)
        anon_here = entry[1]
        if anon_here:
            has_anon = True
            cache = entry[2]
            blinded = cache.get(0)
            if blinded is None:
                markers = {ident: ("?", ident[0]) for ident in anon_here}
                blinded = hash(repr(_resolve(tkey, markers)))
                cache[0] = blinded
            total += blinded * count
            for ident in anon_here:
                profiles.setdefault(ident, []).append((blinded, count))
        else:
            total += entry[3] * count
    for profile in profiles.values():
        profile.sort()
        total += _spread(hash(tuple(profile)))
    return total & _MASK64, has_anon


class LazyCanonicalKey:
    """A visited-set key that defers colour refinement to hash collisions.

    Hashing uses the O(state) blinded signature (rename-invariant, see
    :func:`blind_signature`); the expensive canonical *body* is computed
    by ``resolve_body`` only when the hosting set actually probes
    equality — i.e. when two states share a blinded hash — and is
    memoized per key.  Soundness mirrors the eager scheme exactly:

    * isomorphic states have equal blinded hashes, so the set always
      compares them and equality falls through to equal bodies — no
      merge is ever missed relative to eager canonical keys;
    * equality is *decided* by the bodies (or raw-configuration
      equality, which implies equal bodies), so a blind-hash collision
      between non-isomorphic states never merges them;
    * bodies-equal is transitive, so set semantics stay consistent.
    """

    __slots__ = ("config", "_blind", "_resolve_body", "_body")

    def __init__(self, config, blind_hash: int, resolve_body) -> None:
        self.config = config
        self._blind = blind_hash
        self._resolve_body = resolve_body
        self._body = None

    def body(self) -> Tuple:
        body = self._body
        if body is None:
            body = self._body = self._resolve_body(self.config)
            self._resolve_body = None  # the closure is no longer needed
        return body

    def __hash__(self) -> int:
        return self._blind

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if other.__class__ is not LazyCanonicalKey:
            return NotImplemented
        # Equal raw configurations are trivially isomorphic; the check is
        # O(1) on the incremental hash for the (common) negative case.
        if self.config == other.config:
            return True
        return self.body() == other.body()

    def __repr__(self) -> str:
        state = "resolved" if self._body is not None else "blind"
        return f"<lazy-key {self._blind:#x} {state}>"


def canonical_key(
    typed_elements: Sequence[Tuple[Hashable, int]],
    pinned: Mapping[str, FrozenSet],
    tie_cap: int = TIE_CAP,
    memo: Optional[Dict] = None,
) -> Optional[Tuple]:
    """Canonical rename-invariant key of a state, or None for the fast path.

    ``typed_elements`` is the state as ``(typed_key, count)`` pairs;
    ``pinned`` maps each identifier domain to the values that must keep
    their identity (goal-referenced ids, initially-present ids, ...).
    Identifier occurrences outside the pinned sets are *anonymous* and
    are renamed to canonical labels via colour refinement; refinement
    ties are broken exactly by bounded permutation enumeration, or
    pinned when the candidate count exceeds ``tie_cap``.

    ``memo``, when provided, must be a dict owned by one caller using
    one fixed ``pinned`` mapping.  Typed keys are shared across the many
    states of one search (elements are interned), so per-element work —
    id collection, and resolution under a given colouring or renaming —
    is cached there keyed by ``id(typed_key)`` and the *slice* of the
    colouring/renaming that touches the element.  The memo keeps every
    typed key it has seen alive, which is what makes ``id()`` keys safe.

    Returns ``None`` when the state holds no anonymous identifiers — the
    caller should then key the state by itself (states with and without
    anonymous ids can never be isomorphic to each other, so mixing the
    two key kinds in one visited set is safe).
    """
    if memo is None:
        memo = {}
    # Per element: (typed key, count, anonymous ids sorted, per-element cache).
    elements: List[Tuple[Hashable, int, Tuple, Dict]] = []
    seen: Dict[Tuple, None] = {}
    for tkey, count in typed_elements:
        entry = _memo_entry(memo, tkey, pinned)
        elements.append((entry[0], count, entry[1], entry[2]))
        for ident in entry[1]:
            seen.setdefault(ident, None)
    anon = list(seen)
    if not anon:
        return None

    # Colour refinement: an id's colour is determined by the multiset of
    # element contexts it occurs in, with other anonymous ids replaced by
    # their current colour and its own occurrences marked SELF.  Iterate
    # until the partition stops splitting or becomes discrete.
    colors: Dict[Tuple, Hashable] = {ident: ("d", ident[0]) for ident in anon}
    num_classes = len(set(colors.values()))
    for _ in range(len(anon)):
        if num_classes == len(anon):
            break  # discrete partition: nothing left to split
        signatures: Dict[Tuple, Tuple] = {}
        for ident in anon:
            contexts = []
            for tkey, count, ids, cache in elements:
                if ident not in ids:
                    continue
                ckey = (1, ident, tuple(colors[other] for other in ids))
                resolved = cache.get(ckey)
                if resolved is None:
                    resolved = repr(_resolve(tkey, colors, ident))
                    cache[ckey] = resolved
                contexts.append((resolved, count))
            contexts.sort()
            signatures[ident] = (ident[0], tuple(contexts))
        ordered = sorted(set(signatures.values()))
        index = {signature: position for position, signature in enumerate(ordered)}
        colors = {
            ident: ("c", ident[0], index[signatures[ident]]) for ident in anon
        }
        if len(ordered) == num_classes:
            break
        num_classes = len(ordered)

    # Deterministic label assignment per colour class.
    classes: Dict[Hashable, List[Tuple]] = {}
    for ident in anon:
        classes.setdefault(colors[ident], []).append(ident)
    rename: Dict[Tuple, int] = {}
    ties: List[Tuple[List[Tuple], List[int]]] = []
    label = _LABEL_BASE
    for color in sorted(classes):
        members = sorted(classes[color])
        if len(members) == 1:
            rename[members[0]] = label
            label -= 1
        else:
            slots = [label - offset for offset in range(len(members))]
            label -= len(members)
            ties.append((members, slots))

    if ties:
        candidates = 1
        for members, _slots in ties:
            candidates *= math.factorial(len(members))
        if candidates > tie_cap:
            # Sound fallback: members of oversized tie classes keep their
            # raw identity (missed merges only, never a wrong merge).
            ties = []

    def body_for(rename: Dict[Tuple, int]) -> Tuple[Tuple, str]:
        parts = []
        for tkey, count, ids, cache in elements:
            bkey = (2, tuple(rename.get(ident) for ident in ids)) if ids else 2
            part = cache.get(bkey)
            if part is None:
                resolved = _resolve(tkey, rename)
                part = (repr(resolved), resolved)
                cache[bkey] = part
            parts.append((part[0], part[1], count))
        parts.sort()
        body = tuple((resolved, count) for _r, resolved, count in parts)
        return body, repr([(r, count) for r, _resolved, count in parts])

    if not ties:
        body, _ = body_for(rename)
        return ("sym",) + body

    # Exact tie-breaking: enumerate every joint assignment of the tied
    # ids to their class's labels and keep the lexicographically least
    # renamed key.  Equal keys across isomorphic states follow because
    # both sides minimise over the same candidate set.
    best = None
    best_repr = ""
    for assignment in itertools.product(
        *(itertools.permutations(slots) for _members, slots in ties)
    ):
        candidate_rename = dict(rename)
        for (members, _slots), labels in zip(ties, assignment):
            for ident, value in zip(members, labels):
                candidate_rename[ident] = value
        body, body_repr = body_for(candidate_rename)
        if best is None or body_repr < best_repr:
            best = body
            best_repr = body_repr
    return ("sym",) + best
