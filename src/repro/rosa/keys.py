"""Canonical ROSA query keys: what makes two questions the same question.

:func:`query_cache_key` derives a deterministic content hash for one
(query, budget) pair from the initial configuration's canonical
(AC-equality) key, the goal identity, the rule-system signature and the
budget.  A :class:`~repro.rosa.query.DeferredQuery` (an attack query
not yet built) is keyed by its builder's inputs instead, so a served
question never builds its configuration.  Two queries share a key only
when the bounded search is guaranteed to answer them identically, so the key
addresses both the engine's in-memory L1 and the fleet-wide attested
store (:mod:`repro.rosa.store`).  Queries whose identity cannot be
derived stably (a goal whose identity embeds an object address, a rule
system without readable source) get no key and always search.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import re
import weakref
from typing import Any, Hashable, List, Optional, Tuple, Union

from repro.rewriting import ObjectSystem, SearchBudget
from repro.rosa.query import DEFAULT_BUDGET, DeferredQuery, RosaQuery, unix_system

#: Bump when the cache entry format or the key derivation changes;
#: persisted entries with another version are never found (the version is
#: key material), so they are recomputed, not misread.
#: Version 2: the reduction flag joined the key material and cached
#: outcomes grew the reduction counters.
#: Version 3: lazy canonicalization and working partial-order reduction
#: changed the cost counters cached entries carry (symmetry_hits /
#: por_pruned semantics), and the engine now downgrades tiny searches
#: to the raw space, so reduction=True entries for them hold raw counts.
#: Version 4: keys hash per-element digests (memoized across queries)
#: instead of re-``repr``-ing the whole configuration key per query —
#: same determinism guarantees, different bytes under the hash.
#: Version 5: the rule-system signature is a digest of the model's source
#: code and the rules' parameters, not their class names and labels.
#: Version 6: state-space reduction is gone, so the reduction flag left
#: the key material and cached outcomes lost the reduction counters.
#: Version 7: the engine proves queries INVULNERABLE before searching, so
#: cached outcomes grew ``proved`` and a proved key holds zero states.
#: Version 8: attack queries are keyed by their builder's inputs
#: (:class:`~repro.rosa.query.DeferredQuery`), not their built
#: configuration.
CACHE_SCHEMA_VERSION = 8

#: The modules whose source defines what a stored answer holds: the
#: syscall rules and the constants, object model, capabilities and
#: permission checks they consult; the goal predicates; the rewriting
#: objects, the search that decides the verdict, witness path and
#: ``states_explored``; and the abstract pre-check, whose proofs are
#: published verdicts too.  Editing any of them changes every system
#: signature.
MODEL_MODULES = (
    "repro.rosa.rules",
    "repro.rosa.syscalls",
    "repro.rosa.model",
    "repro.rosa.permissions",
    "repro.caps.capability",
    "repro.rosa.goals",
    "repro.rosa.prove",
    "repro.rewriting.objects",
    "repro.rewriting.search",
)

#: A ``repr`` that embeds an object address (``<function f at 0x7f…>``)
#: names one object in one process: it cannot identify a query.
_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def goal_identity(goal) -> Optional[Hashable]:
    """A deterministic, structural identity for a goal predicate.

    Goals are closures (see :mod:`repro.rosa.goals`); two goals built by
    the same factory with the same arguments are the same predicate, so
    the identity is the function's qualified name plus the canonical
    description of every closed-over value, recursively (``any_of`` /
    ``all_of`` close over tuples of goals).  Queries may short-circuit
    this with :attr:`RosaQuery.goal_key`.

    ``None`` when the description would embed an object address (a
    closed-over value whose ``repr`` is not structural): such a goal has
    no identity that outlives the object, so its queries are uncacheable.
    """
    identity = _describe_value(goal)
    return None if _ADDRESS.search(repr(identity)) else identity


def _describe_value(value) -> Hashable:
    if callable(value) and hasattr(value, "__qualname__"):
        closure = getattr(value, "__closure__", None) or ()
        return (
            getattr(value, "__module__", ""),
            value.__qualname__,
            tuple(_describe_value(cell.cell_contents) for cell in closure),
        )
    if isinstance(value, (tuple, list)):
        return ("seq",) + tuple(_describe_value(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return ("set",) + tuple(sorted(repr(item) for item in value))
    if isinstance(value, dict):
        return ("map",) + tuple(
            sorted((repr(k), _describe_value(v)) for k, v in value.items())
        )
    return repr(value)


def budget_identity(budget: SearchBudget) -> Tuple:
    return (budget.max_states, budget.max_depth, budget.max_seconds)


@functools.lru_cache(maxsize=131072)
def _element_digest(element_key: Hashable) -> bytes:
    """The sha256 digest of one element's canonical key, memoized.

    Configurations across a batch (and across batches — phases repeat
    the same users, files and capability sets endlessly) share most of
    their elements, but every query used to pay a full ``repr`` of its
    whole nested key.  Memoizing per *element key* makes the expensive
    ``repr`` a once-per-distinct-element cost fleet-wide; equal element
    keys hash to the same digest regardless of object identity, so the
    derived query key is exactly as deterministic as before.
    """
    return hashlib.sha256(repr(element_key).encode("utf-8")).digest()


def _config_digest(config) -> bytes:
    """A content digest of a configuration's canonical (AC-equality) key.

    Combines the memoized per-element digests in the key's sorted order;
    counts are length-prefixed into the stream so ``(a, 2)`` can never
    collide with ``(a, 1), (a, 1)``-style re-bracketings.
    """
    hasher = hashlib.sha256()
    for element, count in config.key:
        hasher.update(_element_digest(element))
        hasher.update(b"#%d;" % count)
    return hasher.digest()


def _source_digest(module_name: str) -> Optional[str]:
    """sha256 of a module's source file; ``None`` if it has none."""
    path = getattr(importlib.import_module(module_name), "__file__", None)
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except (OSError, TypeError):
        return None


#: Per class object, so reloading an edited module (new classes) re-reads
#: its file while the stock rules' module is read once per process.
_class_source = functools.lru_cache(maxsize=256)(
    lambda cls: _source_digest(cls.__module__)
)
_model_source = functools.lru_cache(maxsize=1)(
    lambda: tuple(_source_digest(name) for name in MODEL_MODULES)
)
#: The source digest of a query builder's module (a
#: :class:`~repro.rosa.query.DeferredQuery`'s inputs carry it), read on
#: first use and once per process.
builder_source = functools.lru_cache(maxsize=16)(
    lambda module_name: _source_digest(module_name)
)

#: Instance attributes of a system that the signature covers otherwise
#: (``name``, ``rules``) or that cannot change a verdict.
_SYSTEM_FIELDS = frozenset({"name", "rules", "indexed", "_triggers"})

#: System signatures by system instance (see :func:`system_signature`).
_SIGNATURES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _describe_system(system: ObjectSystem) -> Optional[str]:
    """The hex digest :func:`system_signature` memoizes, or ``None``."""
    material: List[Any] = [_model_source(), system.name]
    digests: List[Optional[str]] = []  # None marks an unstable identity
    for part in (system, *system.rules):
        cls = type(part)
        skip = _SYSTEM_FIELDS if part is system else ()
        attributes = []
        for name, value in sorted(getattr(part, "__dict__", {}).items()):
            if isinstance(value, ObjectSystem):
                value = system_signature(value)
                digests.append(value)
            if name not in skip:
                attributes.append((name, repr(value)))
        digests.append(_class_source(cls))
        label = getattr(part, "label", None)
        material.append((cls.__module__, cls.__qualname__, digests[-1], label, attributes))
    text = repr(material)
    if None in digests or _ADDRESS.search(text):
        return None
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def system_signature(system: Optional[ObjectSystem] = None) -> Optional[str]:
    """The rule-system signature that keys and store entries bind to.

    A hex digest over what a verdict depends on: the source of the model
    modules (:data:`MODEL_MODULES`); the system's name, class, defining
    module source and other attributes (a CFI system's syscall order);
    and each rule's class, defining module source, label and instance
    attributes.  An edited rule body changes it even when the label
    stays.  ``None`` means no stable identity (a class without a source
    file, a ``repr`` with an object address): the queries are uncacheable.
    Computed once per system instance; ``None`` is the default UNIX
    module, whose one shared instance is described once per process.
    """
    system = system or unix_system()
    try:
        return _SIGNATURES[system]
    except KeyError:
        signature = _SIGNATURES[system] = _describe_system(system)
        return signature


def query_cache_key(
    query: Union[RosaQuery, DeferredQuery],
    budget: SearchBudget = DEFAULT_BUDGET,
) -> Optional[str]:
    """The canonical content-hash key of one (query, budget) pair.

    Derived from the initial configuration's canonical (AC-equality) key,
    the goal identity, the rule-system signature and the budget — every
    input that determines the search's verdict and its cost counters.
    A :class:`~repro.rosa.query.DeferredQuery` is keyed by its builder's
    source digest and inputs, the UNIX system's signature and the budget
    instead, without building it; its keys live apart from built
    queries' keys.
    The hash is stable across processes and interpreter runs (no
    ``hash()`` involvement), so it keys the fleet-wide
    :class:`~repro.rosa.store.SharedVerdictStore` too.

    ``None`` when the goal, the deferred source or inputs, or the rule
    system have no stable identity (see :func:`goal_identity`,
    :func:`system_signature`): the query is then answered by a live
    search and never cached or published.
    """
    if isinstance(query, DeferredQuery):
        return _inputs_key(query, budget)
    goal = query.goal_key if query.goal_key is not None else goal_identity(query.goal)
    signature = system_signature(query.system)
    if goal is None or signature is None:
        return None
    tail = (
        "rosa-query",
        CACHE_SCHEMA_VERSION,
        goal,
        budget_identity(budget),
    )
    hasher = hashlib.sha256()
    hasher.update(_config_digest(query.initial))
    hasher.update(signature.encode("ascii"))
    hasher.update(repr(tail).encode("utf-8"))
    return hasher.hexdigest()


def _inputs_key(query: DeferredQuery, budget: SearchBudget) -> Optional[str]:
    """The key of a deferred query: its builder's inputs, not its build.

    ``None`` when the builder's source digest is missing: the inputs
    alone would then ignore every edit to the builder.
    """
    signature = system_signature()
    text = repr((
        "rosa-inputs",
        CACHE_SCHEMA_VERSION,
        query.source,
        query.inputs,
        budget_identity(budget),
    ))
    if query.source is None or signature is None or _ADDRESS.search(text):
        return None
    hasher = hashlib.sha256(signature.encode("ascii"))
    hasher.update(text.encode("utf-8"))
    return hasher.hexdigest()
