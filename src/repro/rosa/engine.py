"""The ROSA query engine: canonical keys, result caching, batch scheduling.

The pipeline asks ROSA one bounded-model-checking question per
(ChronoPriv phase × attack) pair, and the multi-process study repeats
the same questions across processes and attacks.  Distinct phases very
often share their (privileges, uids, gids, syscall-surface) tuple — the
paper's Table III rows collapse to a handful of distinct credential
states — so the searches are heavily redundant.  This module makes that
redundancy free:

* :func:`query_cache_key` derives a deterministic **canonical key** for a
  query from its initial configuration's canonical key, its goal
  identity, the rule system and the search budget;
* :class:`QueryCache` memoizes verdicts by canonical key — an in-memory
  LRU (L1), so repeated questions are answered in O(1) instead of
  re-running the BFS; persistence across processes is the attested
  :class:`~repro.rosa.store.SharedVerdictStore` (L2);
* :class:`QueryEngine` is the batch front end: :meth:`QueryEngine.check`
  is a cache-aware drop-in for :func:`repro.rosa.query.check`, and
  :meth:`QueryEngine.run_queries` dedupes a batch by canonical key and
  fans the distinct searches out over ``concurrent.futures`` (a process
  pool for paper-scale budgets, threads or serial execution otherwise).

Caching never changes a verdict: two queries share a cache entry only
when their initial configurations are AC-equal, their goals are
structurally identical, the rule system matches and the budget matches —
exactly the conditions under which the bounded search is deterministic.
Queries whose identity cannot be derived stably (a goal whose identity
embeds an object address, a rule system without readable source) get no
key and always search; wall-clock ``TIMEOUT`` verdicts are never cached.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import hashlib
import importlib
import logging
import os
import re
import threading
import weakref
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.rewriting import (
    ObjectSystem,
    PROGRESS_INTERVAL,
    ProgressSample,
    SearchBudget,
    SearchStats,
)
from repro.rosa.independence import REDUCTION_MIN_SPACE, estimated_space
from repro.rosa.query import (
    DEFAULT_BUDGET,
    RosaQuery,
    RosaReport,
    Verdict,
    check,
    unix_system,
)
from repro.telemetry.capsule import (
    CAPSULE_SCHEMA_VERSION,
    CapsuleCollector,
    CapsuleRequest,
    merge_capsule,
    normalize_worker,
)
from repro.telemetry.profiler import NULL_PROFILER
from repro.telemetry.tracing import NULL_TRACER

logger = logging.getLogger("repro.rosa.engine")

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
CACHE_SCHEMA_VERSION = 5

#: The modules whose source defines what a stored answer holds: the
#: syscall rules and the constants, object model, capabilities and
#: permission checks they consult; the goal predicates; the rewriting
#: objects, the search that decides the verdict, witness path and
#: ``states_explored``; and the reductions that decide which states are
#: equal.  Editing any of them changes every system signature.
MODEL_MODULES = (
    "repro.rosa.rules",
    "repro.rosa.syscalls",
    "repro.rosa.model",
    "repro.rosa.permissions",
    "repro.caps.capability",
    "repro.rosa.goals",
    "repro.rosa.independence",
    "repro.rewriting.objects",
    "repro.rewriting.search",
    "repro.rewriting.reduction",
)

#: A ``repr`` that embeds an object address (``<function f at 0x7f…>``)
#: names one object in one process: it cannot identify a query.
_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


# -- canonical query keys -----------------------------------------------------


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
    query: RosaQuery,
    budget: SearchBudget = DEFAULT_BUDGET,
    reduction: bool = True,
) -> Optional[str]:
    """The canonical content-hash key of one (query, budget) pair.

    Derived from the initial configuration's canonical (AC-equality) key,
    the goal identity, the rule-system signature, the budget and the
    reduction flag — every input that determines the search's verdict
    *and its cost counters* (reduction never changes the verdict, but
    sharing entries across the flag would report the wrong state counts).
    The hash is stable across processes and interpreter runs (no
    ``hash()`` involvement), so it keys the fleet-wide
    :class:`~repro.rosa.store.SharedVerdictStore` too.

    ``None`` when the goal or the rule system has no stable identity
    (see :func:`goal_identity`, :func:`system_signature`): the query is
    then answered by a live search and never cached or published.
    """
    goal = query.goal_key if query.goal_key is not None else goal_identity(query.goal)
    signature = system_signature(query.system)
    if goal is None or signature is None:
        return None
    tail = (
        "rosa-query",
        CACHE_SCHEMA_VERSION,
        goal,
        budget_identity(budget),
        bool(reduction),
    )
    hasher = hashlib.sha256()
    hasher.update(_config_digest(query.initial))
    hasher.update(signature.encode("ascii"))
    hasher.update(repr(tail).encode("utf-8"))
    return hasher.hexdigest()


# -- the result cache ---------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CachedOutcome:
    """The JSON-serialisable essence of one search result.

    Everything the pipeline's verdict grids and exposure metrics consume:
    the verdict, the witness rule labels, and the cost counters.  The
    compromised configuration itself is not persisted (it is a graph of
    live objects); cache-served reports carry ``compromised_state=None``
    unless the in-memory entry still holds the full report.
    """

    verdict: str
    witness: Tuple[str, ...]
    states_explored: int
    states_seen: int
    elapsed: float
    peak_frontier: int
    dedup_hits: int
    max_depth: int
    symmetry_hits: int = 0
    por_pruned: int = 0

    def to_json(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "CachedOutcome":
        return cls(
            verdict=str(data["verdict"]),
            witness=tuple(data.get("witness", ())),
            states_explored=int(data.get("states_explored", 0)),
            states_seen=int(data.get("states_seen", 0)),
            elapsed=float(data.get("elapsed", 0.0)),
            peak_frontier=int(data.get("peak_frontier", 0)),
            dedup_hits=int(data.get("dedup_hits", 0)),
            max_depth=int(data.get("max_depth", 0)),
            symmetry_hits=int(data.get("symmetry_hits", 0)),
            por_pruned=int(data.get("por_pruned", 0)),
        )

    @classmethod
    def from_report(cls, report: RosaReport) -> "CachedOutcome":
        return cls(
            verdict=report.verdict.value,
            witness=tuple(report.witness),
            states_explored=report.states_explored,
            states_seen=report.states_seen,
            elapsed=report.elapsed,
            peak_frontier=report.stats.peak_frontier,
            dedup_hits=report.stats.dedup_hits,
            max_depth=report.stats.max_depth,
            symmetry_hits=report.stats.symmetry_hits,
            por_pruned=report.stats.por_pruned,
        )

    def to_report(self, query: RosaQuery) -> RosaReport:
        return RosaReport(
            query=query,
            verdict=Verdict(self.verdict),
            witness=list(self.witness),
            compromised_state=None,
            states_explored=self.states_explored,
            states_seen=self.states_seen,
            elapsed=self.elapsed,
            witness_states=[],
            stats=SearchStats(
                peak_frontier=self.peak_frontier,
                dedup_hits=self.dedup_hits,
                max_depth=self.max_depth,
                symmetry_hits=self.symmetry_hits,
                por_pruned=self.por_pruned,
            ),
            from_cache=True,
        )


@dataclasses.dataclass
class _CacheEntry:
    outcome: CachedOutcome
    #: The full report, kept for in-memory hits so witnesses'
    #: compromised states survive; absent for store-served entries.
    report: Optional[RosaReport] = None


class QueryCache:
    """An in-memory LRU (L1) of search outcomes keyed by canonical query key.

    ``capacity`` bounds the entry count (least recently used entries
    evict first).  Persistence across processes is the engine's L2
    ``store`` (:class:`~repro.rosa.store.SharedVerdictStore`), never this.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive: {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, _CacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key: str) -> Optional[_CacheEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(
        self, key: str, outcome: CachedOutcome, report: Optional[RosaReport] = None
    ) -> None:
        self._entries[key] = _CacheEntry(outcome=outcome, report=report)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


def reusable(report: RosaReport, budget: SearchBudget) -> bool:
    """Whether ``report`` may be cached or published under its key.

    A ``TIMEOUT`` that ran out of wall-clock seconds says how fast this
    host was, not what the model allows: the same key on a faster or
    idler host may well decide.  Only deterministic outcomes are reused;
    a state-budget ``TIMEOUT`` is one (the same search always stops at
    the same state).
    """
    return not (
        report.verdict is Verdict.TIMEOUT
        and budget.max_seconds is not None
        and report.elapsed > budget.max_seconds
    )


# -- batch scheduling ---------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ParallelPolicy:
    """How :meth:`QueryEngine.run_queries` executes distinct searches.

    ``mode``:

    * ``"serial"`` — run in the calling thread (full tracing fidelity);
    * ``"thread"`` — a thread pool: useful when searches block on the
      wall-clock budget, not for CPU speedup under the GIL;
    * ``"process"`` — a process pool: real CPU parallelism; requires each
      request to carry a picklable ``spec`` builder (goal closures do not
      pickle), and pays a pool-startup cost only worth it for paper-scale
      budgets;
    * ``"auto"`` (default) — ``process`` when every distinct request has
      a spec, the batch is at least ``process_batch_min``, and the budget
      reaches ``process_min_states``; otherwise serial — at this repo's
      repro-scale budgets a pool costs more than the searches themselves.
    """

    mode: str = "auto"
    max_workers: Optional[int] = None
    process_batch_min: int = 4
    process_min_states: int = 1_000_000

    def resolve(
        self, distinct: int, budget: SearchBudget, all_have_specs: bool
    ) -> str:
        if self.mode != "auto":
            return self.mode
        if (
            all_have_specs
            and distinct >= self.process_batch_min
            and budget.max_states is not None
            and budget.max_states >= self.process_min_states
        ):
            return "process"
        return "serial"


@dataclasses.dataclass
class QueryRequest:
    """One entry of a :meth:`QueryEngine.run_queries` batch.

    ``spec``, when given, is a picklable object with a ``build()`` method
    returning an equivalent :class:`RosaQuery`; it is what travels to
    process-pool workers (queries themselves hold goal closures, which do
    not pickle).  ``budget`` overrides the engine default for this query.
    """

    query: RosaQuery
    budget: Optional[SearchBudget] = None
    spec: Optional[Any] = None


def _run_spec_in_worker(
    spec,
    budget: SearchBudget,
    reduction: bool = True,
    capsule_request: Optional[CapsuleRequest] = None,
):
    """Process-pool entry point: rebuild the query, search, return the essence.

    Without a capsule request (telemetry fully disabled) the worker
    searches dark and ships the bare :class:`CachedOutcome`.  With one,
    the search runs under a private :class:`CapsuleCollector` and the
    return value is an ``(outcome, capsule)`` pair — the parent merges
    the capsule into its own collectors (see :func:`merge_capsule`).
    """
    if capsule_request is None or not capsule_request.any:
        report = check(spec.build(), budget, tracer=NULL_TRACER, reduction=reduction)
        return CachedOutcome.from_report(report)
    collector = CapsuleCollector(capsule_request)
    report = check(
        spec.build(),
        budget,
        tracer=collector.tracer,
        progress=collector.progress,
        reduction=reduction,
        profiler=collector.profiler,
    )
    collector.observe_report(report)
    return CachedOutcome.from_report(report), collector.capsule()


class QueryEngine:
    """Cache-aware, batch-scheduling front end to :func:`repro.rosa.query.check`.

    One engine holds one :class:`QueryCache`; every pipeline stage that
    shares the engine shares the memoized verdicts, so phases (and whole
    table regenerations) that repeat a (privileges, uids, gids, surface)
    combination pay for its search exactly once.
    """

    def __init__(
        self,
        budget: SearchBudget = DEFAULT_BUDGET,
        cache: Optional[QueryCache] = None,
        parallel: Optional[ParallelPolicy] = None,
        telemetry=None,
        progress=None,
        progress_interval: int = PROGRESS_INTERVAL,
        checker=None,
        reduction: bool = True,
        profiler=None,
        capsules: bool = True,
        store=None,
    ) -> None:
        from repro.telemetry import Telemetry

        self.budget = budget
        #: Optional fleet-wide L2 behind the in-memory LRU: any object
        #: with ``get(key) -> Optional[CachedOutcome]`` and
        #: ``put(key, outcome) -> bool`` (duck-typed so this module never
        #: imports :mod:`repro.rosa.store`).  L1 misses consult it before
        #: searching; fresh outcomes publish back so sibling processes
        #: hit instead of recomputing.
        self.store = store
        #: Optional :class:`repro.telemetry.Profiler`.  When live, every
        #: serial search gets per-rule/reduction-phase attribution (the
        #: ``profiler`` kwarg is forwarded to ``checker`` — only then, so
        #: custom checkers without the parameter keep working), and batch
        #: scheduling records queue-wait versus execute time per worker
        #: under the ``engine`` root.
        self.profiler = profiler
        #: Symmetry + partial-order state-space reduction for every
        #: search this engine runs (see :mod:`repro.rosa.independence`).
        #: Verdict-preserving; disable for baselines and differential
        #: runs.  Even when enabled, searches whose estimated raw space
        #: is below :data:`~repro.rosa.independence.REDUCTION_MIN_SPACE`
        #: run unreduced — see :meth:`_effective_reduction`.
        self.reduction = reduction
        #: ``None`` disables caching entirely (every check searches).
        self.cache = cache
        self.parallel = parallel or ParallelPolicy()
        self.telemetry = telemetry or Telemetry.disabled()
        #: The search implementation behind every serial check; defaults
        #: to :func:`repro.rosa.query.check`.  The conformance testkit
        #: swaps in instrumented or reference checkers here to prove the
        #: cache and the pools never change an answer (process-pool
        #: workers always run the stock checker — closures do not pickle).
        self.checker = checker or check
        #: Live-search observability: every serially executed search
        #: forwards periodic :class:`~repro.rewriting.ProgressSample`
        #: readings here.  Pool workers sample into their telemetry
        #: capsule instead (a bounded, decimated tail reattached to the
        #: report at merge time — not live).  Cache hits emit none.
        self.progress = progress
        self.progress_interval = progress_interval
        #: Fleet telemetry: with ``capsules`` on (the default), pool
        #: workers — process *and* thread mode — run their searches
        #: under private collectors and return a
        #: :class:`~repro.telemetry.capsule.TelemetryCapsule` that the
        #: engine merges back into this session's tracer / metrics /
        #: profiler / audit ring.  Collection only actually happens when
        #: some parent collector is live (see :meth:`_capsule_request`),
        #: so dark runs stay zero-overhead.
        self.capsules = capsules
        #: Raw worker name → stable integer id, session-persistent so
        #: ``worker:N`` spellings agree across batches.
        self._worker_ids: Dict[str, int] = {}
        #: Per-worker accumulated accounting (see :meth:`fleet_stats`).
        self._fleet: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._fleet_mode: Optional[str] = None

    # -- single queries --------------------------------------------------------

    def _effective_reduction(self, query: RosaQuery) -> bool:
        """The reduction flag for one query: the engine's setting,
        downgraded to a raw search when the estimated state space is too
        small to repay the reducer's setup and per-state key derivation.

        The gate lives here, not in :func:`repro.rosa.query.check`,
        because direct ``check`` calls are the measurement surface —
        baselines, differential oracles and the reduction tests need
        ``reduction=True`` to mean the reducer actually runs.  The
        downgrade is deterministic in the query, so cache entries keyed
        with the effective flag stay consistent across runs, and it is
        verdict-neutral: both searches are exhaustive over the same
        space.
        """
        return self.reduction and (
            estimated_space(query.initial) >= REDUCTION_MIN_SPACE
        )

    def check(
        self,
        query: RosaQuery,
        budget: Optional[SearchBudget] = None,
        track_states: bool = False,
    ) -> RosaReport:
        """Cache-aware ``check``: a hit skips the search entirely.

        ``track_states`` bypasses the cache (witness configurations are
        not memoized) and always searches, as does a query without a
        stable key (see :func:`query_cache_key`).
        """
        budget = budget or self.budget
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        if track_states or (self.cache is None and self.store is None):
            return self._checked(query, budget, track_states=track_states)
        reduction = self._effective_reduction(query)
        key = query_cache_key(query, budget, reduction=reduction)
        if key is None:
            return self._checked(query, budget, reduction=reduction)
        if self.cache is not None:
            entry = self.cache.get(key)
            if entry is not None:
                metrics.counter("rosa.cache.hits").inc()
                return self._served_from_cache(query, entry, tracer)
            metrics.counter("rosa.cache.misses").inc()
        outcome = self._store_get(key)
        if outcome is not None:
            if self.cache is not None:
                self.cache.put(key, outcome)
            return self._served_from_cache(
                query, _CacheEntry(outcome=outcome), tracer
            )
        try:
            report = self._checked(query, budget, reduction=reduction)
            if reusable(report, budget):
                outcome = CachedOutcome.from_report(report)
                if self.cache is not None:
                    self.cache.put(key, outcome, report)
                self._store_put(key, outcome)
        finally:
            self._store_release(key)
        return report

    def _store_get(self, key: str) -> Optional[CachedOutcome]:
        """L2 lookup with hit/miss accounting (``None`` without a store)."""
        if self.store is None:
            return None
        outcome = self.store.get(key)
        if outcome is not None:
            self.telemetry.metrics.counter("rosa.store.hits").inc()
            return outcome
        self.telemetry.metrics.counter("rosa.store.misses").inc()
        return None

    def _store_put(self, key: str, outcome: CachedOutcome) -> None:
        """Publish one fresh outcome to the L2 store (no-op without one)."""
        if self.store is None:
            return
        if self.store.put(key, outcome):
            self.telemetry.metrics.counter("rosa.store.published").inc()

    def _store_release(self, key: str) -> None:
        """Free ``key``'s single-flight slot even if nothing was published."""
        if self.store is not None:
            self.store.release(key)

    def _checked(
        self,
        query: RosaQuery,
        budget: SearchBudget,
        track_states: bool = False,
        reduction: Optional[bool] = None,
    ) -> RosaReport:
        """One live search with the engine's tracer and progress wiring.

        ``reduction`` takes the precomputed effective flag when the
        caller already derived it for key derivation — the estimate walk
        is cheap but measurable on tiny batches, so it runs once per
        query, not twice.
        """
        extra = {}
        if self.profiler is not None:
            extra["profiler"] = self.profiler
        report = self.checker(
            query,
            budget,
            track_states=track_states,
            tracer=self.telemetry.tracer,
            progress=self.progress,
            progress_interval=self.progress_interval,
            reduction=(
                self._effective_reduction(query) if reduction is None else reduction
            ),
            **extra,
        )
        metrics = self.telemetry.metrics
        if report.stats.symmetry_hits:
            metrics.counter("rosa.reduction.symmetry_hits").inc(
                report.stats.symmetry_hits
            )
        if report.stats.por_pruned:
            metrics.counter("rosa.reduction.por_pruned").inc(report.stats.por_pruned)
        return report

    def _served_from_cache(self, query: RosaQuery, entry: _CacheEntry, tracer):
        with tracer.span("rosa.query", query=query.name, cached=True) as span:
            if entry.report is not None:
                report = dataclasses.replace(
                    entry.report, query=query, from_cache=True
                )
            else:
                report = entry.outcome.to_report(query)
            span.set_attribute("verdict", report.verdict.value)
        return report

    # -- batches ---------------------------------------------------------------

    def run_queries(
        self, requests: Sequence[Union[QueryRequest, RosaQuery]]
    ) -> List[RosaReport]:
        """Answer a batch of queries; returns reports in request order.

        The batch is deduplicated by canonical key first (duplicates get
        the same search's answer re-attached to their own query), cache
        hits are served without searching, and the remaining distinct
        searches run under the engine's :class:`ParallelPolicy`.  A query
        without a stable key is its own distinct search and is never
        cached; a :func:`reusable`-failing answer is shared with its
        deduplicated siblings in this batch only.
        """
        entries = [
            request if isinstance(request, QueryRequest) else QueryRequest(request)
            for request in requests
        ]
        metrics = self.telemetry.metrics
        tracer = self.telemetry.tracer
        profiler = self.profiler if (
            self.profiler is not None and self.profiler.enabled
        ) else None
        if entries:
            metrics.counter("rosa.batch.queries").inc(len(entries))

        # Per-batch setup hoisted out of the per-query path: the effective
        # reduction flag is derived once per query (key derivation and the
        # search both need it) and the counter objects once per batch —
        # registry lookups per query were a measurable slice of the cold
        # tiny-batch tax.
        cache_hits = metrics.counter("rosa.cache.hits")
        cache_misses = metrics.counter("rosa.cache.misses")
        with (profiler or NULL_PROFILER).section("engine", "key_derivation"):
            reductions = [
                self._effective_reduction(request.query) for request in entries
            ]
            keys = [
                query_cache_key(
                    request.query, request.budget or self.budget, reduction=reduced
                )
                for request, reduced in zip(entries, reductions)
            ]
        reports: List[Optional[RosaReport]] = [None] * len(entries)

        # 1. Serve cache hits and collect the distinct misses, preserving
        #    first-occurrence order for deterministic scheduling.  A key's
        #    first L1 miss consults the shared store (once per distinct
        #    key); a store hit warms L1 so deduped siblings stay local.
        distinct: "OrderedDict[Union[str, int], List[int]]" = OrderedDict()
        for index, (request, key) in enumerate(zip(entries, keys)):
            if key is None:
                distinct[index] = [index]  # uncacheable: searched alone
                continue
            if self.cache is not None:
                lookup_start = profiler.clock() if profiler is not None else 0.0
                entry = self.cache.get(key)
                if profiler is not None:
                    profiler.account(
                        ("engine", "cache.lookup"), profiler.clock() - lookup_start
                    )
                    profiler.count(
                        ("engine", "cache.lookup"),
                        "hits" if entry is not None else "misses",
                    )
                if entry is not None:
                    cache_hits.inc()
                    reports[index] = self._served_from_cache(
                        request.query, entry, tracer
                    )
                    continue
                cache_misses.inc()
            if self.store is not None and key not in distinct:
                outcome = self._store_get(key)
                if outcome is not None:
                    if self.cache is not None:
                        self.cache.put(key, outcome)
                    reports[index] = self._served_from_cache(
                        request.query, _CacheEntry(outcome=outcome), tracer
                    )
                    continue
            distinct.setdefault(key, []).append(index)
        if distinct:
            metrics.counter("rosa.batch.unique").inc(len(distinct))

        # 2. Run each distinct search once.  Every key this batch led in
        #    the store is released afterwards, published or not.
        try:
            if distinct:
                leaders = [indices[0] for indices in distinct.values()]
                budget_for = lambda index: entries[index].budget or self.budget
                all_have_specs = all(
                    entries[index].spec is not None for index in leaders
                )
                widest = max(
                    (budget_for(index).max_states or 0 for index in leaders), default=0
                )
                mode = self.parallel.resolve(
                    len(leaders),
                    dataclasses.replace(self.budget, max_states=widest or None)
                    if widest
                    else self.budget,
                    all_have_specs,
                )
                if mode == "serial" or len(leaders) == 1:
                    if profiler is not None:
                        # Serial scheduling is one worker draining the queue:
                        # queue wait is time spent behind earlier searches.
                        batch_start = profiler.clock()
                        leader_reports = []
                        for index in leaders:
                            start = profiler.clock()
                            profiler.account(
                                ("engine", "worker:0", "queue_wait"), start - batch_start
                            )
                            leader_reports.append(
                                self._checked(
                                    entries[index].query,
                                    budget_for(index),
                                    reduction=reductions[index],
                                )
                            )
                            profiler.account(
                                ("engine", "worker:0", "execute"),
                                profiler.clock() - start,
                            )
                    else:
                        leader_reports = [
                            self._checked(
                                entries[index].query,
                                budget_for(index),
                                reduction=reductions[index],
                            )
                            for index in leaders
                        ]
                else:
                    leader_reports = self._run_parallel(
                        mode, entries, leaders, budget_for, profiler, keys, reductions
                    )
                for key_indices, report in zip(distinct.values(), leader_reports):
                    key = keys[key_indices[0]]
                    if (
                        key is not None
                        and (self.cache is not None or self.store is not None)
                        and reusable(report, budget_for(key_indices[0]))
                    ):
                        outcome = CachedOutcome.from_report(report)
                        if self.cache is not None:
                            self.cache.put(key, outcome, report)
                        self._store_put(key, outcome)
                    for position, index in enumerate(key_indices):
                        if position == 0:
                            reports[index] = report
                        else:
                            # A deduped sibling: same answer, its own query.
                            metrics.counter("rosa.batch.dedup_hits").inc()
                            reports[index] = dataclasses.replace(
                                report, query=entries[index].query
                            )
        finally:
            for key in distinct:
                if isinstance(key, str):
                    self._store_release(key)
        return [report for report in reports if report is not None]

    def _capsule_request(self, profiler) -> Optional[CapsuleRequest]:
        """What pool workers should collect, or ``None`` for nothing.

        Derived from the parent session's live collectors: no tracer →
        no span collection, and so on.  When no collector is live (the
        default dark pipeline) this returns ``None`` and workers run
        exactly the pre-capsule fast path — zero added overhead.
        """
        if not self.capsules:
            return None
        trace = self.telemetry.active
        profile = profiler is not None
        audit = self.telemetry.audit is not None
        samples = trace or self.progress is not None
        if not (trace or profile or audit or samples):
            return None
        return CapsuleRequest(
            trace=trace, profile=profile, samples=samples, audit=audit
        )

    def _record_fleet(
        self, worker, capsule, report, queue_wait: float, execute: float, mode
    ) -> None:
        """Accumulate one merged capsule into the per-worker fleet stats."""
        stats = self._fleet.get(worker)
        if stats is None:
            stats = self._fleet[worker] = {
                "tasks": 0,
                "execute_seconds": 0.0,
                "queue_wait_seconds": 0.0,
                "states_explored": 0,
                "spans": 0,
                "samples": 0,
                "profile_records": 0,
                "audit_records": 0,
                "syscalls": 0,
                "names": [],
            }
        stats["tasks"] += 1
        stats["execute_seconds"] += execute
        stats["queue_wait_seconds"] += queue_wait
        stats["states_explored"] += report.states_explored
        stats["spans"] += len(capsule.spans)
        stats["samples"] += len(capsule.samples)
        stats["profile_records"] += len(capsule.profile)
        stats["audit_records"] += len(capsule.audit_records)
        stats["syscalls"] += capsule.audit_total
        if capsule.worker not in stats["names"]:
            stats["names"].append(capsule.worker)
        self._fleet_mode = mode

    def fleet_stats(self) -> Dict[str, Any]:
        """Per-worker capsule accounting for ledgers and ``diff``.

        Empty until a pool batch has merged at least one capsule.  Keys
        are stable ``worker:N`` ids; ``names`` lists the raw worker
        identities (pool thread names, ``pid:N``) that mapped to each.
        """
        if not self._fleet:
            return {}
        return {
            "capsule_schema": CAPSULE_SCHEMA_VERSION,
            "mode": self._fleet_mode,
            "workers": {
                worker: dict(stats)
                for worker, stats in sorted(self._fleet.items())
            },
        }

    def _run_parallel(
        self,
        mode,
        entries,
        leaders,
        budget_for,
        profiler=None,
        keys=None,
        reductions=None,
    ) -> List[RosaReport]:
        """Fan distinct searches over an executor; returns leader-ordered reports.

        With capsules enabled and any parent collector live, each worker
        (process or thread) searches under a private collector set and
        its telemetry merges back here: spans adopt into the session
        tracer (clock-skew-normalized, stamped with ``worker`` +
        ``trace_id``), metrics fold in additively with per-worker labeled
        variants, profile subtrees graft under
        ``("engine", "worker:N", "execute")``, audit records re-sequence
        into the parent ring, and progress samples reattach to the
        report.  Scheduling itself is attributed per worker: queue wait
        (submit → start) versus execute (the search).
        """
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        workers = self.parallel.max_workers or min(
            len(leaders), os.cpu_count() or 1
        )
        metrics.gauge("rosa.pool.workers").set_max(workers)
        request = self._capsule_request(profiler)
        timed = profiler is not None or request is not None
        clock = profiler.clock if profiler is not None else tracer.clock

        def reduction_for(index):
            if reductions is not None:
                return reductions[index]
            return self._effective_reduction(entries[index].query)

        def request_for(index):
            # Trace-context propagation: the canonical query key is the
            # capsule's trace id, shared by every span the worker emits.
            if request is None or keys is None:
                return request
            return dataclasses.replace(request, trace_id=keys[index])

        if mode == "process":
            unbuildable = [
                index for index in leaders if entries[index].spec is None
            ]
            if unbuildable:
                raise ValueError(
                    "process-pool execution needs a picklable spec on every "
                    f"request; {len(unbuildable)} request(s) have none"
                )
            executor_cls = concurrent.futures.ProcessPoolExecutor
            submit_args = [
                (
                    _run_spec_in_worker,
                    entries[index].spec,
                    budget_for(index),
                    reduction_for(index),
                    request_for(index),
                )
                for index in leaders
            ]
        elif mode == "thread":
            executor_cls = concurrent.futures.ThreadPoolExecutor

            def run_in_thread(query, budget, reduction, capsule_request):
                # Thread workers share the parent's clock, so their
                # capsules merge with anchor=None (no skew to correct).
                # Start/end come back to the scheduling thread, which
                # does all profiler accounting — the Profiler is
                # single-threaded by design (see telemetry.profiler).
                name = threading.current_thread().name
                start = clock() if timed else 0.0
                if capsule_request is None or not capsule_request.any:
                    report = check(
                        query, budget, tracer=NULL_TRACER, reduction=reduction
                    )
                    return report, None, name, start, (clock() if timed else 0.0)
                collector = CapsuleCollector(
                    capsule_request, clock=clock, worker=name
                )
                report = check(
                    query,
                    budget,
                    tracer=collector.tracer,
                    progress=collector.progress,
                    progress_interval=self.progress_interval,
                    reduction=reduction,
                    profiler=collector.profiler,
                )
                collector.observe_report(report)
                return report, collector.capsule(), name, start, clock()

            submit_args = [
                (
                    run_in_thread,
                    entries[index].query,
                    budget_for(index),
                    reduction_for(index),
                    request_for(index),
                )
                for index in leaders
            ]
        else:  # pragma: no cover - modes are validated upstream
            raise ValueError(f"unknown parallel mode {mode!r}")
        submit_time = clock() if timed else 0.0
        done_at = [0.0] * len(leaders)
        with executor_cls(max_workers=workers) as executor:
            futures = [executor.submit(fn, *args) for fn, *args in submit_args]
            if timed and mode == "process":
                # Workers are separate processes; the scheduling thread can
                # only observe each future's submit-to-done wall time.  The
                # done timestamp is captured by callback (runs off-thread,
                # writes one float slot); it anchors capsule clock-skew
                # normalization and queue-wait attribution, both done here
                # afterwards.
                for position, future in enumerate(futures):
                    future.add_done_callback(
                        lambda _future, position=position: done_at.__setitem__(
                            position, clock()
                        )
                    )
            try:
                results = [future.result() for future in futures]
            except concurrent.futures.process.BrokenProcessPool as error:
                # A worker died (OOM kill, segfault-equivalent, SIGKILL).
                # The executor has already torn the pool down; surface a
                # diagnostic naming the batch instead of the bare broken-
                # pool error, so the caller knows which searches were in
                # flight and how to retry them.
                names = ", ".join(
                    entries[index].query.name or "?" for index in leaders
                )
                raise RuntimeError(
                    f"ROSA process-pool worker crashed while answering "
                    f"{len(leaders)} quer{'y' if len(leaders) == 1 else 'ies'} "
                    f"({names}); no results were lost silently — rerun with "
                    f"--jobs 1 (serial) to isolate the failing search"
                ) from error
        reports = []
        for position, (index, result) in enumerate(zip(leaders, results)):
            query = entries[index].query
            capsule = None
            started = ended = None
            if mode == "process":
                if isinstance(result, tuple):
                    outcome, capsule = result
                else:
                    outcome = result
                report = dataclasses.replace(
                    outcome.to_report(query), from_cache=False
                )
            else:
                report, capsule, raw_name, started, ended = result
            # Stable worker identity: capsule workers carry their raw
            # name (pid:N or pool thread name); bare thread mode uses the
            # thread name directly.  Either way the session-persistent
            # map yields worker:N ids (MainThread and friends included).
            if capsule is not None:
                worker = normalize_worker(capsule.worker, self._worker_ids)
            elif mode == "thread" and timed:
                worker = normalize_worker(raw_name, self._worker_ids)
            else:
                worker = None
            # Scheduling attribution.  Process mode can only observe
            # submit-to-done from outside; a capsule's own execute window
            # splits that into queue_wait + execute.  Thread mode has the
            # worker-side start/end directly.
            execute = queue_wait = 0.0
            if mode == "process" and timed:
                inflight = max(done_at[position] - submit_time, 0.0)
                if capsule is not None:
                    execute = min(capsule.execute_seconds, inflight)
                    queue_wait = inflight - execute
                elif profiler is not None:
                    profiler.account(
                        ("engine", "worker:pool", "inflight"), inflight
                    )
            elif mode == "thread" and timed:
                queue_wait = max(started - submit_time, 0.0)
                execute = max(ended - started, 0.0)
            if profiler is not None and worker is not None:
                profiler.account(("engine", worker, "queue_wait"), queue_wait)
                profiler.account(("engine", worker, "execute"), execute)
            merged = False
            if capsule is not None:
                anchor = (
                    done_at[position] if (mode == "process" and timed) else None
                )
                merged = merge_capsule(
                    capsule,
                    worker=worker,
                    tracer=tracer if self.telemetry.active else None,
                    metrics=metrics,
                    profiler=profiler,
                    audit=self.telemetry.audit,
                    anchor=anchor,
                )
            if merged:
                if capsule.samples and not report.stats.samples:
                    # Process-mode reports cross the pool as bare
                    # outcomes; rebuild the worker's sampled progress
                    # tail (thread reports keep their own samples).
                    report.stats.samples.extend(
                        ProgressSample(**sample) for sample in capsule.samples
                    )
                self._record_fleet(
                    worker, capsule, report, queue_wait, execute, mode
                )
            if not (merged and capsule.spans):
                # No adopted worker spans to show for this search (capsules
                # off, schema skew, or tracing disabled in the worker):
                # record the synthetic span here so batched runs stay
                # observable (verdict + cost attributes).
                with tracer.span(
                    "rosa.query", query=query.name, parallel=mode
                ) as span:
                    span.set_attribute("verdict", report.verdict.value)
                    span.set_attribute("states_seen", report.states_seen)
                    span.set_attribute("states_explored", report.states_explored)
                    span.set_attribute("peak_frontier", report.stats.peak_frontier)
            reports.append(report)
        return reports

    # -- maintenance -----------------------------------------------------------

    def cache_stats(self) -> Dict[str, Any]:
        """Hit/miss counters for reports and benchmarks."""
        if self.cache is None:
            stats = {
                "enabled": False, "hits": 0, "misses": 0, "hit_rate": 0.0, "entries": 0,
            }
        else:
            stats = {
                "enabled": True,
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "hit_rate": self.cache.hit_rate,
                "entries": len(self.cache),
            }
        if self.store is not None and hasattr(self.store, "stats"):
            stats["store"] = self.store.stats()
        return stats
