"""The ROSA query engine: one lookup chain in front of the bounded search.

The pipeline asks ROSA one bounded-model-checking question per
(ChronoPriv phase × attack) pair, and the multi-process study repeats
the same questions across processes and attacks.  Distinct phases very
often share their (privileges, uids, gids, syscall-surface) tuple — the
paper's Table III rows collapse to a handful of distinct credential
states — so the searches are heavily redundant.  This module answers
each distinct question once:

* :class:`QueryCache` memoizes outcomes by canonical key
  (:func:`repro.rosa.keys.query_cache_key`) — an in-memory LRU (L1), so
  repeated questions are answered in O(1) instead of re-running the BFS;
  persistence across processes is the attested
  :class:`~repro.rosa.store.SharedVerdictStore` (L2);
* :meth:`QueryEngine.run_queries` is the one lookup chain: derive keys,
  dedupe the batch, serve L1 then L2 hits, build each distinct miss
  that came as a :class:`~repro.rosa.query.DeferredQuery`, try to
  *prove* it INVULNERABLE without searching (:mod:`repro.rosa.prove`),
  search the rest once each in this process, then publish and release.
  :meth:`QueryEngine.check` is a one-query batch.

Caching never changes a verdict: two queries share a cache entry only
when their initial configurations are AC-equal, their goals are
structurally identical, the rule system matches and the budget matches —
exactly the conditions under which the bounded search is deterministic.
Queries without a stable key are never cached; wall-clock ``TIMEOUT``
verdicts are never cached.

A proof is a deterministic verdict like any other: INVULNERABLE with
zero states and ``proved=True``, cached and published under the query's
key.  It is answered even where the search would have run out of its
state budget: ⊙ means "undecided within the budget", and a proof decides.
"""

from __future__ import annotations

import dataclasses
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.rewriting import SearchBudget, SearchStats
# perfbench's probes patch engine.query_cache_key and engine.check: call by name.
from repro.rosa.keys import query_cache_key
from repro.rosa.prove import prove
from repro.rosa.query import (
    DEFAULT_BUDGET,
    DeferredQuery,
    RosaQuery,
    RosaReport,
    Verdict,
    check,
)
from repro.telemetry import Telemetry


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
    proved: bool = False

    def to_json(self) -> Dict[str, Any]:
        # The fields, flat: ``dataclasses.asdict`` deep-copies each one.
        return dict(vars(self))

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
            proved=bool(data.get("proved", False)),
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
            proved=report.proved,
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
            ),
            from_cache=True,
            proved=self.proved,
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


@dataclasses.dataclass
class QueryRequest:
    """One entry of a :meth:`QueryEngine.run_queries` batch.

    ``query`` is a built query or a deferred one, which the engine
    builds only if it has to answer it.  ``budget`` overrides the engine
    default for this query.
    """

    query: Union[RosaQuery, DeferredQuery]
    budget: Optional[SearchBudget] = None


def _built(query: Union[RosaQuery, DeferredQuery]) -> RosaQuery:
    return query.build() if isinstance(query, DeferredQuery) else query


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
        telemetry: Optional[Telemetry] = None,
        checker=None,
        store=None,
    ) -> None:
        self.budget = budget
        #: Optional fleet-wide L2 behind the in-memory LRU: any object
        #: with ``get(key) -> Optional[CachedOutcome]``,
        #: ``put(key, outcome) -> bool`` and ``release(key)`` (duck-typed
        #: so this module never imports :mod:`repro.rosa.store`).  L1
        #: misses consult it before searching; fresh outcomes publish
        #: back so sibling processes hit instead of recomputing.
        self.store = store
        #: ``None`` disables caching entirely (every check searches).
        self.cache = cache
        #: Every collector this engine feeds: spans and metrics, the
        #: profiler (key derivation, cache lookups and the pre-check
        #: under the ``engine`` root; per-rule search attribution), and
        #: the progress callback each search samples into.  Cache hits
        #: emit no samples.
        self.telemetry = telemetry or Telemetry.disabled()
        #: The search implementation behind every check; defaults to
        #: :func:`repro.rosa.query.check`.  The conformance testkit swaps
        #: in instrumented or reference checkers here to prove the cache
        #: never changes an answer.
        self.checker = checker or check

    def check(
        self,
        query: Union[RosaQuery, DeferredQuery],
        budget: Optional[SearchBudget] = None,
        track_states: bool = False,
    ) -> RosaReport:
        """Cache-aware ``check``: a one-query :meth:`run_queries` batch.

        ``track_states`` always searches: witness configurations are
        never cached.
        """
        if track_states:
            return self._checked(
                _built(query), budget or self.budget, track_states=True
            )
        return self.run_queries([QueryRequest(query, budget)])[0]

    def _checked(
        self,
        query: RosaQuery,
        budget: SearchBudget,
        track_states: bool = False,
    ) -> RosaReport:
        """One live search under the engine's telemetry."""
        return self.checker(
            query, budget, track_states=track_states, telemetry=self.telemetry
        )

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

    def run_queries(
        self, requests: Sequence[Union[QueryRequest, RosaQuery]]
    ) -> List[RosaReport]:
        """Answer a batch of queries; returns reports in request order.

        The batch is deduplicated by canonical key first (duplicates get
        the same search's answer re-attached to their own query), cache
        hits are served without searching (and deferred queries among
        them without building), and the remaining distinct searches run
        once each in this process.  A query
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
        profiler = self.telemetry.profiler
        if entries:
            metrics.counter("rosa.batch.queries").inc(len(entries))

        # The counter objects are looked up once per batch — registry
        # lookups per query were a measurable slice of the cold tiny-batch
        # tax.
        cache_hits = metrics.counter("rosa.cache.hits")
        cache_misses = metrics.counter("rosa.cache.misses")
        with profiler.section("engine", "key_derivation"):
            keys = [
                query_cache_key(request.query, request.budget or self.budget)
                for request in entries
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
                with profiler.section("engine", "cache.lookup"):
                    entry = self.cache.get(key)
                profiler.count(
                    ("engine", "cache.lookup"), "misses" if entry is None else "hits"
                )
                if entry is not None:
                    cache_hits.inc()
                    reports[index] = self._served_from_cache(
                        request.query, entry, tracer
                    )
                    continue
                cache_misses.inc()
            if self.store is not None and key not in distinct:
                outcome = self.store.get(key)
                metrics.counter(
                    "rosa.store.misses" if outcome is None else "rosa.store.hits"
                ).inc()
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

        # 2. Answer each distinct miss once: by the abstract pre-check's
        #    proof, else by a search.  Every key this batch led in the
        #    store is released afterwards, published or not.
        try:
            if distinct:
                leaders = [indices[0] for indices in distinct.values()]
                budgets = {
                    index: entries[index].budget or self.budget for index in leaders
                }
                answers: Dict[int, RosaReport] = {}
                for index in leaders:
                    query = _built(entries[index].query)
                    report = self._proved(query)
                    if report is None:
                        report = self._checked(query, budgets[index])
                    answers[index] = report
                for key_indices in distinct.values():
                    report = answers[key_indices[0]]
                    key = keys[key_indices[0]]
                    if (
                        key is not None
                        and (self.cache is not None or self.store is not None)
                        and reusable(report, budgets[key_indices[0]])
                    ):
                        outcome = CachedOutcome.from_report(report)
                        if self.cache is not None:
                            self.cache.put(key, outcome, report)
                        if self.store is not None and self.store.put(key, outcome):
                            metrics.counter("rosa.store.published").inc()
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
            # Free each led key's single-flight slot even if nothing was
            # published (a wall-clock TIMEOUT, a search that raised).
            if self.store is not None:
                for key in distinct:
                    if isinstance(key, str):
                        self.store.release(key)
        return [report for report in reports if report is not None]

    def _proved(self, query: RosaQuery) -> Optional[RosaReport]:
        """The abstract pre-check: an INVULNERABLE report, or None to search.

        Runs before the search, and not through :attr:`checker`: the
        search implementation only ever sees queries the check could not
        prove.
        """
        with self.telemetry.profiler.section("engine", "prove"):
            with self.telemetry.tracer.span("rosa.prove", query=query.name) as span:
                start = time.perf_counter()
                proved = prove(query)
                elapsed = time.perf_counter() - start
                span.set_attribute("proved", proved)
        if not proved:
            return None
        self.telemetry.metrics.counter("rosa.proved").inc()
        with self.telemetry.tracer.span(
            "rosa.query", query=query.name, proved=True
        ) as span:
            span.set_attribute("verdict", Verdict.INVULNERABLE.value)
        return RosaReport(
            query=query,
            verdict=Verdict.INVULNERABLE,
            witness=[],
            compromised_state=None,
            states_explored=0,
            states_seen=0,
            elapsed=elapsed,
            proved=True,
        )

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
