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
  dedupe the batch, serve L1 then L2 hits, search each distinct miss
  once (serially, or on the process pool of :mod:`repro.rosa.pool`),
  then publish and release.  :meth:`QueryEngine.check` is a one-query
  batch.

Caching never changes a verdict: two queries share a cache entry only
when their initial configurations are AC-equal, their goals are
structurally identical, the rule system matches and the budget matches —
exactly the conditions under which the bounded search is deterministic.
Queries without a stable key always search; wall-clock ``TIMEOUT``
verdicts are never cached.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.rewriting import PROGRESS_INTERVAL, SearchBudget, SearchStats
# perfbench's probes patch engine.query_cache_key and engine.check: call by name.
from repro.rosa.keys import query_cache_key
from repro.rosa.pool import Fleet, run_pool
from repro.rosa.query import DEFAULT_BUDGET, RosaQuery, RosaReport, Verdict, check
from repro.telemetry.profiler import NULL_PROFILER


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

#: ``"auto"`` runs a batch on the process pool only when it has at least
#: this many distinct searches, all with specs, and its widest state
#: budget reaches :data:`PROCESS_MIN_STATES` (paper scale).  At this
#: repo's repro-scale budgets a pool costs more than the searches.
PROCESS_BATCH_MIN = 4
PROCESS_MIN_STATES = 1_000_000


@dataclasses.dataclass(frozen=True)
class ParallelPolicy:
    """How :meth:`QueryEngine.run_queries` executes distinct searches.

    ``mode``:

    * ``"serial"`` — run in the calling thread (full tracing fidelity);
    * ``"process"`` — a process pool (:mod:`repro.rosa.pool`): real CPU
      parallelism; requires each request to carry a picklable ``spec``
      builder (goal closures do not pickle), and pays a pool-startup
      cost only worth it for paper-scale budgets;
    * ``"auto"`` (default) — ``process`` when every distinct request has
      a spec, the batch has at least :data:`PROCESS_BATCH_MIN` of them
      and the widest state budget reaches :data:`PROCESS_MIN_STATES`;
      otherwise serial.
    """

    mode: str = "auto"
    max_workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in ("auto", "serial", "process"):
            raise ValueError(f"unknown parallel mode {self.mode!r}")

    def resolve(self, distinct: int, max_states: int, all_have_specs: bool) -> str:
        if self.mode != "auto":
            return self.mode
        if (
            all_have_specs
            and distinct >= PROCESS_BATCH_MIN
            and max_states >= PROCESS_MIN_STATES
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
        profiler=None,
        store=None,
    ) -> None:
        from repro.telemetry import Telemetry

        self.budget = budget
        #: Optional fleet-wide L2 behind the in-memory LRU: any object
        #: with ``get(key) -> Optional[CachedOutcome]``,
        #: ``put(key, outcome) -> bool`` and ``release(key)`` (duck-typed
        #: so this module never imports :mod:`repro.rosa.store`).  L1
        #: misses consult it before searching; fresh outcomes publish
        #: back so sibling processes hit instead of recomputing.
        self.store = store
        #: Optional :class:`repro.telemetry.Profiler`.  When live, every
        #: serial search gets per-rule attribution (the
        #: ``profiler`` kwarg is forwarded to ``checker`` — only then, so
        #: custom checkers without the parameter keep working), and batch
        #: scheduling records queue-wait versus execute time per worker
        #: under the ``engine`` root.
        self.profiler = profiler
        #: ``None`` disables caching entirely (every check searches).
        self.cache = cache
        self.parallel = parallel or ParallelPolicy()
        self.telemetry = telemetry or Telemetry.disabled()
        #: The search implementation behind every serial check; defaults
        #: to :func:`repro.rosa.query.check`.  The conformance testkit
        #: swaps in instrumented or reference checkers here to prove the
        #: cache and the pool never change an answer (process-pool
        #: workers always run the stock checker — closures do not pickle).
        self.checker = checker or check
        #: Live-search observability: every serially executed search
        #: forwards periodic :class:`~repro.rewriting.ProgressSample`
        #: readings here.  Pool workers sample into their telemetry
        #: capsule instead (a bounded, decimated tail reattached to the
        #: report at merge time — not live).  Cache hits emit none.
        self.progress = progress
        self.progress_interval = progress_interval
        #: Per-worker accounting of the telemetry capsules pool workers
        #: return whenever a parent collector is live (see
        #: :func:`repro.rosa.pool.capsule_request`).
        self.fleet = Fleet()

    def check(
        self,
        query: RosaQuery,
        budget: Optional[SearchBudget] = None,
        track_states: bool = False,
    ) -> RosaReport:
        """Cache-aware ``check``: a one-query :meth:`run_queries` batch.

        ``track_states`` always searches: witness configurations are
        never cached.
        """
        if track_states:
            return self._checked(query, budget or self.budget, track_states=True)
        return self.run_queries([QueryRequest(query, budget)])[0]

    def _checked(
        self,
        query: RosaQuery,
        budget: SearchBudget,
        track_states: bool = False,
    ) -> RosaReport:
        """One live search with the engine's tracer and progress wiring."""
        extra = {}
        if self.profiler is not None:
            extra["profiler"] = self.profiler
        return self.checker(
            query,
            budget,
            track_states=track_states,
            tracer=self.telemetry.tracer,
            progress=self.progress,
            progress_interval=self.progress_interval,
            **extra,
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

        # The counter objects are looked up once per batch — registry
        # lookups per query were a measurable slice of the cold tiny-batch
        # tax.
        cache_hits = metrics.counter("rosa.cache.hits")
        cache_misses = metrics.counter("rosa.cache.misses")
        with (profiler or NULL_PROFILER).section("engine", "key_derivation"):
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

        # 2. Run each distinct search once.  Every key this batch led in
        #    the store is released afterwards, published or not.
        try:
            if distinct:
                leaders = [indices[0] for indices in distinct.values()]
                budgets = {
                    index: entries[index].budget or self.budget for index in leaders
                }
                widest = max(budget.max_states or 0 for budget in budgets.values())
                mode = self.parallel.resolve(
                    len(leaders),
                    widest or self.budget.max_states or 0,
                    all(entries[index].spec is not None for index in leaders),
                )
                if mode == "serial" or len(leaders) == 1:
                    leader_reports = self._run_serial(
                        entries, leaders, budgets, profiler
                    )
                else:
                    leader_reports = run_pool(
                        self,
                        [
                            dataclasses.replace(entries[index], budget=budgets[index])
                            for index in leaders
                        ],
                        [keys[index] for index in leaders],
                        profiler,
                    )
                for key_indices, report in zip(distinct.values(), leader_reports):
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

    def _run_serial(self, entries, leaders, budgets, profiler) -> List[RosaReport]:
        """Search the leaders in this thread, in order.

        Serial scheduling is one worker draining the queue, so with a
        live profiler queue wait is the time spent behind earlier
        searches; without one no clock is read.
        """
        batch_start = profiler.clock() if profiler is not None else 0.0
        reports = []
        for index in leaders:
            if profiler is not None:
                start = profiler.clock()
                profiler.account(
                    ("engine", "worker:0", "queue_wait"), start - batch_start
                )
            reports.append(self._checked(entries[index].query, budgets[index]))
            if profiler is not None:
                profiler.account(
                    ("engine", "worker:0", "execute"), profiler.clock() - start
                )
        return reports

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
