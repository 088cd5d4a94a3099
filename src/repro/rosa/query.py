"""ROSA queries: bounded search for a compromised state.

A query bundles an initial configuration (objects plus the syscall
messages the attacker may consume) with a compromised-state goal.
:func:`check` runs the bounded breadth-first search and classifies the
outcome into the paper's three verdicts:

* ✓ **VULNERABLE** — a compromised state is reachable; the result carries
  the witness syscall sequence (the paper walks such a witness for the
  /etc/passwd example in §V-B);
* ✗ **INVULNERABLE** — the whole reachable space was searched and no
  compromised state exists;
* ⊙ **TIMEOUT** — a budget ran out first (the paper's 5-hour limit and
  out-of-memory kills, §VII-D / §VIII).

:func:`check` is always the plain search.  The query engine
(:mod:`repro.rosa.engine`) first tries to *prove* a query INVULNERABLE
without searching (:mod:`repro.rosa.prove`); such a report carries
``proved=True`` and zero states.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import logging
import time
from typing import Callable, Hashable, List, Optional, Tuple, Union

from repro.rewriting import (
    Configuration,
    ObjectSystem,
    PROGRESS_INTERVAL,
    SearchBudget,
    SearchOutcome,
    SearchResult,
    SearchStats,
    breadth_first_search,
)
from repro.rosa.goals import Goal
from repro.rosa.rules import unix_rules
from repro.telemetry import Telemetry

logger = logging.getLogger("repro.rosa")


class Verdict(enum.Enum):
    """ROSA's answer about one (attack, privilege set, credentials) triple."""

    VULNERABLE = "vulnerable"
    INVULNERABLE = "invulnerable"
    TIMEOUT = "timeout"

    @property
    def symbol(self) -> str:
        """The paper's table glyphs: ✓ / ✗ / ⊙."""
        return {"vulnerable": "✓", "invulnerable": "✗", "timeout": "⊙"}[self.value]


@functools.lru_cache(maxsize=1)
def unix_system() -> ObjectSystem:
    """The UNIX module: every syscall rule from :mod:`repro.rosa.rules`.

    One shared instance per process (systems and rules hold no mutable
    state), so its signature is derived once, not per search.
    """
    return ObjectSystem("UNIX", unix_rules())


@dataclasses.dataclass
class RosaQuery:
    """One bounded-model-checking question."""

    name: str
    initial: Configuration
    goal: Goal
    description: str = ""
    #: Optionally restrict the rule set (defaults to the full UNIX module).
    system: Optional[ObjectSystem] = None
    #: Stable identity of ``goal`` for result caching.  Builders that know
    #: what the goal means (e.g. attacks) set this; when ``None`` the query
    #: engine derives an identity from the goal closure's structure.
    goal_key: Optional[Hashable] = None


@dataclasses.dataclass
class DeferredQuery:
    """A query known by its builder's inputs, built only when it must be answered.

    ``source`` (the source digest of the builder's module) and
    ``inputs`` are the key material
    (:func:`repro.rosa.keys.query_cache_key`): together they must
    determine everything ``build()`` puts into the query's initial
    configuration and goal, and nothing else, so that two deferred
    queries share a key exactly when their built queries do.  A ``None``
    source (a module with no readable source) makes the query
    uncacheable.  ``build()`` must search the default UNIX system.
    The query engine builds only the queries that neither its L1 nor its
    store answers; a report it serves carries this deferred query.
    """

    name: str
    source: Optional[str]
    inputs: Tuple
    build: Callable[[], RosaQuery]


@dataclasses.dataclass
class RosaReport:
    """The verdict plus the evidence behind it."""

    #: The question answered: a served answer to a deferred request
    #: carries its :class:`DeferredQuery`, which holds the name.
    query: Union[RosaQuery, DeferredQuery]
    verdict: Verdict
    #: Rule labels of the witness path when vulnerable (attack recipe).
    witness: List[str]
    #: The compromised configuration, when found.
    compromised_state: Optional[Configuration]
    states_explored: int
    states_seen: int
    elapsed: float
    #: With ``check(..., track_states=True)``: every configuration along
    #: the witness, initial state first.  Empty otherwise.
    witness_states: List[Configuration] = dataclasses.field(default_factory=list)
    #: Search cost accounting (peak frontier, dedup hits, progress samples).
    stats: SearchStats = dataclasses.field(default_factory=SearchStats)
    #: True when the query engine served this report from its result cache
    #: instead of searching (see :mod:`repro.rosa.engine`).
    from_cache: bool = False
    #: True when the verdict is an abstract proof of unreachability
    #: (:mod:`repro.rosa.prove`), reached without searching.
    proved: bool = False

    @property
    def vulnerable(self) -> bool:
        return self.verdict is Verdict.VULNERABLE

    def summary(self) -> str:
        """One-line human-readable summary."""
        head = f"{self.query.name}: {self.verdict.symbol} {self.verdict.value}"
        if self.verdict is Verdict.VULNERABLE and self.witness:
            head += " via " + " -> ".join(self.witness)
        if self.proved:
            return head + f" (proved, {self.elapsed * 1000:.1f} ms)"
        return head + f" ({self.states_seen} states, {self.elapsed * 1000:.1f} ms)"

    def cost_line(self) -> str:
        """The search's cost, for ✗/⊙ verdicts that would otherwise hide it."""
        if self.proved:
            return (
                "search cost: proved unreachable (abstract pre-check), "
                f"{self.elapsed * 1000:.1f} ms"
            )
        return (
            f"search cost: {self.states_explored} states explored, "
            f"{self.states_seen} seen, peak frontier {self.stats.peak_frontier}, "
            f"{self.stats.dedup_hits} dedup hits, depth {self.stats.max_depth}, "
            f"{self.elapsed * 1000:.1f} ms"
        )


#: Budget mirroring the paper's setup, scaled to our smaller state spaces.
DEFAULT_BUDGET = SearchBudget(max_states=500_000, max_depth=None, max_seconds=300.0)


def check(
    query: RosaQuery,
    budget: SearchBudget = DEFAULT_BUDGET,
    track_states: bool = False,
    telemetry: Optional[Telemetry] = None,
    clock: Callable[[], float] = time.monotonic,
) -> RosaReport:
    """Run one bounded model-checking query and classify the outcome.

    With ``track_states`` the report carries every configuration along
    the witness path, enabling :func:`repro.rosa.explain.explain_witness`.
    ``telemetry``'s tracer wraps the search in a ``rosa.query`` span; its
    ``progress`` callback receives a :class:`~repro.rewriting.ProgressSample`
    every ``progress_interval`` expansions, so long-running searches (the
    paper's 5-hour budgets) are observable while they run.

    ``telemetry.profiler``, when live, attributes the search's wall time
    to named rules (:mod:`repro.rosa.profile`) by wrapping the three
    injectable callables — the search loop itself is unchanged, so the
    verdict and every cost counter are bit-identical with or without it.
    """
    telemetry = telemetry or Telemetry.disabled()
    profiler = telemetry.profiler
    system = query.system or unix_system()
    successors = system.successors
    goal = query.goal
    # Configurations hash incrementally (see rewriting.objects), so the
    # state itself is its visited-set key — no full-key materialisation
    # per successor.
    canonical = lambda config: config  # noqa: E731
    profiled = None
    if profiler.enabled:
        from repro.rosa.profile import ProfiledSearch

        profiled = ProfiledSearch(profiler, system, query.goal)
        successors = profiled.successors
        canonical = profiled.canonical
        goal = profiled.goal
    with telemetry.tracer.span("rosa.query", query=query.name) as span:
        search_start = profiler.clock() if profiled is not None else 0.0
        result: SearchResult = breadth_first_search(
            query.initial,
            successors,
            goal,
            budget=budget,
            canonical=canonical,
            track_states=track_states,
            progress=telemetry.progress,
            progress_interval=telemetry.progress_interval or PROGRESS_INTERVAL,
            clock=clock,
        )
        if profiled is not None:
            profiled.finish(profiler.clock() - search_start)
        if result.outcome is SearchOutcome.FOUND:
            verdict = Verdict.VULNERABLE
        elif result.outcome is SearchOutcome.EXHAUSTED:
            verdict = Verdict.INVULNERABLE
        else:
            verdict = Verdict.TIMEOUT
        span.set_attribute("verdict", verdict.value)
        span.set_attribute("states_seen", result.states_seen)
        span.set_attribute("states_explored", result.states_explored)
        span.set_attribute("peak_frontier", result.stats.peak_frontier)
    logger.debug(
        "query %s: %s (%d states, %.1f ms)",
        query.name, verdict.value, result.states_seen, result.elapsed * 1000,
    )
    return RosaReport(
        query=query,
        verdict=verdict,
        witness=result.path,
        compromised_state=result.state,
        states_explored=result.states_explored,
        states_seen=result.states_seen,
        elapsed=result.elapsed,
        witness_states=result.path_states,
        stats=result.stats,
    )
