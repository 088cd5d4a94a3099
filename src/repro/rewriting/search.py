"""Bounded breadth-first state-space search — Maude's ``search`` command.

Maude's ``search init =>* pattern such that cond`` explores the states
reachable from ``init`` by rule rewriting, looking for one matching a
pattern.  We generalise slightly: a *state space* is any initial state
plus a successor function, and the goal is a predicate.  ROSA instantiates
this with syscall-message configurations (an
:class:`~repro.rewriting.objects.ObjectSystem` supplies the successors).

Bounded model checking needs explicit budgets.  The paper ran ROSA with a
5-hour wall-clock limit and observed out-of-memory kills at 3 days (§VIII);
:class:`SearchBudget` models both the time and the memory (state-count)
limits, and :class:`SearchOutcome` distinguishes *proved unreachable*
(space exhausted without a hit) from *undecided* (budget exhausted first)
— the paper's ✗ versus ⊙.
"""

from __future__ import annotations

import dataclasses
import enum
import time
from collections import deque
from typing import Callable, Generic, Hashable, Iterable, List, Optional, Tuple, TypeVar

State = TypeVar("State")

#: How many expansions between two progress samples, by default.
PROGRESS_INTERVAL = 1024

#: Cap on the samples *retained* on ``SearchResult.stats.samples``.  A
#: paper-scale search (5-hour budgets, §VIII) emits millions of samples
#: at a fixed interval; retention decimates so memory stays bounded
#: while the live ``progress`` callback still sees every sample.
MAX_RETAINED_SAMPLES = 512


@dataclasses.dataclass(frozen=True)
class ProgressSample:
    """One periodic reading of a running search (the §VIII telemetry).

    Emitted every ``progress_interval`` expansions to the ``progress``
    callback of :func:`breadth_first_search`, so long searches are no
    longer silent until their 5-hour-style budget runs out.
    """

    states_explored: int
    states_seen: int
    frontier: int
    depth: int
    elapsed: float
    #: Expansion rate since the search started (0.0 until time passes).
    states_per_second: float
    #: Fraction (0–1) of the tightest budget consumed; 0.0 if unlimited.
    budget_used: float


@dataclasses.dataclass
class SearchStats:
    """Cost accounting for one search, beyond the headline counters.

    Always populated (the extra bookkeeping is a few integer ops per
    state); ``samples`` is filled only when a ``progress`` callback was
    installed.
    """

    #: Largest frontier ever held — the search's memory high-water mark.
    peak_frontier: int = 0
    #: Successor states rejected because their canonical key was seen.
    dedup_hits: int = 0
    #: Deepest state expanded (rewrite-path length).
    max_depth: int = 0
    #: Always 0 (the search has no state-space reduction); kept because
    #: the benchmark's layer probes read them.
    symmetry_hits: int = 0
    por_pruned: int = 0
    #: Periodic readings, oldest first (only with a progress callback).
    samples: List[ProgressSample] = dataclasses.field(default_factory=list)


class SearchOutcome(enum.Enum):
    """The three possible verdicts of a bounded search."""

    #: A goal state was found; the result carries a witness path.
    FOUND = "found"
    #: The reachable state space was exhausted without finding a goal.
    EXHAUSTED = "exhausted"
    #: A budget (states, depth or time) ran out before either of the above.
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclasses.dataclass(frozen=True)
class SearchBudget:
    """Limits on a bounded search.

    ``max_states`` bounds memory (the visited set), ``max_depth`` bounds
    the rewrite-path length (the *bound* of bounded model checking) and
    ``max_seconds`` bounds wall-clock time.  ``None`` disables a limit.
    """

    max_states: Optional[int] = 200_000
    max_depth: Optional[int] = None
    max_seconds: Optional[float] = None


@dataclasses.dataclass
class SearchResult(Generic[State]):
    """The outcome of one search, with enough detail for reports and tests."""

    outcome: SearchOutcome
    #: The goal state, when ``outcome`` is FOUND.
    state: Optional[State]
    #: Rule labels along the witness path from the initial state.
    path: List[str]
    #: States removed from the frontier and expanded.
    states_explored: int
    #: Distinct states ever enqueued (size of the visited set).
    states_seen: int
    #: Wall-clock seconds the search took.
    elapsed: float
    #: With ``track_states``: the states along the witness path,
    #: starting with the initial state and ending with ``state``
    #: (length ``len(path) + 1``).  Empty otherwise.
    path_states: List[State] = dataclasses.field(default_factory=list)
    #: Cost accounting: frontier high-water mark, dedup hits, depth,
    #: and (with a progress callback) the periodic samples.
    stats: SearchStats = dataclasses.field(default_factory=SearchStats)

    @property
    def found(self) -> bool:
        return self.outcome is SearchOutcome.FOUND

    @property
    def proved_unreachable(self) -> bool:
        """True when the full space was searched and no goal exists."""
        return self.outcome is SearchOutcome.EXHAUSTED


def breadth_first_search(
    initial: State,
    successors: Callable[[State], Iterable[Tuple[str, State]]],
    goal: Callable[[State], bool],
    budget: SearchBudget = SearchBudget(),
    canonical: Callable[[State], Hashable] = lambda state: state,
    track_states: bool = False,
    progress: Optional[Callable[[ProgressSample], None]] = None,
    progress_interval: int = PROGRESS_INTERVAL,
    max_samples: int = MAX_RETAINED_SAMPLES,
    clock: Callable[[], float] = time.monotonic,
) -> SearchResult[State]:
    """Search breadth-first from ``initial`` for a state satisfying ``goal``.

    ``successors`` yields ``(label, state)`` transitions; ``canonical``
    maps a state to its hashable visited-set key (states with equal keys
    are explored once — this is how associative-commutative configuration
    equality is honoured without general AC rewriting).

    The initial state itself is tested against ``goal`` first, matching
    Maude's ``=>*`` (zero or more rewrites).  With ``track_states`` the
    result carries the full state sequence of the witness path (costs one
    state reference per frontier entry per step).

    ``progress`` is called with a :class:`ProgressSample` every
    ``progress_interval`` expansions; ``clock`` makes all timing (budget
    enforcement, elapsed, sample rates) deterministic in tests.  The
    callback sees every sample, but at most ``max_samples`` are retained
    on ``result.stats.samples``: past the cap the interior of the series
    is decimated (every other sample dropped), always keeping the first
    and the most recent reading.
    """
    start = clock()
    peak_frontier = 0
    dedup_hits = 0
    max_depth = 0
    samples: List[ProgressSample] = []

    def stats() -> SearchStats:
        return SearchStats(
            peak_frontier=peak_frontier,
            dedup_hits=dedup_hits,
            max_depth=max_depth,
            samples=samples,
        )

    def result(
        outcome: SearchOutcome,
        state: Optional[State],
        path: List[str],
        path_states: Optional[List[State]] = None,
    ) -> SearchResult[State]:
        return SearchResult(
            outcome=outcome,
            state=state,
            path=path,
            states_explored=explored,
            states_seen=len(visited),
            elapsed=clock() - start,
            path_states=path_states or [],
            stats=stats(),
        )

    def sample(depth: int, frontier_size: int) -> None:
        elapsed = clock() - start
        # budget_used must never divide by zero: a None limit means
        # unlimited (contributes 0.0), a zero limit means the budget is
        # already fully consumed (contributes 1.0), and with both limits
        # unlimited the fraction is simply 0.0.
        budget_used = 0.0
        if budget.max_states is not None:
            if budget.max_states > 0:
                budget_used = len(visited) / budget.max_states
            else:
                budget_used = 1.0
        if budget.max_seconds is not None:
            if budget.max_seconds > 0:
                budget_used = max(budget_used, elapsed / budget.max_seconds)
            else:
                budget_used = 1.0
        reading = ProgressSample(
            states_explored=explored,
            states_seen=len(visited),
            frontier=frontier_size,
            depth=depth,
            elapsed=elapsed,
            # A monotonic clock can still report zero elapsed time (coarse
            # clocks, injected test clocks): report a rate of 0.0 rather
            # than dividing by zero.
            states_per_second=explored / elapsed if elapsed > 0 else 0.0,
            budget_used=min(budget_used, 1.0),
        )
        samples.append(reading)
        if len(samples) > max_samples:
            # Decimate the interior: endpoints survive, density halves.
            del samples[1:-1:2]
        progress(reading)

    explored = 0
    visited = {canonical(initial)}
    if goal(initial):
        return result(SearchOutcome.FOUND, initial, [], [initial])

    # Each frontier entry: (state, depth, path-of-labels, path-of-states).
    # Paths share structure via tuples to keep memory linear in the
    # frontier size; states are tracked only on request.
    frontier: deque = deque([(initial, 0, (), (initial,) if track_states else ())])
    peak_frontier = 1
    pruned_by_depth = False
    while frontier:
        if budget.max_seconds is not None and clock() - start > budget.max_seconds:
            return result(SearchOutcome.BUDGET_EXCEEDED, None, [])
        state, depth, path, states = frontier.popleft()
        explored += 1
        if depth > max_depth:
            max_depth = depth
        if progress is not None and explored % progress_interval == 0:
            sample(depth, len(frontier))
        if budget.max_depth is not None and depth >= budget.max_depth:
            # Deeper states may exist beyond the bound; if no goal turns up
            # elsewhere, the verdict must be "undecided", not "unreachable".
            pruned_by_depth = True
            continue
        for label, nxt in successors(state):
            key = canonical(nxt)
            # Add-then-check-size dedup: one hash of the (deep) canonical
            # key per successor instead of a membership probe plus an add.
            size_before = len(visited)
            visited.add(key)
            if len(visited) == size_before:
                dedup_hits += 1
                continue
            next_path = path + (label,)
            next_states = states + (nxt,) if track_states else ()
            if goal(nxt):
                return result(
                    SearchOutcome.FOUND, nxt, list(next_path), list(next_states)
                )
            if budget.max_states is not None and len(visited) > budget.max_states:
                return result(SearchOutcome.BUDGET_EXCEEDED, None, [])
            frontier.append((nxt, depth + 1, next_path, next_states))
            if len(frontier) > peak_frontier:
                peak_frontier = len(frontier)
    if pruned_by_depth:
        return result(SearchOutcome.BUDGET_EXCEEDED, None, [])
    return result(SearchOutcome.EXHAUSTED, None, [])
