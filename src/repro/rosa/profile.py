"""Per-rule cost attribution for ROSA search.

:class:`ProfiledSearch` wraps the three callables
:func:`repro.rewriting.breadth_first_search` already takes — successor
function, canonical-key extractor, goal predicate — with timed versions
that attribute every expansion's wall time to named frames under the
``rosa.search`` root:

``rule:<label>``
    Enumerating one rule's rewrites at one state.  ``attempts`` counts
    states where the rule was tried, ``applications`` the configurations
    it yielded.  The rules tried are exactly those
    :meth:`repro.rewriting.ObjectSystem.rules_for` returns — the filter
    :meth:`~repro.rewriting.ObjectSystem.successors` iterates — in the
    same order, so the successor stream the search consumes is the
    unprofiled one.
``successors``
    A whole expansion, for a system whose class decides its own
    successors (such as the CFI model's
    :class:`~repro.rosa.defenses.SequencedObjectSystem`): its own
    :meth:`successors` runs, timed as one frame, since per-rule timing
    would have to re-implement it.
``hash.incremental``
    Hashing the visited-set key — O(1) by construction (configurations
    carry an incremental multiset hash), and the profile proves it.
``goal``
    Goal-predicate evaluations (``hits`` counts true answers).
``search.loop``
    The derived remainder: BFS bookkeeping (frontier, visited set,
    budget checks) that :meth:`repro.telemetry.Profiler.root` books as
    the search's wall time minus everything timed above (``derived``
    marks the bucket as computed, not timed).

Wrapping the injectable callables — instead of forking the search loop —
is what keeps profiler-on and profiler-off verdicts bit-identical: the
search itself never changes, and parity tests in
``tests/test_rosa_profile.py`` hold it to that.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.rewriting import Configuration, ObjectSystem
from repro.telemetry.profiler import Profiler

#: The root frame every search-phase record nests under.
SEARCH_ROOT = "rosa.search"

_HASH = (SEARCH_ROOT, "hash.incremental")
_GOAL = (SEARCH_ROOT, "goal")
_SUCCESSORS = (SEARCH_ROOT, "successors")


class ProfiledSearch:
    """Profiled successor/canonical/goal wrappers for one search.

    Build one per :func:`repro.rosa.query.check` call and hand its bound
    methods to ``breadth_first_search`` inside the profiler's
    ``rosa.search`` root.
    """

    def __init__(
        self,
        profiler: Profiler,
        system: ObjectSystem,
        goal: Callable[[Configuration], bool],
    ) -> None:
        self.profiler = profiler
        self.system = system
        self.goal_fn = goal

    # -- the three injected callables -----------------------------------------

    def successors(self, config: Configuration) -> List[Tuple[str, Configuration]]:
        profiler = self.profiler
        system = self.system
        if type(system) is not ObjectSystem:
            with profiler.section(*_SUCCESSORS):
                return list(system.successors(config))
        clock = profiler.clock
        # Each rule's rewrites are materialised so its timed window covers
        # exactly that rule — a generator would charge the consumer's
        # work between yields to the rule.
        out: List[Tuple[str, Configuration]] = []
        for rule in system.rules_for(config):
            stack = (SEARCH_ROOT, "rule:" + rule.label)
            start = clock()
            results = list(rule.rewrites(config))
            profiler.account(stack, clock() - start)
            profiler.count(stack, "attempts")
            if results:
                profiler.count(stack, "applications", len(results))
                for result in results:
                    out.append((rule.label, result))
        return out

    def canonical(self, config: Configuration):
        # The visited set is keyed by the configuration itself; time the
        # (incremental, O(1)) hash the set will take.
        clock = self.profiler.clock
        start = clock()
        hash(config)
        self.profiler.account(_HASH, clock() - start)
        return config

    def goal(self, config: Configuration) -> bool:
        clock = self.profiler.clock
        start = clock()
        hit = self.goal_fn(config)
        self.profiler.account(_GOAL, clock() - start)
        if hit:
            self.profiler.count(_GOAL, "hits")
        return hit
