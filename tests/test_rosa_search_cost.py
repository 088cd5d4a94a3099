"""Host-independent cost gates on the search that dominates Table III/V.

``suRef_priv4/attack2`` (five wildcard messages under ``CAP_SETGID``) is
the largest raw search of the paper's study programs: 12712 states, all
explored, no goal.  Its cost is pinned here as counts, not seconds:

* the raw search never builds a canonical key — objects hash and compare
  by their identity, so ``_canonical_value`` is called zero times;
* every ``setres*``/``open`` successor is one functional edit, so exactly
  one ``Configuration`` is built per successor.

It also pins how far :func:`~repro.rosa.independence.estimated_space`
sits below the true state count, so a change to the estimate shows, and
caps what the thttpd (message repeat 2) engine batch — the batch where
symmetry + partial-order reduction is active — spends on states, blind
signatures and canonical keys.  The caps are ceilings, not wall-clock claims: they keep
reduction from getting *more* expensive, not from losing to the raw
search in seconds.
"""

import pytest

from repro.core.extract import syscalls_used
from repro.core.pipeline import PrivAnalyzer
from repro.programs import spec_by_name
from repro.rewriting import Configuration, SearchBudget, breadth_first_search
from repro.rewriting import objects
from repro.rosa import QueryCache, QueryEngine, independence
from repro.rosa.independence import REDUCTION_MIN_SPACE, estimated_space
from repro.rosa.query import check, unix_system

from tests.test_rosa_engine import counting, phase_requests

#: No wall-clock limit: the gates count work, whatever the host's speed.
BUDGET = SearchBudget(max_states=20_000, max_seconds=None)
RAW_STATES = 12712


@pytest.fixture(scope="module")
def query():
    spec = spec_by_name("suRef")
    analyzer = PrivAnalyzer()
    module, _, _ = analyzer.compile(spec)
    chrono, _, _ = analyzer.run_dynamic(spec, module)
    phase = next(phase for phase in chrono.phases if phase.name == "suRef_priv4")
    attack = next(attack for attack in analyzer.attacks if attack.attack_id == 2)
    return attack.build_query(
        phase.privileges, phase.uids, phase.gids, syscalls_used(module),
        label="suRef_priv4/attack2",
    )


def test_raw_search_builds_no_canonical_key(query, monkeypatch):
    calls = counting(monkeypatch, objects, "_canonical_value")
    report = check(query, BUDGET, reduction=False)
    assert report.states_seen == RAW_STATES
    assert len(calls) == 0


def test_one_configuration_per_setres_or_open_successor(query, monkeypatch):
    built = []
    init_from_counts = Configuration._init_from_counts

    def counting(self, counts, ihash=None):
        built.append(1)
        init_from_counts(self, counts, ihash)

    monkeypatch.setattr(Configuration, "_init_from_counts", counting)
    system = unix_system()
    per_successor = {}

    def successors(config):
        before = len(built)
        for label, successor in system.successors(config):
            per_successor.setdefault(label, []).append(len(built) - before)
            yield label, successor
            before = len(built)

    result = breadth_first_search(query.initial, successors, query.goal, budget=BUDGET)
    assert result.states_seen == RAW_STATES
    assert {"setresuid", "setresgid", "open"} <= set(per_successor)
    for label in ("setresuid", "setresgid", "open"):
        assert set(per_successor[label]) == {1}, label


def test_estimated_space_is_a_gate_not_a_bound(query):
    """``prod(count + 1)`` counts consumable message sub-multisets; each
    wildcard argument rewrites many ways, so the raw space is ~400x it."""
    assert estimated_space(query.initial) == 32
    assert estimated_space(query.initial) < REDUCTION_MIN_SPACE
    assert check(query, BUDGET, reduction=False).states_seen == RAW_STATES


#: The thttpd (message repeat 2) reduced engine batch, 24 queries: the
#: states it sees and the states its reducer keys by blind signature.
THTTPD_R2_STATES_SEEN = 306
THTTPD_R2_BLIND_KEYS = 236


def test_thttpd_reduced_batch_cost_ceiling(monkeypatch):
    requests = phase_requests("thttpd", repeat=2)
    blind = counting(monkeypatch, independence, "blind_signature")
    bodies = counting(monkeypatch, independence, "canonical_key")
    reports = QueryEngine(cache=QueryCache()).run_queries(requests)
    assert sum(report.stats.por_pruned for report in reports) > 0
    assert sum(report.states_seen for report in reports) <= THTTPD_R2_STATES_SEEN
    assert len(blind) <= THTTPD_R2_BLIND_KEYS
    # A canonical body is resolved only for states whose blind signature
    # collides with another's.  How many collide varies run to run (72-82
    # here), because the signature hashes non-anonymous elements by
    # ``id``; eager canonicalization would resolve all of them.
    assert len(bodies) <= THTTPD_R2_BLIND_KEYS // 2
