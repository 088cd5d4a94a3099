"""Host-independent cost gates on the search that dominates Table III/V.

``suRef_priv4/attack2`` (five wildcard messages under ``CAP_SETGID``) is
the largest raw search of the paper's study programs: 12712 states, all
explored, no goal.  Its cost is pinned here as counts, not seconds:

* the raw search never builds a canonical key — objects hash and compare
  by their identity, so ``_canonical_value`` is called zero times;
* every ``setres*``/``open`` successor is one functional edit, so exactly
  one ``Configuration`` is built per successor.

It also pins the raw states seen by the exhaustive phase queries of
passwd (message repeat 1) and thttpd (message repeat 2), and what a
whole suRef analyze costs through the engine, whose abstract pre-check
proves most of suRef's INVULNERABLE cells before any search.
"""

import pytest

from repro.core.extract import syscalls_used
from repro.core.pipeline import PrivAnalyzer
from repro.programs import spec_by_name
from repro.rewriting import Configuration, SearchBudget, breadth_first_search
from repro.rewriting import objects
from repro.rosa import engine as engine_module
from repro.rosa.query import Verdict, check, unix_system

from tests.test_rosa_engine import PHASE_BUDGET, counting, phase_requests, proving

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
    report = check(query, BUDGET)
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


@pytest.mark.parametrize(
    "program, repeat, states_seen", [("passwd", 1, 13), ("thttpd", 2, 522)]
)
def test_exhaustive_phase_queries_states_seen(program, repeat, states_seen):
    # Found-verdict searches stop at their first witness; the exhaustive
    # ones walk their whole raw space.
    requests = phase_requests(program, repeat)
    reports = [check(request.query, PHASE_BUDGET) for request in requests]
    assert sum(
        report.states_seen
        for report in reports
        if report.verdict is Verdict.INVULNERABLE
    ) == states_seen


def test_suref_analyze_proves_then_searches(monkeypatch):
    # 28 phase x attack queries, 26 distinct: 18 proved, 8 searched.
    # The 8 searches see 2530 states; the 28 raw searches pinned in
    # tests/golden/rosa/suRef.json see 18397.
    searched = []
    original = engine_module.check

    def searching(query, budget, **kwargs):
        report = original(query, budget, **kwargs)
        searched.append(report.states_seen)
        return report

    monkeypatch.setattr(engine_module, "check", searching)
    proofs = proving(monkeypatch)
    analyzer = PrivAnalyzer(budget=BUDGET)
    analysis = analyzer.analyze(spec_by_name("suRef"))
    assert len(proofs) == 26 and proofs.count(True) == 18
    assert len(searched) == 8 and sum(searched) == 2530
    reports = [report for phase in analysis.phases for report in phase.verdicts.values()]
    assert len(reports) == 28
    assert {report.verdict for report in reports if report.proved} == {Verdict.INVULNERABLE}
