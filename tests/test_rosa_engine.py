"""The ROSA query engine: caching, canonical keys, batch scheduling, parity.

The engine must never change an answer: the acceptance bar is that every
verdict, witness and exposure fraction is bit-identical with the engine
on versus off, while repeated questions stop costing a search.
"""

import dataclasses
import functools
import itertools
import random

import pytest

from repro.caps import CapabilitySet
from repro.core import PrivAnalyzer
from repro.core import attacks as attacks_module
from repro.core.attacks import ALL_ATTACKS, Attack
from repro.core.extract import syscalls_used
from repro.core.multiprocess import DEFAULT_MULTIPROCESS_BUDGET
from repro.programs import spec_by_name
from repro.rewriting import Configuration, ObjectSystem, SearchBudget
from repro.rosa import (
    QueryCache,
    QueryEngine,
    QueryRequest,
    RosaQuery,
    Verdict,
    check,
    goals,
    model,
    query_cache_key,
    syscalls,
    unix_rules,
)
from repro.rosa import engine as engine_module
from repro.rosa.keys import goal_identity
from repro.rosa.store import SharedVerdictStore
from repro.telemetry import Telemetry

BUDGET = SearchBudget(max_states=50_000, max_seconds=30.0)


def shadow_query(name="read-shadow", perms=0o640, goal=None):
    config = Configuration(
        [
            model.process_for_user(1, uid=1000, gid=1000),
            model.file_obj(3, name="/etc/shadow", owner=0, group=42, perms=perms),
            model.user(4, 1000),
            model.user(5, 0),
            syscalls.sys_open(1, 3, "r", ["CapDacReadSearch"]),
        ]
    )
    return RosaQuery(name, config, goal or goals.file_opened_for_read(3))


def opaque_goal(marker):
    """A goal closing over ``marker``, whose ``repr`` is an address."""
    inner = goals.file_opened_for_read(3)

    def goal(config):
        return marker is not None and inner(config)

    return goal


def attack_requests(privs, uids, gids, surface, repeat=1):
    return [
        QueryRequest(attack.build_query(privs, uids, gids, surface, repeat=repeat))
        for attack in ALL_ATTACKS
    ]


#: No wall-clock limit: tests over real programs' queries count work,
#: whatever the host's speed.
PHASE_BUDGET = SearchBudget(max_states=200_000, max_seconds=None)


def phase_requests(program, repeat=1):
    """The phase×attack requests the pipeline issues for ``program``."""
    analyzer = PrivAnalyzer(message_repeat=repeat)
    spec = spec_by_name(program)
    module, _, _ = analyzer.compile(spec)
    chrono, _, _ = analyzer.run_dynamic(spec, module)
    surface = syscalls_used(module)
    requests = []
    for phase in chrono.phases:
        for attack in ALL_ATTACKS:
            args = (phase.privileges, phase.uids, phase.gids, surface)
            kwargs = {"repeat": repeat, "label": f"{phase.name}/attack{attack.attack_id}"}
            requests.append(QueryRequest(
                attack.build_query(*args, **kwargs), budget=PHASE_BUDGET
            ))
    return requests


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper; returns its call list."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def proving(monkeypatch):
    """Record the engine's abstract pre-check answers; returns their list."""
    answers = []
    original = engine_module.prove

    def wrapper(query):
        answers.append(original(query))
        return answers[-1]

    monkeypatch.setattr(engine_module, "prove", wrapper)
    return answers


class TestCanonicalKeys:
    def test_same_query_content_same_key(self):
        assert query_cache_key(shadow_query("a"), BUDGET) == query_cache_key(
            shadow_query("b"), BUDGET
        )

    def test_key_ignores_element_order(self):
        base = shadow_query()
        shuffled = RosaQuery(
            "shuffled", Configuration(reversed(list(base.initial))), base.goal
        )
        assert query_cache_key(base, BUDGET) == query_cache_key(shuffled, BUDGET)

    def test_key_differs_across_budgets(self):
        query = shadow_query()
        tighter = dataclasses.replace(BUDGET, max_states=10)
        assert query_cache_key(query, BUDGET) != query_cache_key(query, tighter)

    def test_key_differs_across_goals(self):
        read = shadow_query(goal=goals.file_opened_for_read(3))
        write = shadow_query(goal=goals.file_opened_for_write(3))
        assert query_cache_key(read, BUDGET) != query_cache_key(write, BUDGET)

    def test_key_differs_across_goal_arguments(self):
        this_file = shadow_query(goal=goals.file_opened_for_read(3))
        other_file = shadow_query(goal=goals.file_opened_for_read(4))
        assert query_cache_key(this_file, BUDGET) != query_cache_key(
            other_file, BUDGET
        )

    def test_key_differs_across_configurations(self):
        assert query_cache_key(shadow_query(perms=0o640), BUDGET) != query_cache_key(
            shadow_query(perms=0o600), BUDGET
        )

    def test_goal_key_overrides_introspection(self):
        explicit = dataclasses.replace(shadow_query(), goal_key=("attack", 1))
        other = dataclasses.replace(shadow_query(), goal_key=("attack", 2))
        assert query_cache_key(explicit, BUDGET) != query_cache_key(other, BUDGET)

    def test_address_bearing_goal_has_no_key(self):
        query = shadow_query(goal=opaque_goal(object()))
        assert goal_identity(query.goal) is None
        assert query_cache_key(query, BUDGET) is None

    def test_structural_closures_keep_their_key(self):
        nested = goals.any_of(goals.file_opened_for_read(3), goals.entry_removed(7))
        identity = goal_identity(nested)
        assert identity is not None and "0x" not in repr(identity)
        assert query_cache_key(shadow_query(goal=nested), BUDGET) is not None

    def test_attack_queries_carry_goal_keys(self):
        privs = CapabilitySet.of("CAP_DAC_READ_SEARCH")
        query = ALL_ATTACKS[0].build_query(
            privs, (1000, 1000, 1000), (1000, 1000, 1000), frozenset({"open"})
        )
        assert query.goal_key == ("attack", 1)

    def test_mixed_keep_and_id_arguments_have_a_key(self):
        # Same-name messages with KEEP (a str) and an id (an int) in one
        # argument position used to make the key sort raise TypeError.
        elements = [
            model.process_for_user(1, uid=1000, gid=1000),
            syscalls.sys_setresuid(1, 1, -1, -1),
            syscalls.sys_setresuid(1, syscalls.KEEP, -1, -1),
            syscalls.sys_setresgid(1, 5, syscalls.KEEP, -1),
            syscalls.sys_setresgid(1, syscalls.KEEP, 5, -1),
        ]
        goal = goals.file_opened_for_read(3)
        keys = set()
        query_keys = set()
        for order in itertools.permutations(elements):
            query = RosaQuery("mixed", Configuration(order), goal)
            query_keys.add(query_cache_key(query, BUDGET))
            keys.add(Configuration(order).key)
        assert len(keys) == 1 and len(query_keys) == 1
        assert None not in query_keys
        engine = QueryEngine(budget=BUDGET, cache=QueryCache())
        query = RosaQuery("mixed", Configuration(elements), goal)
        assert engine.check(query).verdict is Verdict.INVULNERABLE
        assert engine.check(query).from_cache


class TestKeyBeforeBuild:
    """Attack queries are keyed by their inputs and built only on a miss."""

    PROGRAMS = ("passwd", "thttpd", "sshd", "su")

    @staticmethod
    def phase_queries(program):
        """(deferred, built) pairs for every phase × attack of ``program``."""
        analyzer = PrivAnalyzer()
        spec = spec_by_name(program)
        module, _, _ = analyzer.compile(spec)
        chrono, _, _ = analyzer.run_dynamic(spec, module)
        surface = syscalls_used(module)
        pairs = []
        for phase in chrono.phases:
            for attack in ALL_ATTACKS:
                args = (phase.privileges, phase.uids, phase.gids, surface)
                pairs.append((
                    attack.deferred_query(*args, label=phase.name),
                    attack.build_query(*args, label=phase.name),
                ))
        return pairs

    def test_input_keys_split_queries_as_configuration_keys_do(self):
        pairs = [
            pair for program in self.PROGRAMS for pair in self.phase_queries(program)
        ]
        input_keys = [query_cache_key(deferred, BUDGET) for deferred, _ in pairs]
        built_keys = [query_cache_key(built, BUDGET) for _, built in pairs]
        assert None not in input_keys and None not in built_keys
        for (a, b), (c, d) in itertools.combinations(zip(input_keys, built_keys), 2):
            assert (a == c) == (b == d)
        assert len(set(input_keys)) < len(input_keys)

    def test_key_ignores_label_and_unused_inputs(self):
        attack = ALL_ATTACKS[2]  # bind a privileged port: no /dev/mem
        uids = gids = (1000, 1000, 1000)
        surface = frozenset({"open", "kill"})  # nothing attack 3 can use
        base = attack.deferred_query(CapabilitySet.empty(), uids, gids, surface)
        variants = [
            attack.deferred_query(CapabilitySet.empty(), uids, gids, surface, label="x"),
            attack.deferred_query(
                CapabilitySet.of("CAP_NET_BIND_SERVICE"), uids, gids, surface, repeat=3
            ),
            attack.deferred_query(
                CapabilitySet.empty(), uids, gids, surface, devmem_perms=0
            ),
        ]
        key = query_cache_key(base, BUDGET)
        assert [query_cache_key(v, BUDGET) for v in variants] == [key] * 3
        assert query_cache_key(base.build(), BUDGET) == query_cache_key(
            variants[1].build(), BUDGET
        )

    def test_missing_builder_source_makes_the_query_uncacheable(self, monkeypatch):
        monkeypatch.setattr(attacks_module, "builder_source", lambda name: None)
        query = ALL_ATTACKS[0].deferred_query(
            CapabilitySet.empty(), (1000,) * 3, (1000,) * 3, frozenset({"open"})
        )
        assert query.source is None
        assert query_cache_key(query, BUDGET) is None

    def test_primed_analyze_builds_no_query(self, monkeypatch, tmp_path):
        program = spec_by_name("passwd")
        keys = []
        derive = engine_module.query_cache_key

        def recording(*args):
            keys.append(derive(*args))
            return keys[-1]

        monkeypatch.setattr(engine_module, "query_cache_key", recording)
        builds = counting(monkeypatch, Attack, "build_query")
        cold = PrivAnalyzer(verdict_store=tmp_path)
        cold.analyze(program)
        # Cold: one build per distinct key, each a store miss.
        assert len(builds) == len(set(keys)) == cold.engine.store.misses
        assert 0 < len(builds) < len(keys)

        builds.clear()
        warm = PrivAnalyzer(verdict_store=tmp_path)
        served = warm.analyze(program)
        assert warm.engine.store.hits > 0 and warm.engine.store.misses == 0
        assert builds == []
        assert all(
            report.from_cache and report.query.name == f"{phase.phase.name}/attack{a}"
            for phase in served.phases
            for a, report in phase.verdicts.items()
        )


class TestUncacheableGoals:
    def test_two_checks_run_two_searches_and_publish_nothing(self, tmp_path):
        searches = []

        def counting_check(query, budget, **kwargs):
            searches.append(query.name)
            return check(query, budget, **kwargs)

        store = SharedVerdictStore(tmp_path)
        engine = QueryEngine(
            budget=BUDGET, cache=QueryCache(), store=store, checker=counting_check
        )
        query = shadow_query(goal=opaque_goal(object()))
        first = engine.check(query)
        second = engine.check(query)
        assert first.verdict == second.verdict
        assert not first.from_cache and not second.from_cache
        assert len(searches) == 2
        assert len(engine.cache) == 0
        assert store.published == 0 and store.entry_count() == 0

    def test_batch_searches_each_uncacheable_query(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        engine = QueryEngine(budget=BUDGET, cache=QueryCache(), store=store)
        goal = opaque_goal(object())
        reports = engine.run_queries(
            [shadow_query("a", goal=goal), shadow_query("b", goal=goal)]
        )
        assert [report.query.name for report in reports] == ["a", "b"]
        assert not any(report.from_cache for report in reports)
        assert len(engine.cache) == 0 and store.entry_count() == 0


def ticking_check(tick=1.0):
    """``check`` on a clock that advances ``tick`` seconds per reading."""
    ticks = itertools.count()
    return functools.partial(check, clock=lambda: next(ticks) * tick)


class TestTimeoutCaching:
    WALL_CLOCK = SearchBudget(max_states=50_000, max_seconds=0.5)

    def test_wall_clock_timeout_is_neither_cached_nor_published(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        engine = QueryEngine(
            budget=self.WALL_CLOCK, cache=QueryCache(), store=store,
            checker=ticking_check(),
        )
        first = engine.check(shadow_query())
        assert first.verdict is Verdict.TIMEOUT
        assert first.elapsed > self.WALL_CLOCK.max_seconds
        second = engine.check(shadow_query())
        assert not second.from_cache
        assert len(engine.cache) == 0
        assert store.published == 0 and store.entry_count() == 0

    def test_batch_siblings_share_a_wall_clock_timeout(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        engine = QueryEngine(
            budget=self.WALL_CLOCK, cache=QueryCache(), store=store,
            checker=ticking_check(),
        )
        reports = engine.run_queries([shadow_query("a"), shadow_query("b")])
        assert [report.verdict for report in reports] == [Verdict.TIMEOUT] * 2
        assert reports[1].elapsed == reports[0].elapsed  # one search, shared
        assert len(engine.cache) == 0 and store.entry_count() == 0

    def test_state_budget_timeout_is_published(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        budget = SearchBudget(max_states=1, max_seconds=30.0)
        engine = QueryEngine(budget=budget, cache=QueryCache(), store=store)
        # The open succeeds only after setuid(0), two states in: beyond
        # the 1-state budget, and reachable, so the abstract pre-check
        # cannot prove it and the search runs out of states.
        config = Configuration(
            [
                model.process_for_user(1, uid=1000, gid=1000),
                model.file_obj(3, name="/etc/shadow", owner=0, group=42, perms=0o600),
                model.user(4, 1000),
                model.user(5, 0),
                syscalls.sys_setuid(1, 0, ["CapSetuid"]),
                syscalls.sys_open(1, 3, "r", []),
            ]
        )
        query = RosaQuery("stuck", config, goals.file_opened_for_read(3))
        report = engine.check(query)
        assert not report.proved
        assert report.verdict is Verdict.TIMEOUT
        assert report.elapsed <= budget.max_seconds
        assert store.published == 1
        assert engine.check(query).from_cache


class TestQueryCache:
    def test_hit_returns_identical_verdict_and_witness(self):
        engine = QueryEngine(budget=BUDGET, cache=QueryCache())
        first = engine.check(shadow_query("first"))
        second = engine.check(shadow_query("second"))
        assert not first.from_cache and second.from_cache
        assert second.verdict == first.verdict
        assert second.witness == first.witness
        assert second.states_explored == first.states_explored
        assert second.stats.peak_frontier == first.stats.peak_frontier
        # The served report belongs to the asking query, not the cached one.
        assert second.query.name == "second"

    def test_in_memory_hit_keeps_compromised_state(self):
        engine = QueryEngine(budget=BUDGET, cache=QueryCache())
        first = engine.check(shadow_query())
        second = engine.check(shadow_query())
        assert second.compromised_state == first.compromised_state

    def test_no_cache_always_searches(self):
        engine = QueryEngine(budget=BUDGET, cache=None)
        assert not engine.check(shadow_query()).from_cache
        assert not engine.check(shadow_query()).from_cache

    def test_track_states_bypasses_cache(self):
        engine = QueryEngine(budget=BUDGET, cache=QueryCache())
        engine.check(shadow_query())
        report = engine.check(shadow_query(), track_states=True)
        assert not report.from_cache
        assert report.witness_states  # the whole point of bypassing

    def test_lru_eviction(self):
        cache = QueryCache(capacity=2)
        engine = QueryEngine(budget=BUDGET, cache=cache)
        engine.check(shadow_query(perms=0o640))
        engine.check(shadow_query(perms=0o600))
        engine.check(shadow_query(perms=0o644))
        assert len(cache) == 2
        assert not engine.check(shadow_query(perms=0o640)).from_cache

    def test_hit_rate(self):
        cache = QueryCache()
        engine = QueryEngine(budget=BUDGET, cache=cache)
        engine.check(shadow_query())
        engine.check(shadow_query())
        engine.check(shadow_query())
        assert cache.hits == 2 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(2 / 3)


class TestRunQueries:
    PRIVS = CapabilitySet.of("CAP_DAC_READ_SEARCH", "CAP_SETUID", "CAP_KILL")
    SURFACE = frozenset({"open", "setuid", "kill", "socket", "bind"})
    IDS = ((1000, 0, 0), (1000, 1000, 1000))

    def serial_reports(self, requests):
        return [check(request.query, BUDGET) for request in requests]

    def test_batch_matches_serial_check(self):
        requests = attack_requests(self.PRIVS, *self.IDS, self.SURFACE)
        engine = QueryEngine(budget=BUDGET, cache=QueryCache())
        batch = engine.run_queries(requests)
        for batched, serial in zip(batch, self.serial_reports(requests)):
            assert batched.verdict == serial.verdict
            assert batched.witness == serial.witness

    def test_batch_dedupes_identical_queries(self):
        engine = QueryEngine(budget=BUDGET, cache=QueryCache())
        reports = engine.run_queries(
            [shadow_query("a"), shadow_query("b"), shadow_query("c")]
        )
        assert [report.query.name for report in reports] == ["a", "b", "c"]
        assert len({report.verdict for report in reports}) == 1
        assert engine.cache.misses == 3 and len(engine.cache) == 1

    def test_auto_mode_stays_serial_at_repro_budgets(self):
        # Every distinct search runs in this process, so a batch of bare
        # queries answers in request order.
        queries = [shadow_query("a"), shadow_query(perms=0o600)]
        reports = QueryEngine(budget=BUDGET, cache=None).run_queries(queries)
        assert [report.query.name for report in reports] == ["a", "read-shadow"]
        assert [report.verdict for report in reports] == [
            check(query, BUDGET).verdict for query in queries
        ]

    def test_empty_batch(self):
        assert QueryEngine(budget=BUDGET).run_queries([]) == []

    def test_cache_metrics_emitted(self):
        telemetry = Telemetry.enabled()
        engine = QueryEngine(budget=BUDGET, cache=QueryCache(), telemetry=telemetry)
        engine.run_queries([shadow_query("a")])
        engine.run_queries([shadow_query("b")])
        metrics = telemetry.metrics.snapshot()
        assert metrics["rosa.cache.misses"]["value"] == 1
        assert metrics["rosa.cache.hits"]["value"] == 1
        assert metrics["rosa.batch.queries"]["value"] == 2


def random_configuration(rng: random.Random) -> Configuration:
    """A small random mix of objects and pending syscall messages."""
    caps = rng.sample(
        ["CapDacReadSearch", "CapSetuid", "CapKill", "CapNetBindService"],
        k=rng.randint(0, 3),
    )
    elements = [
        model.process_for_user(1, uid=rng.choice([0, 1000]), gid=1000),
        model.file_obj(3, name="/etc/shadow", owner=0, group=42,
                       perms=rng.choice([0o600, 0o640, 0o644])),
        model.user(4, 1000),
        model.user(5, 0),
    ]
    message_pool = [
        syscalls.sys_open(1, 3, "r", caps),
        syscalls.sys_setuid(1, 0, caps),
        syscalls.sys_kill(1, 1, model.SIGKILL, caps),
        syscalls.sys_chmod(1, 3, 0o777, caps),
        syscalls.sys_socket(1, caps),
    ]
    elements.extend(rng.sample(message_pool, k=rng.randint(0, len(message_pool))))
    return Configuration(elements)


class TestRuleIndexing:
    def test_indexed_successors_match_unindexed_on_random_configurations(self):
        indexed = ObjectSystem("UNIX", unix_rules(), indexed=True)
        brute = ObjectSystem("UNIX", unix_rules(), indexed=False)
        rng = random.Random(1789)
        for _ in range(50):
            config = random_configuration(rng)
            fast = [(label, nxt.key) for label, nxt in indexed.successors(config)]
            slow = [(label, nxt.key) for label, nxt in brute.successors(config)]
            assert fast == slow

    def test_indexed_verdicts_match_unindexed(self):
        base = shadow_query()
        plain = check(base, BUDGET)
        brute = check(
            dataclasses.replace(
                base, system=ObjectSystem("UNIX", unix_rules(), indexed=False)
            ),
            BUDGET,
        )
        assert plain.verdict == brute.verdict
        assert plain.witness == brute.witness
        assert plain.states_seen == brute.states_seen


class TestVerdictParity:
    """The acceptance bar: engine on vs off is bit-identical end to end."""

    @pytest.mark.parametrize("program", ["passwd", "thttpd"])
    def test_pipeline_parity_engine_on_vs_off(self, program):
        # Fresh specs per run: workload env lists are consumed by the VM.
        with_engine = PrivAnalyzer().analyze(spec_by_name(program))
        uncached = PrivAnalyzer()
        uncached.engine = QueryEngine(cache=None)
        without_cache = uncached.analyze(spec_by_name(program))
        assert len(with_engine.phases) == len(without_cache.phases)
        for cached, plain in zip(with_engine.phases, without_cache.phases):
            assert cached.phase.name == plain.phase.name
            assert sorted(cached.verdicts) == sorted(plain.verdicts)
            for attack_id in cached.verdicts:
                lhs = cached.verdicts[attack_id]
                rhs = plain.verdicts[attack_id]
                assert lhs.verdict == rhs.verdict
                assert lhs.witness == rhs.witness
        for attack in ALL_ATTACKS:
            assert with_engine.vulnerability_window(
                attack.attack_id
            ) == without_cache.vulnerability_window(attack.attack_id)
        assert (
            with_engine.invulnerable_window() == without_cache.invulnerable_window()
        )

    def test_privsep_exposure_parity(self):
        from repro.core.multiprocess import analyze_multiprocess

        cached = analyze_multiprocess(spec_by_name("sshdPrivsep"))
        plain = analyze_multiprocess(spec_by_name("sshdPrivsep"))
        plain.engine = QueryEngine(cache=None)
        budget = dataclasses.replace(DEFAULT_MULTIPROCESS_BUDGET, max_states=50_000)
        assert cached.exposure_table(budget) == plain.exposure_table(budget)

    def test_pipeline_reuses_verdicts_across_phases(self, monkeypatch):
        # The engine binds its checker at construction: count from here.
        searches = counting(monkeypatch, engine_module, "check")
        proofs = proving(monkeypatch)
        analyzer = PrivAnalyzer()
        analyzer.analyze(spec_by_name("passwd"))
        stats = analyzer.engine.cache_stats()
        # passwd issues 20 phase×attack queries but only 17 are distinct:
        # the abstract pre-check proves 4 of them, and 13 are searched.
        assert len(proofs) == 17 and proofs.count(True) == 4
        assert len(searches) == 13
        assert stats["misses"] == 17
        assert stats["hits"] == 3

        # A warm rerun on the same analyzer is answered entirely by L1.
        analyzer.analyze(spec_by_name("passwd"))
        stats = analyzer.engine.cache_stats()
        assert len(proofs) == 17
        assert len(searches) == 13
        assert stats["misses"] == 17
        assert stats["hits"] == 3 + 20

    def test_cold_batch_derives_each_key_once(self, monkeypatch):
        # The engine's fixed per-query work on a cold tiny batch, as
        # counts: one key per request and one search per distinct key.
        requests = phase_requests("passwd")
        keys = counting(monkeypatch, engine_module, "query_cache_key")
        searches = counting(monkeypatch, engine_module, "check")
        proofs = proving(monkeypatch)
        engine = QueryEngine(cache=QueryCache())
        engine.run_queries(requests)
        assert len(requests) == 20
        assert len(keys) == 20
        # 17 distinct keys: 4 proved, 13 searched.
        assert len(proofs) == 17 and proofs.count(True) == 4
        assert len(searches) == 13
