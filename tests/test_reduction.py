"""State-space reduction: symmetry canonicalization, POR, hash upkeep.

Covers the three layers separately and together:

* :func:`repro.rewriting.reduction.canonical_key` on synthetic typed
  keys (pure symmetry algebra, no UNIX semantics);
* :class:`repro.rosa.independence.RosaReducer` on real configurations
  (merge counting, ample-set selection, the build gates);
* verdict/witness/exposure parity between reduced and unreduced
  searches — the soundness contract of the whole subsystem;
* the incremental multiset hash that makes raw-state dedup O(1).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rewriting import Configuration, SearchBudget, breadth_first_search
from repro.rewriting.objects import Msg, _mix
from repro.rewriting.reduction import (
    Footprint,
    canonical_key,
    footprint,
    typed_fset,
    typed_id,
)
from repro.rosa import (
    QueryCache,
    QueryEngine,
    RosaQuery,
    Verdict,
    check,
    goals,
    model,
    syscalls,
)
from repro.rosa.engine import CachedOutcome
from repro.rosa.keys import query_cache_key
from repro.rosa.independence import build_reducer
from repro.rosa.query import DEFAULT_BUDGET, unix_system
from repro.rosa.syscalls import WILDCARD

from tests.test_rosa_engine import PHASE_BUDGET, phase_requests

BUDGET = SearchBudget(max_states=50_000, max_seconds=30.0)


# -- canonical_key: pure symmetry algebra -------------------------------------


def uid(value):
    return typed_id("uid", value)


class TestCanonicalKey:
    def test_no_anonymous_ids_returns_none(self):
        elements = [(("obj", "User", uid(10)), 1)]
        assert canonical_key(elements, {"uid": frozenset({10})}) is None

    def test_renamed_states_share_a_key(self):
        # {euid: 10, users: {10, 20}} vs {euid: 20, users: {10, 20}} —
        # the bijection 10<->20 maps one onto the other.
        def state(euid):
            return [
                (("proc", uid(euid)), 1),
                (("user", uid(10)), 1),
                (("user", uid(20)), 1),
            ]

        key_a = canonical_key(state(10), {})
        key_b = canonical_key(state(20), {})
        assert key_a is not None
        assert key_a == key_b

    def test_pinned_ids_block_the_merge(self):
        def state(euid):
            return [
                (("proc", uid(euid)), 1),
                (("user", uid(10)), 1),
                (("user", uid(20)), 1),
            ]

        pinned = {"uid": frozenset({20})}
        key_a = canonical_key(state(10), pinned)
        key_b = canonical_key(state(20), pinned)
        assert key_a is not None and key_b is not None
        assert key_a != key_b

    def test_structurally_different_states_never_merge(self):
        one = [(("proc", uid(10)), 1), (("user", uid(10)), 1)]
        two = [(("proc", uid(10)), 2), (("user", uid(10)), 1)]
        assert canonical_key(one, {}) != canonical_key(two, {})

    def test_fset_members_are_renamed_and_reordered(self):
        # {10, 20} with 10 marked vs {10, 20} with 20 marked: isomorphic.
        def state(marked):
            other = 30 - marked
            return [
                (("grp", typed_fset([uid(marked), uid(other)])), 1),
                (("mark", uid(marked)), 1),
            ]

        assert canonical_key(state(10), {}) == canonical_key(state(20), {})

    def test_tie_break_is_exact_within_cap(self):
        # Two fully interchangeable ids occurring symmetrically: colour
        # refinement cannot split them, the permutation enumeration must
        # still map isomorphic states to one key.
        def state(first, second):
            return [
                (("pair", uid(first), uid(second)), 1),
                (("pair", uid(second), uid(first)), 1),
            ]

        assert canonical_key(state(10, 20), {}) == canonical_key(state(30, 40), {})

    def test_tie_cap_fallback_is_deterministic(self):
        elements = [(("bag", typed_fset([uid(u) for u in (1, 2, 3, 4)])), 1)]
        key_a = canonical_key(elements, {}, tie_cap=1)
        key_b = canonical_key(elements, {}, tie_cap=1)
        assert key_a == key_b

    def test_shared_memo_changes_nothing(self):
        def state(euid):
            return [
                (("proc", uid(euid)), 1),
                (("user", uid(10)), 1),
                (("user", uid(20)), 1),
            ]

        memo = {}
        fresh = [canonical_key(state(e), {}) for e in (10, 20)]
        memoed = [canonical_key(state(e), {}, memo=memo) for e in (10, 20)]
        again = [canonical_key(state(e), {}, memo=memo) for e in (10, 20)]
        assert fresh == memoed == again


class TestFootprint:
    def test_disjoint_footprints_are_independent(self):
        a = footprint(reads={"x"}, writes={"y"})
        b = footprint(reads={"z"}, writes={"w"})
        assert a.independent(b) and b.independent(a)

    @pytest.mark.parametrize(
        "a, b",
        [
            (footprint(writes={"t"}), footprint(writes={"t"})),
            (footprint(writes={"t"}), footprint(reads={"t"})),
            (footprint(reads={"t"}), footprint(writes={"t"})),
        ],
    )
    def test_any_write_overlap_is_dependent(self, a: Footprint, b: Footprint):
        assert not a.independent(b)


# -- RosaReducer: symmetry on real configurations -----------------------------


def symmetric_setuid_config(repeat=2):
    """A process that may become any of three interchangeable users."""
    elements = [
        model.process_for_user(1, 10, 10),
        model.user(4, 10),
        model.user(5, 20),
        model.user(6, 30),
    ]
    elements += [syscalls.sys_setuid(1, WILDCARD, ["CapSetuid"])] * repeat
    return Configuration(elements)


def symmetric_query(repeat=2):
    # The goal names no uid, so all three users stay anonymous and the
    # post-setuid states (euid 10 / 20 / 30) are pairwise isomorphic.
    return RosaQuery(
        "symmetric-setuid",
        symmetric_setuid_config(repeat),
        goals.process_terminated(1),
    )


class TestRosaReducerSymmetry:
    def test_isomorphic_wildcard_branches_merge(self):
        query = symmetric_query(repeat=2)
        full = check(query, BUDGET, reduction=False)
        reduced = check(query, BUDGET, reduction=True)
        assert full.verdict is Verdict.INVULNERABLE
        assert reduced.verdict is full.verdict
        assert reduced.states_seen < full.states_seen
        assert reduced.stats.symmetry_hits > 0
        assert full.stats.symmetry_hits == 0

    def test_merge_counts_match_the_state_shrinkage(self):
        query = symmetric_query(repeat=1)
        full = check(query, BUDGET, reduction=False)
        reduced = check(query, BUDGET, reduction=True)
        # initial + {euid in 10/20/30} collapses to initial + 1 class.
        assert full.states_seen == 4
        assert reduced.states_seen == 2
        assert reduced.stats.symmetry_hits == 2

    def test_goal_pinned_uid_does_not_merge(self):
        # file_owner_is(3, 20) pins uid 20: becoming user 20 is now
        # distinguishable from becoming user 30.
        elements = [
            model.process_for_user(1, 10, 10),
            model.file_obj(3, name="/tmp/f", owner=10, group=10, perms=0o644),
            model.user(4, 10),
            model.user(5, 20),
            model.user(6, 30),
            syscalls.sys_setuid(1, WILDCARD, ["CapSetuid"]),
        ]
        query = RosaQuery(
            "pinned-owner",
            Configuration(elements),
            goals.file_owner_is(3, 20),
        )
        full = check(query, BUDGET, reduction=False)
        reduced = check(query, BUDGET, reduction=True)
        assert reduced.verdict is full.verdict is Verdict.INVULNERABLE
        # 20 is pinned but 30 still merges with nothing (10 is the only
        # other anonymous uid and it owns the file): no state collapses.
        assert reduced.states_seen == full.states_seen

    def test_reducer_declines_without_goal_footprint(self):
        bare_goal = lambda config: False  # noqa: E731 — no .footprint
        reducer = build_reducer(
            symmetric_setuid_config(), bare_goal, unix_system(), BUDGET
        )
        assert reducer is None

    def test_depth_bound_switches_por_off(self):
        # A POR witness can be longer than the shortest one, so under a
        # depth bound only symmetry stays on.
        query = symmetric_query()
        reducer = build_reducer(
            query.initial,
            query.goal,
            unix_system(),
            SearchBudget(max_states=1000, max_depth=5),
        )
        assert reducer is not None
        assert not reducer.por

    def test_canonical_is_stable_across_repeated_calls(self):
        query = symmetric_query()
        reducer = build_reducer(query.initial, query.goal, unix_system(), BUDGET)
        assert reducer is not None
        first = reducer.canonical(query.initial)
        assert reducer.canonical(query.initial) == first


# -- RosaReducer: partial-order reduction -------------------------------------


class TestPartialOrderReduction:
    def por_config(self):
        return Configuration(
            [
                model.process_for_user(1, 10, 10),
                model.socket_obj(5, owner_pid=1, port=0),
                model.user(4, 10),
                syscalls.sys_connect(1, 5, 8080),
                syscalls.sys_setuid(1, 10),
            ]
        )

    def test_invisible_independent_message_leads_ample_set(self):
        # connect writes nothing and is independent of setuid; the goal
        # reads only socket state, which neither message can reach first.
        config = self.por_config()
        goal = goals.socket_bound_to_privileged_port()
        reducer = build_reducer(config, goal, unix_system(), BUDGET)
        assert reducer is not None and reducer.por
        ample = list(reducer.successors(config))
        full = list(unix_system().successors(config))
        labels = {label for label, _ in ample}
        assert labels == {"connect"}
        assert len(ample) < len(full)
        assert reducer.stats.por_pruned == 1
        assert reducer.stats.ample_states == 1

    def test_single_pending_message_is_never_ample(self):
        config = Configuration(
            [
                model.process_for_user(1, 10, 10),
                model.socket_obj(5, owner_pid=1, port=0),
                syscalls.sys_connect(1, 5, 8080),
            ]
        )
        goal = goals.socket_bound_to_privileged_port()
        reducer = build_reducer(config, goal, unix_system(), BUDGET)
        list(reducer.successors(config))
        assert reducer.stats.por_pruned == 0

    def test_goal_visible_message_is_not_deferred(self):
        # bind writes sock.port, which the goal reads: the ample set may
        # not defer it, and connect leading the set is still fine — but a
        # set containing only bind-deferral would be unsound.  Here both
        # messages are pending; connect is ample, bind is deferred, and
        # the verdict must still match the unreduced search.
        config = Configuration(
            [
                model.process_for_user(1, 10, 10),
                model.socket_obj(5, owner_pid=1, port=0),
                model.port_obj(7, 80),
                syscalls.sys_connect(1, 5, 8080),
                syscalls.sys_bind(1, 5, 80, ["CapNetBindService"]),
            ]
        )
        query = RosaQuery(
            "bind-visible", config, goals.socket_bound_to_privileged_port()
        )
        full = check(query, BUDGET, reduction=False)
        reduced = check(query, BUDGET, reduction=True)
        assert full.verdict is Verdict.VULNERABLE
        assert reduced.verdict is Verdict.VULNERABLE


# -- parity: the soundness contract -------------------------------------------


def figure2_query(repeat=1):
    elements = [
        model.process(1, euid=10, ruid=11, suid=12, egid=10, rgid=11, sgid=12),
        model.dir_entry(2, name="/etc", owner=40, group=41, perms=0o777, inode=3),
        model.file_obj(3, name="/etc/passwd", owner=40, group=41, perms=0o000),
        model.user(4, 10),
    ]
    messages = [
        syscalls.sys_open(1, 3, "r"),
        syscalls.sys_setuid(1, WILDCARD, ["CapSetuid"]),
        syscalls.sys_chown(1, WILDCARD, WILDCARD, 41, ["CapChown"]),
        syscalls.sys_chmod(1, WILDCARD, 0o777),
    ]
    elements += messages * repeat
    return RosaQuery(
        "fig2", Configuration(elements), goals.file_opened_for_read(3)
    )


class TestReductionParity:
    @pytest.mark.parametrize("repeat", [1, 2])
    def test_figure2_verdict_and_witness_parity(self, repeat):
        query = figure2_query(repeat)
        full = check(query, BUDGET, reduction=False)
        reduced = check(query, BUDGET, reduction=True)
        assert reduced.verdict is full.verdict is Verdict.VULNERABLE
        assert bool(reduced.witness) == bool(full.witness)

    def test_exhaustive_reduced_never_sees_more_states(self):
        for query in (symmetric_query(1), symmetric_query(2), figure2_query()):
            full = check(query, BUDGET, reduction=False)
            reduced = check(query, BUDGET, reduction=True)
            if full.verdict is Verdict.INVULNERABLE:
                assert reduced.states_seen <= full.states_seen

    @pytest.mark.parametrize(
        "program, repeat, raw_seen, reduced_seen",
        [("passwd", 1, 13, 11), ("thttpd", 2, 522, 198)],
    )
    def test_program_queries_parity(self, program, repeat, raw_seen, reduced_seen):
        # Every phase×attack query of a real program: reduction keeps the
        # verdict and witness existence, never makes an exhaustive search
        # see more states, and on thttpd at repeat 2 sees fewer in total.
        raw_total = reduced_total = 0
        for request in phase_requests(program, repeat):
            raw = check(request.query, PHASE_BUDGET, reduction=False)
            reduced = check(request.query, PHASE_BUDGET, reduction=True)
            assert reduced.verdict is raw.verdict, request.query.name
            assert bool(reduced.witness) == bool(raw.witness), request.query.name
            # Found-verdict searches stop early; only exhaustive ones
            # explore their whole (reduced) space.
            if raw.verdict is Verdict.INVULNERABLE:
                assert reduced.states_seen <= raw.states_seen, request.query.name
                raw_total += raw.states_seen
                reduced_total += reduced.states_seen
        assert (raw_total, reduced_total) == (raw_seen, reduced_seen)

    def test_engine_declines_reduction_on_tiny_searches(self):
        # passwd's searches are below REDUCTION_MIN_SPACE, so the default
        # engine runs them raw: no symmetry merges, no POR prunes, and
        # the raw state counts.
        requests = phase_requests("passwd")
        reduced = QueryEngine(cache=QueryCache()).run_queries(requests)
        raw = QueryEngine(cache=QueryCache(), reduction=False).run_queries(requests)
        assert [r.stats.symmetry_hits for r in reduced] == [0] * len(requests)
        assert [r.stats.por_pruned for r in reduced] == [0] * len(requests)
        assert [r.states_seen for r in reduced] == [r.states_seen for r in raw]

    def test_pipeline_exposure_table_is_bit_identical(self):
        # The whole-tool acceptance check: reduction on vs off must
        # produce byte-equal Table III output for a real program.
        from repro.core.pipeline import PrivAnalyzer
        from repro.programs import spec_by_name

        spec = spec_by_name("passwd")
        tables = []
        for reduction in (False, True):
            analyzer = PrivAnalyzer(use_query_cache=False, reduction=reduction)
            analysis = analyzer.analyze(spec)
            tables.append(analysis.render_table())
        assert tables[0] == tables[1]


# -- engine integration: cache identity and cached stats ----------------------


class TestEngineIntegration:
    def test_cache_key_separates_reduced_and_unreduced(self):
        query = symmetric_query()
        reduced_key = query_cache_key(query, DEFAULT_BUDGET, reduction=True)
        full_key = query_cache_key(query, DEFAULT_BUDGET, reduction=False)
        assert reduced_key != full_key

    def test_cached_outcome_round_trips_reduction_stats(self):
        query = symmetric_query()
        report = check(query, BUDGET, reduction=True)
        assert report.stats.symmetry_hits > 0
        outcome = CachedOutcome.from_report(report)
        revived = CachedOutcome.from_json(outcome.to_json())
        restored = revived.to_report(query)
        assert restored.stats.symmetry_hits == report.stats.symmetry_hits
        assert restored.stats.por_pruned == report.stats.por_pruned


# -- incremental multiset hashing ---------------------------------------------


class TestIncrementalHash:
    def test_add_matches_fresh_construction(self):
        base = symmetric_setuid_config()
        extra = model.user(7, 40)
        assert hash(base.add(extra)) == hash(Configuration(list(base) + [extra]))
        assert base.add(extra) == Configuration(list(base) + [extra])

    def test_remove_matches_fresh_construction(self):
        base = symmetric_setuid_config()
        msg = next(base.messages("setuid"))
        removed = base.remove(msg)
        rebuilt_elements = list(base)
        rebuilt_elements.remove(msg)
        assert hash(removed) == hash(Configuration(rebuilt_elements))
        assert removed == Configuration(rebuilt_elements)

    def test_update_object_matches_fresh_construction(self):
        base = symmetric_setuid_config()
        proc = base.find_object(1)
        updated = base.update_object(proc.update(euid=20))
        rebuilt = [
            proc.update(euid=20) if element == proc else element
            for element in base
        ]
        assert hash(updated) == hash(Configuration(rebuilt))
        assert updated == Configuration(rebuilt)

    def test_hash_ignores_construction_order(self):
        elements = list(symmetric_setuid_config())
        assert hash(Configuration(elements)) == hash(
            Configuration(list(reversed(elements)))
        )

    def test_duplicate_counts_change_the_hash(self):
        msg = Msg("socket", 1, frozenset())
        once = Configuration([msg])
        twice = Configuration([msg, msg])
        assert hash(once) != hash(twice)
        assert once != twice

    def test_mixer_is_spread_not_identity(self):
        # Plain summation of small-int hashes would collide multisets
        # like {1, 3} and {2, 2}; the mixer must keep them apart.
        assert _mix(1) + _mix(3) != _mix(2) + _mix(2)


# -- lazy vs eager canonicalization: partition equivalence --------------------


class TestLazyEagerEquivalence:
    """The lazy visited-set keys must induce exactly the eager partition.

    :meth:`RosaReducer.canonical` returns lazily-resolving keys (hash by
    blinded signature, colour refinement only on collision); soundness
    says two states merge under them iff their eager
    :func:`canonical_key` bodies are equal.  The property is checked on
    whole reachable spaces: group every state by each key kind and
    compare the partitions.
    """

    @staticmethod
    def _reachable(config, limit=200):
        system = unix_system()
        seen = {config.key: config}
        frontier = [config]
        while frontier and len(seen) < limit:
            state = frontier.pop()
            for _label, successor in system.successors(state):
                if successor.key not in seen:
                    seen[successor.key] = successor
                    frontier.append(successor)
        return list(seen.values())

    @staticmethod
    def _partition(keys):
        groups = {}
        for index, key in enumerate(keys):
            groups.setdefault(key, []).append(index)
        return sorted(tuple(indices) for indices in groups.values())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 2), st.permutations([10, 20, 30]))
    def test_lazy_partition_matches_eager(self, repeat, uids):
        elements = [
            model.process_for_user(1, uids[0], uids[0]),
            model.file_obj(3, name="/tmp/f", owner=uids[0], group=10, perms=0o644),
            model.user(4, uids[0]),
            model.user(5, uids[1]),
            model.user(6, uids[2]),
        ]
        elements += [syscalls.sys_setuid(1, WILDCARD, ["CapSetuid"])] * repeat
        config = Configuration(elements)
        reducer = build_reducer(
            config, goals.process_terminated(1), unix_system(), BUDGET
        )
        assert reducer is not None
        states = self._reachable(config)
        lazy = [reducer.canonical(state) for state in states]
        eager = []
        for state in states:
            typed = [
                (reducer._typed_key(element), count)
                for element, count in state._counts.items()
            ]
            body = canonical_key(typed, reducer.pinned)
            # canonical_key returns None on the no-anonymous-ids fast
            # path, where the state is its own representative.
            eager.append(("raw", state.key) if body is None else ("canon", body))
        assert self._partition(lazy) == self._partition(eager)

    def test_lazy_keys_of_renamed_states_compare_equal(self):
        reducer = build_reducer(
            symmetric_setuid_config(),
            goals.process_terminated(1),
            unix_system(),
            BUDGET,
        )
        assert reducer is not None

        def after_setuid(euid):
            base = symmetric_setuid_config()
            proc = base.find_object(1)
            msg = next(base.messages("setuid"))
            return base.remove(msg).update_object(
                proc.update(euid=euid, ruid=euid, suid=euid)
            )

        keys = [reducer.canonical(after_setuid(euid)) for euid in (20, 30)]
        assert hash(keys[0]) == hash(keys[1])
        assert keys[0] == keys[1]
