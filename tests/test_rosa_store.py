"""The shared verdict store: fleet-wide compute-once, fail-closed serving.

The acceptance bar has two halves.  Efficiency: a second engine (or a
second process, or a second client of ``privanalyzer serve``) over a
warm store must serve its searches from disk instead of re-running BFS.
Safety: nothing is ever served that cannot be re-attested — corruption,
schema skew, or a foreign rule system mean recompute, never trust.
"""

import dataclasses
import hashlib
import importlib
import json
import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro.caps import CapabilitySet
from repro.core import PrivAnalyzer
from repro.core.report import analysis_to_dict
from repro.corpus import PrivilegeProfile, ProfileStore
from repro.programs import spec_by_name
from repro.rewriting import ObjectSystem, SearchBudget
from repro.rosa import QueryCache, QueryEngine, Verdict, query_cache_key, unix_rules
from repro.rosa.engine import CachedOutcome
from repro.rosa.keys import system_signature
from repro.rosa.store import (
    LINEAGE_FILE,
    STORE_SCHEMA_VERSION,
    AttestedStore,
    SharedVerdictStore,
    SingleFlight,
    advisory_lock,
    attest,
)
from repro.testkit.oracles import report_fingerprint

from tests.test_rosa_engine import (
    BUDGET,
    attack_requests,
    shadow_query,
    ticking_check,
)


def outcome_for(index: int) -> CachedOutcome:
    """A synthetic, deterministic outcome distinguishable per index."""
    return CachedOutcome(
        verdict="vulnerable" if index % 2 else "invulnerable",
        witness=(f"rule-{index}", "open-file"),
        states_explored=100 + index,
        states_seen=200 + index,
        elapsed=0.0,
        peak_frontier=3,
        dedup_hits=index,
        max_depth=4,
    )


def profile_for(index: int) -> PrivilegeProfile:
    """A synthetic, deterministic profile distinguishable per index."""
    return PrivilegeProfile(
        program=f"prog-{index}",
        schema=1,
        total_instructions=1000 + index,
        phase_count=3,
        windows={"read-shadow": 0.25, "kill-sshd": 0.5},
        invulnerable_window=0.25,
        cap_hold={"CapSetuid": 0.5 + index / 100},
        root_euid_fraction=0.1,
        cred_tuples=2,
        static_surface=["open", "setuid"],
        dynamic_surface=["open"],
    )


def key_for(index: int) -> str:
    return hashlib.sha256(b"stress-key-%d" % index).hexdigest()


@dataclasses.dataclass(frozen=True)
class Kind:
    """One record kind of the attested store, for the shared suite."""

    name: str
    open: object  # root -> store handle
    value: object  # index -> a distinguishable value
    tamper: object  # payload -> None, flips one value in place


KINDS = {
    "verdict": Kind(
        "verdict",
        SharedVerdictStore,
        outcome_for,
        lambda payload: payload.update(verdict="invulnerable"),
    ),
    "profile": Kind(
        "profile",
        ProfileStore,
        profile_for,
        lambda payload: payload["cap_hold"].update(CapSetuid=0.0),
    ),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request) -> Kind:
    return KINDS[request.param]


def rewrite_entry(store, key, edit) -> None:
    """Apply ``edit`` to the JSON entry stored under ``key``."""
    path = store._path(key)
    entry = json.loads(path.read_text())
    edit(entry)
    path.write_text(json.dumps(entry))


class TestAdvisoryLock:
    def test_lock_creates_and_removes_lockfile(self, tmp_path):
        # The lock is an flock on the target itself: taking it creates
        # the target, no sidecar lockfile is made, and leaving the block
        # removes the lock so the next taker wins it at once.
        target = tmp_path / "cache.json"
        with advisory_lock(str(target)):
            assert target.exists()
            with pytest.raises(TimeoutError):
                with advisory_lock(str(target), timeout=0.01):
                    pass  # pragma: no cover
        with advisory_lock(str(target), timeout=0.01):
            pass
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cache.json"]

    def test_contended_lock_times_out_loudly(self, tmp_path):
        target = str(tmp_path / "cache.json")
        with advisory_lock(target):
            with pytest.raises(TimeoutError, match="could not acquire"):
                with advisory_lock(target, timeout=0.05):
                    pass  # pragma: no cover

    def test_stale_lock_is_broken(self, tmp_path):
        # A stale lock is one whose holder died: a child takes the
        # lineage lock and exits holding it, the kernel drops its flock,
        # so the next publisher neither waits the lock out nor loses its
        # lineage record.
        store = SharedVerdictStore(tmp_path)
        lineage = str(tmp_path / LINEAGE_FILE)
        ready, go = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child never returns
            try:
                with advisory_lock(lineage):
                    os.write(go, b"x")
                    os._exit(0)
            finally:
                os._exit(1)
        os.close(go)
        assert os.read(ready, 1) == b"x"
        os.close(ready)
        assert os.waitpid(pid, 0)[1] == 0
        with advisory_lock(lineage, timeout=1.0) as fd:
            assert fd >= 0
        assert store.put(key_for(0), outcome_for(0))
        assert [record["key"] for record in store.lineage()] == [key_for(0)]
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            LINEAGE_FILE, "objects",
        ]


class _SampleStore(AttestedStore):
    kind = "sample"
    encode = staticmethod(lambda value: value)
    decode = staticmethod(lambda payload: payload)


class TestPublish:
    KEY = "ab" + "0" * 62
    PAYLOAD = {
        "verdict": "invulnerable", "witness": ["setuid", "open"], "states": 3,
        "elapsed": 0.125, "proved": False, "note": "caf\u00e9",
    }
    #: The object the streaming ``json.dump`` publisher wrote for this
    #: key and payload: the one-shot encoder must not change a byte.
    OBJECT = (
        b'{"attestation":"863f23afa6cb7ad24ce07ccddb82e2616c097529c2b2e20c35980b2aeadf2e60",'
        b'"binding":"binding-v1",'
        b'"key":"ab00000000000000000000000000000000000000000000000000000000000000",'
        b'"kind":"sample","payload":{"elapsed":0.125,"note":"caf\\u00e9","proved":false,'
        b'"states":3,"verdict":"invulnerable","witness":["setuid","open"]},"schema":2}'
    )

    def test_object_bytes_are_unchanged(self, tmp_path):
        store = _SampleStore(tmp_path, "binding-v1")
        assert store._publish(self.KEY, self.PAYLOAD)
        assert store._path(self.KEY).read_bytes() == self.OBJECT
        assert store._read(self.KEY) == self.PAYLOAD

    def test_a_removed_shard_is_created_again(self, tmp_path):
        store = _SampleStore(tmp_path, "binding-v1")
        assert store._publish(self.KEY, self.PAYLOAD)
        shard = store._path(self.KEY).parent
        store._path(self.KEY).unlink()
        shard.rmdir()
        assert store._publish(self.KEY, self.PAYLOAD)
        assert store._path(self.KEY).read_bytes() == self.OBJECT
        assert len(store.lineage()) == 2


class TestSharedVerdictStore:
    def test_round_trip_is_bit_identical(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        key = key_for(0)
        assert store.get(key) is None  # cold miss
        assert store.put(key, outcome_for(0)) is True
        served = store.get(key)
        assert served == outcome_for(0)
        assert dataclasses.asdict(served) == dataclasses.asdict(outcome_for(0))
        assert store.hits == 1 and store.misses == 1 and store.published == 1

    def test_publish_is_idempotent(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        key = key_for(1)
        assert store.put(key, outcome_for(1)) is True
        assert store.put(key, outcome_for(1)) is False  # already attested
        assert store.published == 1
        assert store.entry_count() == 1

    def test_second_handle_serves_what_first_published(self, tmp_path):
        first = SharedVerdictStore(tmp_path)
        first.put(key_for(2), outcome_for(2))
        second = SharedVerdictStore(tmp_path)
        assert second.get(key_for(2)) == outcome_for(2)
        assert second.hits == 1 and second.rejected == 0

    def test_tampered_outcome_is_rejected_and_recomputable(self, tmp_path, kind):
        store = kind.open(tmp_path)
        key = key_for(3)
        store.put(key, kind.value(3))
        rewrite_entry(store, key, lambda entry: kind.tamper(entry["payload"]))

        assert store.get(key) is None  # fail closed: never served
        assert store.rejected == 1
        # Publishing again is the repair path.
        assert store.put(key, kind.value(3)) is True
        assert store.get(key) == kind.value(3)

    def test_truncated_object_is_rejected(self, tmp_path, kind):
        store = kind.open(tmp_path)
        key = key_for(4)
        store.put(key, kind.value(4))
        store._path(key).write_text('{"schema": 2, "ke')  # torn write
        assert store.get(key) is None
        assert store.rejected == 1

    def test_schema_skew_is_rejected(self, tmp_path, kind):
        store = kind.open(tmp_path)
        key = key_for(5)
        store.put(key, kind.value(5))
        rewrite_entry(
            store, key, lambda entry: entry.update(schema=STORE_SCHEMA_VERSION + 1)
        )
        assert store.get(key) is None
        assert store.rejected == 1

    def test_foreign_rule_signature_is_rejected(self, tmp_path, kind):
        writer = kind.open(tmp_path)
        key = key_for(6)
        writer.put(key, kind.value(6))
        reader = kind.open(tmp_path)
        reader.binding = "0" * 64  # a store bound to other rules
        assert reader.get(key) is None
        assert reader.rejected == 1

    def test_wrong_kind_is_rejected(self, tmp_path, kind):
        store = kind.open(tmp_path)
        key = key_for(7)
        store.put(key, kind.value(7))
        other = "profile" if kind.name == "verdict" else "verdict"
        rewrite_entry(store, key, lambda entry: entry.update(kind=other))
        assert store.get(key) is None
        assert store.rejected == 1

    def test_mismatched_key_is_rejected(self, tmp_path, kind):
        store = kind.open(tmp_path)
        store.put(key_for(8), kind.value(8))
        # A valid entry copied under another key's name.
        moved = store._path(key_for(9))
        moved.parent.mkdir(parents=True, exist_ok=True)
        moved.write_text(store._path(key_for(8)).read_text())
        assert store.get(key_for(9)) is None
        assert store.rejected == 1
        assert store.get(key_for(8)) == kind.value(8)

    def test_verdict_store_under_other_rules_is_rejected(self, tmp_path):
        key = key_for(6)
        SharedVerdictStore(tmp_path).put(key, outcome_for(6))
        subset = ObjectSystem("UNIX-open-only", unix_rules()[:1])
        reader = SharedVerdictStore(tmp_path, system=subset)
        assert reader.binding == system_signature(subset)
        assert reader.get(key) is None
        assert reader.rejected == 1

    def test_attestation_covers_every_field(self, tmp_path):
        binding = system_signature()
        payload = outcome_for(7).to_json()
        base = attest("verdict", key_for(7), binding, payload)
        assert attest("profile", key_for(7), binding, payload) != base
        assert attest("verdict", key_for(8), binding, payload) != base
        assert attest("verdict", key_for(7), "0" * 64, payload) != base
        assert attest("verdict", key_for(7), binding, outcome_for(8).to_json()) != base

    def test_lineage_records_every_publish(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        for index in range(3):
            store.put(key_for(index), outcome_for(index))
        store.put(key_for(0), outcome_for(0))  # idempotent: no new record
        records = store.lineage()
        assert [r["key"] for r in records] == [key_for(i) for i in range(3)]
        for index, record in enumerate(records):
            assert record["binding"] == store.binding
            assert record["kind"] == "verdict"
            assert record["verdict"] == outcome_for(index).verdict
            assert "ts" in record and "pid" in record

    def test_stats_shape(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        store.put(key_for(0), outcome_for(0))
        store.get(key_for(0))
        store.get(key_for(1))
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["published"] == 1 and stats["rejected"] == 0
        assert stats["schema"] == STORE_SCHEMA_VERSION
        assert stats["kind"] == "verdict"


RULE_MODULE = """
from repro.rosa.rules import OpenRule


class PluggableOpen(OpenRule):
    label = "open"
"""

EDITED_RULE_MODULE = RULE_MODULE + """
    def fire(self, config, message, proc):
        return iter(())  # the edit: open never succeeds
"""


class TestRuleSemanticsBinding:
    def test_edited_rule_body_invalidates_published_verdicts(
        self, tmp_path, monkeypatch
    ):
        """Same class name, same label, different body: nothing is served."""
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        source = tmp_path / "pluggable_rules.py"
        source.write_text(RULE_MODULE)
        module = importlib.import_module("pluggable_rules")
        try:
            def query():
                system = ObjectSystem("UNIX", [module.PluggableOpen()])
                return dataclasses.replace(shadow_query(), system=system)

            store_root = tmp_path / "store"
            before = query()
            engine = QueryEngine(
                budget=BUDGET, cache=QueryCache(),
                store=SharedVerdictStore(store_root),
            )
            published = engine.check(before)
            assert published.verdict.value == "vulnerable"
            assert engine.store.published == 1

            source.write_text(EDITED_RULE_MODULE)
            importlib.reload(module)
            after = query()
            assert query_cache_key(after, BUDGET) != query_cache_key(before, BUDGET)

            store = SharedVerdictStore(store_root)
            fresh = QueryEngine(budget=BUDGET, cache=QueryCache(), store=store)
            report = fresh.check(after)
            assert not report.from_cache
            assert store.hits == 0
            assert report.verdict.value == "invulnerable"
        finally:
            sys.modules.pop("pluggable_rules", None)

    def test_signature_binds_rule_parameters(self):
        rules = unix_rules()
        tweaked = type(rules[0])()
        tweaked.message_name = "creat"  # an instance attribute, same label
        assert system_signature(ObjectSystem("UNIX", rules)) == system_signature()
        assert system_signature(
            ObjectSystem("UNIX", (tweaked,) + rules[1:])
        ) != system_signature()


# -- multi-process stress ------------------------------------------------------

STRESS_KEYS = 24


def _stress_writer(root: str, worker: int, barrier) -> None:
    """Publish every stress key, racing the other writers."""
    store = SharedVerdictStore(root)
    barrier.wait()
    indices = list(range(STRESS_KEYS))
    # Different walk order per worker maximises same-key collisions.
    if worker % 2:
        indices.reverse()
    for index in indices:
        store.put(key_for(index), outcome_for(index))


def _stress_reader(root: str, barrier, failures) -> None:
    """Read every key repeatedly while writers race; report anomalies."""
    store = SharedVerdictStore(root)
    barrier.wait()
    for _ in range(30):
        for index in range(STRESS_KEYS):
            served = store.get(key_for(index))
            if served is not None and served != outcome_for(index):
                failures.put(f"torn read at key {index}: {served!r}")
                return
    if store.rejected:
        failures.put(f"reader rejected {store.rejected} entries mid-race")


class TestMultiProcessStress:
    def test_n_writers_m_readers_no_lost_or_torn_entries(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(6)
        failures = ctx.Queue()
        writers = [
            ctx.Process(target=_stress_writer, args=(str(tmp_path), w, barrier))
            for w in range(3)
        ]
        readers = [
            ctx.Process(target=_stress_reader, args=(str(tmp_path), barrier, failures))
            for _ in range(3)
        ]
        procs = writers + readers
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        assert failures.empty(), failures.get()

        # No lost entries: every key landed exactly once, all attested.
        store = SharedVerdictStore(tmp_path)
        assert store.entry_count() == STRESS_KEYS
        for index in range(STRESS_KEYS):
            assert store.get(key_for(index)) == outcome_for(index)
        assert store.rejected == 0
        # Lineage saw at least one publish per key (racing duplicates of
        # an already-valid object return False and add no record).
        lineage_keys = {record["key"] for record in store.lineage()}
        assert lineage_keys == {key_for(i) for i in range(STRESS_KEYS)}


class TestSingleFlight:
    def test_leader_computes_joiner_is_served(self, tmp_path):
        flight = SingleFlight(SharedVerdictStore(tmp_path), timeout=10.0)
        key = key_for(0)
        assert flight.get(key) is None  # this thread is now the leader
        results = []

        def joiner():
            results.append(flight.get(key))

        thread = threading.Thread(target=joiner)
        thread.start()
        time.sleep(0.05)  # let the joiner block on the in-flight event
        assert flight.put(key, outcome_for(0)) is True
        thread.join(timeout=10)
        assert results == [outcome_for(0)]
        assert flight.leaders == 1
        assert flight.joined == 1
        # One search ran; the joiner never became a second leader.
        assert flight.store.published == 1

    def test_joiner_falls_back_to_live_compute_on_leader_death(self, tmp_path):
        flight = SingleFlight(SharedVerdictStore(tmp_path), timeout=0.05)
        key = key_for(1)
        assert flight.get(key) is None  # leader acquires... and "dies"
        assert flight.get(key) is None  # joiner times out: compute live
        # The fallback publish releases the flight for everyone.
        assert flight.put(key, outcome_for(1)) is True
        assert flight.get(key) == outcome_for(1)

    def test_warm_hits_bypass_coalescing(self, tmp_path):
        flight = SingleFlight(SharedVerdictStore(tmp_path))
        flight.get(key_for(2))
        flight.put(key_for(2), outcome_for(2))
        assert flight.get(key_for(2)) == outcome_for(2)
        stats = flight.stats()
        assert stats["single_flight"] == {"leaders": 1, "joined": 0, "inflight": 0}

    def test_release_wakes_joiners_without_a_publish(self, tmp_path):
        flight = SingleFlight(SharedVerdictStore(tmp_path), timeout=10.0)
        key = key_for(3)
        assert flight.get(key) is None
        flight.release(key)
        started = time.monotonic()
        assert flight.get(key) is None  # a new leader, not a 10 s wait
        assert time.monotonic() - started < 5.0
        assert flight.leaders == 2 and flight.joined == 0


def _flight_engine(tmp_path, checker):
    flight = SingleFlight(SharedVerdictStore(tmp_path), timeout=10.0)
    engine = QueryEngine(
        budget=SearchBudget(max_states=50_000, max_seconds=0.5), cache=None, store=flight,
        checker=checker,
    )
    return flight, engine


class TestSingleFlightEngine:
    """A leader that publishes nothing still frees the key's flight."""

    def test_wall_clock_timeout_releases_the_flight(self, tmp_path):
        flight, engine = _flight_engine(tmp_path, ticking_check())
        assert engine.check(shadow_query()).verdict is Verdict.TIMEOUT
        assert flight.stats()["single_flight"]["inflight"] == 0
        started = time.monotonic()
        assert engine.check(shadow_query()).verdict is Verdict.TIMEOUT
        assert time.monotonic() - started < 5.0
        assert flight.leaders == 2 and flight.store.entry_count() == 0

    def test_batch_wall_clock_timeout_releases_the_flight(self, tmp_path):
        flight, engine = _flight_engine(tmp_path, ticking_check())
        engine.run_queries([shadow_query("a"), shadow_query("b")])
        assert flight.stats()["single_flight"]["inflight"] == 0
        engine.run_queries([shadow_query("a")])
        assert flight.leaders == 2 and flight.store.entry_count() == 0

    @pytest.mark.parametrize("batch", [False, True])
    def test_failed_search_releases_the_flight(self, tmp_path, batch):
        def failing(*args, **kwargs):
            raise RuntimeError("search failed")

        flight, engine = _flight_engine(tmp_path, failing)
        with pytest.raises(RuntimeError):
            if batch:
                engine.run_queries([shadow_query()])
            else:
                engine.check(shadow_query())
        assert flight.stats()["single_flight"]["inflight"] == 0


# -- engine integration --------------------------------------------------------


class TestEngineIntegration:
    def test_second_engine_is_store_served_and_bit_identical(self, tmp_path):
        requests = attack_requests(
            CapabilitySet.of("CAP_DAC_READ_SEARCH", "CAP_SETUID", "CAP_KILL"),
            (1000, 0, 0),
            (1000, 1000, 1000),
            frozenset({"open", "setuid", "kill", "socket", "bind"}),
            repeat=2,
        )
        budget = SearchBudget(max_states=20_000, max_seconds=20.0)

        cold_store = SharedVerdictStore(tmp_path)
        cold = QueryEngine(budget=budget, cache=QueryCache(), store=cold_store)
        cold_reports = cold.run_queries(requests)
        assert cold_store.published > 0
        assert cold_store.hits == 0

        warm_store = SharedVerdictStore(tmp_path)
        warm = QueryEngine(budget=budget, cache=QueryCache(), store=warm_store)
        warm_reports = warm.run_queries(requests)

        lookups = warm_store.hits + warm_store.misses
        assert lookups > 0
        assert warm_store.hits / lookups >= 0.9  # the serve-smoke bar
        assert warm_store.rejected == 0
        for cold_report, warm_report in zip(cold_reports, warm_reports):
            assert report_fingerprint(cold_report) == report_fingerprint(
                warm_report
            )
        assert all(report.from_cache for report in warm_reports)

    def test_second_pipeline_client_is_store_served_and_live_identical(
        self, tmp_path
    ):
        # The `privanalyzer serve` scenario at the pipeline level: a
        # second analyzer whose only head start is the store a first
        # one published into.  Compute-once must not compute differently.
        PrivAnalyzer(verdict_store=tmp_path).analyze(spec_by_name("passwd"))
        second = PrivAnalyzer(verdict_store=tmp_path)
        served = second.analyze(spec_by_name("passwd"))
        store = second.engine.store
        assert store.hits / (store.hits + store.misses) >= 0.9
        assert store.rejected == 0

        live = PrivAnalyzer().analyze(spec_by_name("passwd"))
        assert analysis_to_dict(served) == analysis_to_dict(live)
        for served_phase, live_phase in zip(served.phases, live.phases):
            for attack_id, live_report in live_phase.verdicts.items():
                served_report = served_phase.verdicts[attack_id]
                assert served_report.verdict is live_report.verdict
                assert served_report.witness == live_report.witness

    def test_single_check_consults_store_before_searching(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        first = QueryEngine(budget=BUDGET, cache=QueryCache(), store=store)
        report = first.check(shadow_query())
        assert not report.from_cache
        assert store.published == 1

        second = QueryEngine(
            budget=BUDGET, cache=QueryCache(), store=SharedVerdictStore(tmp_path)
        )
        served = second.check(shadow_query("same-content-other-name"))
        assert served.from_cache
        assert report_fingerprint(served) == report_fingerprint(report)

    def test_store_hit_warms_the_in_memory_cache(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        QueryEngine(budget=BUDGET, cache=QueryCache(), store=store).check(
            shadow_query()
        )
        warm_store = SharedVerdictStore(tmp_path)
        engine = QueryEngine(
            budget=BUDGET, cache=QueryCache(), store=warm_store
        )
        engine.check(shadow_query())
        engine.check(shadow_query())
        # Disk was read once; the second check hit the L1.
        assert warm_store.hits == 1
        assert engine.cache.hits == 1

    def test_cache_stats_reports_the_attached_store(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        engine = QueryEngine(budget=BUDGET, cache=QueryCache(), store=store)
        engine.check(shadow_query())
        stats = engine.cache_stats()
        assert stats["store"]["published"] == 1
        assert stats["store"]["entries"] == 1

    def test_store_key_is_the_canonical_query_key(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        engine = QueryEngine(budget=BUDGET, cache=QueryCache(), store=store)
        query = shadow_query()
        engine.check(query)
        assert store._path(query_cache_key(query, BUDGET)).exists()
