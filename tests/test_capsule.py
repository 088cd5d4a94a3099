"""Fleet telemetry capsules: worker collection, merge, engine accounting.

The contract under test (docs/OBSERVABILITY.md): pool workers run their
searches under private collectors and return compact picklable capsules;
the parent merges them — clock-skew-normalized spans with a ``worker``
attribute, additively-merged metrics with per-worker labeled variants,
profile subtrees grafted under ``("engine", "worker:N", "execute")``,
progress samples reattached to the reports — and verdicts stay
bit-identical with capsules on versus off.
"""

import dataclasses
import pickle

import pytest

from repro.rewriting import SearchBudget
from repro.rosa import QueryEngine, QueryRequest
from repro.rosa.dsl import DslQuerySpec, parse_query
from repro.rosa.pool import capsule_request
from repro.telemetry import (
    CAPSULE_SCHEMA_VERSION,
    CapsuleCollector,
    CapsuleRequest,
    ManualClock,
    MetricsRegistry,
    Profiler,
    Telemetry,
    Tracer,
    merge_capsule,
    normalize_worker,
    worker_index,
)
from repro.telemetry.audit import SyscallAuditTrail

pytestmark = pytest.mark.telemetry

BUDGET = SearchBudget(max_states=50_000, max_seconds=30.0)

QUERY_TEMPLATE = """
search in UNIX :
  < 1 : Process | euid : 10 , ruid : {ruid} , suid : 12 ,
                  egid : 10 , rgid : 11 , sgid : 12 ,
                  state : run , rdfset : empty , wrfset : empty >
  < 2 : Dir | name : "/etc" , perms : rwxrwxrwx ,
              inode : 3 , owner : 40 , group : 41 >
  < 3 : File | name : "/etc/passwd" , perms : --------- ,
               owner : 40 , group : 41 >
  < 4 : User | uid : 10 >
  open(1, 3, r, empty)
  setuid(1, -1, CapSetuid)
  chown(1, -1, -1, 41, CapChown)
  chmod(1, -1, rwxrwxrwx, empty)
=>* such that 3 in rdfset(1) .
"""


def distinct_requests(count=4):
    """``count`` distinct vulnerable queries, each with a picklable spec."""
    requests = []
    for i in range(count):
        text = QUERY_TEMPLATE.format(ruid=20 + i)
        name = f"q{i}"
        requests.append(
            QueryRequest(parse_query(text, name=name), spec=DslQuerySpec(text, name))
        )
    return requests


@dataclasses.dataclass(frozen=True)
class FakeSample:
    states_explored: int
    states_seen: int = 0
    frontier: int = 1
    depth: int = 1
    elapsed: float = 0.0
    states_per_second: float = 0.0
    budget_used: float = 0.0


class TestWorkerIdentity:
    def test_main_thread_normalizes_to_integer_id(self):
        # Regression: threads whose name lacks the pool suffix used to
        # produce "worker:MainThread"; every name must yield worker:N.
        assigned = {}
        assert normalize_worker("MainThread", assigned) == "worker:0"
        assert normalize_worker("MainThread", assigned) == "worker:0"
        assert normalize_worker("my-custom-thread", assigned) == "worker:1"

    def test_process_worker_names(self):
        assigned = {}
        assert normalize_worker("pid:100", assigned) == "worker:0"
        assert normalize_worker("pid:200", assigned) == "worker:1"
        assert normalize_worker("pid:100", assigned) == "worker:0"


class TestCapsuleCollector:
    def test_capsule_is_plain_picklable_data(self):
        clock = ManualClock(start=5.0, tick=0.5)
        collector = CapsuleCollector(
            CapsuleRequest(trace=True, samples=True, trace_id="abc"),
            clock=clock,
            worker="pid:99",
        )
        with collector.telemetry.tracer.span("rosa.query", query="q"):
            pass
        collector.telemetry.metrics.counter("x").inc(3)
        capsule = collector.capsule()
        clone = pickle.loads(pickle.dumps(capsule))
        assert clone.schema == CAPSULE_SCHEMA_VERSION
        assert clone.worker == "pid:99"
        assert clone.trace_id == "abc"
        assert [span["name"] for span in clone.spans] == ["rosa.query"]
        assert clone.metrics["x"]["value"] == 3
        assert clone.execute_seconds == capsule.execute_seconds > 0.0

    def test_flags_gate_what_is_collected(self):
        collector = CapsuleCollector(CapsuleRequest(trace=False))
        assert not collector.telemetry.tracer.enabled
        assert not collector.telemetry.profiler.enabled
        assert collector.telemetry.audit is None
        assert collector.telemetry.progress is None
        capsule = collector.capsule()
        assert capsule.spans == [] and capsule.samples == []

    def test_sample_decimation_keeps_endpoints_and_bound(self):
        collector = CapsuleCollector(
            CapsuleRequest(trace=False, samples=True, max_samples=8)
        )
        for i in range(1000):
            collector.on_sample(FakeSample(states_explored=i))
        capsule = collector.capsule()
        assert len(capsule.samples) <= 8
        assert capsule.samples[0]["states_explored"] == 0
        assert capsule.samples[-1]["states_explored"] == 999

    def test_observe_report_mirrors_engine_counters(self):
        collector = CapsuleCollector(CapsuleRequest(trace=False))

        class Report:
            states_explored = 41

        collector.observe_report(Report())
        snapshot = collector.capsule().metrics
        assert snapshot["rosa.worker.queries"]["value"] == 1
        assert snapshot["rosa.worker.states_explored"]["value"] == 41


class TestMergeCapsule:
    def build_capsule(self, **overrides):
        worker_clock = ManualClock(start=100.0, tick=0.25)
        collector = CapsuleCollector(
            CapsuleRequest(trace=True, trace_id="key123"),
            clock=worker_clock,
            worker="pid:7",
        )
        with collector.telemetry.tracer.span("rosa.query", query="q"):
            pass
        capsule = collector.capsule()
        return dataclasses.replace(capsule, **overrides) if overrides else capsule

    def test_spans_shift_into_the_parent_clock_domain(self):
        capsule = self.build_capsule()
        parent = Tracer(clock=ManualClock(start=0.0, tick=0.1))
        merged = merge_capsule(
            capsule, worker="worker:2", tracer=parent, anchor=50.0
        )
        assert merged
        (span,) = parent.finished
        offset = 50.0 - capsule.clock_end
        assert span.start == pytest.approx(100.25 + offset)
        assert span.end == pytest.approx(100.5 + offset)
        assert span.end <= 50.0
        assert span.attributes["worker"] == "worker:2"
        assert span.attributes["trace_id"] == "key123"
        assert span.attributes["query"] == "q"

    def test_schema_skew_is_skipped_and_counted(self):
        capsule = self.build_capsule(schema=CAPSULE_SCHEMA_VERSION + 1)
        parent = Tracer(clock=ManualClock())
        metrics = MetricsRegistry()
        assert not merge_capsule(
            capsule, worker="worker:0", anchor=0.0, tracer=parent, metrics=metrics
        )
        assert parent.finished == []
        assert metrics.counter("rosa.capsule.schema_skew").value == 1
        assert "rosa.capsule.merged" not in metrics.snapshot()

    def test_metrics_merge_additively_with_worker_labels(self):
        collector = CapsuleCollector(CapsuleRequest(trace=False))
        worker_metrics = collector.telemetry.metrics
        worker_metrics.counter("rosa.worker.states_explored").inc(10)
        worker_metrics.histogram("rosa.step").observe(2.0)
        worker_metrics.histogram("rosa.step").observe(4.0)
        capsule = collector.capsule()
        metrics = MetricsRegistry()
        metrics.counter("rosa.worker.states_explored").inc(5)
        assert merge_capsule(
            capsule, worker="worker:3", anchor=capsule.clock_end, metrics=metrics
        )
        snapshot = metrics.snapshot()
        assert snapshot["rosa.worker.states_explored"]["value"] == 15
        assert snapshot['rosa.worker.states_explored{worker="3"}']["value"] == 10
        assert snapshot["rosa.step"]["count"] == 2
        assert snapshot['rosa.step{worker="3"}']["mean"] == pytest.approx(3.0)
        assert metrics.counter("rosa.capsule.merged").value == 1

    def test_profile_grafts_under_worker_execute_with_overhead_remainder(self):
        worker_clock = ManualClock(start=0.0, tick=0.0)
        collector = CapsuleCollector(
            CapsuleRequest(trace=False, profile=True), clock=worker_clock
        )
        collector.telemetry.profiler.account(("rosa.search",), 0.6)
        collector.telemetry.profiler.account(("rosa.search", "rule.setuid"), 0.5)
        capsule = collector.capsule()
        capsule = dataclasses.replace(capsule, clock_start=0.0, clock_end=1.0)
        parent = Profiler(clock=ManualClock())
        assert merge_capsule(
            capsule, worker="worker:1", anchor=capsule.clock_end, profiler=parent
        )
        under = ("engine", "worker:1", "execute")
        assert parent.records[under + ("rosa.search",)].seconds == pytest.approx(0.6)
        assert parent.records[
            under + ("rosa.search", "rule.setuid")
        ].seconds == pytest.approx(0.5)
        # execute window (1.0s) minus rooted profile time (0.6s) becomes
        # the derived remainder, so worker attribution stays complete.
        assert parent.records[under + ("capsule.overhead",)].seconds == (
            pytest.approx(0.4)
        )
        parent.account(under, 1.0)
        workers = parent.to_report()["workers"]
        assert workers["worker:1"]["attributed_fraction"] == pytest.approx(1.0)


class TestAuditDroppedGauge:
    def test_publish_refreshes_a_stale_gauge(self):
        # The gauge only updates on record append; direct ring
        # manipulation (or a merge into a full ring) leaves it stale
        # until an exporter republishes.
        metrics = MetricsRegistry()
        trail = SyscallAuditTrail(capacity=2, metrics=metrics)
        for i in range(3):
            trail.record("open", pid=1, args=(i,))
        assert metrics.gauge("kernel.audit.dropped").value == 1
        trail._ring.popleft()
        assert metrics.gauge("kernel.audit.dropped").value == 1  # stale
        assert trail.publish_dropped() == 2
        assert metrics.gauge("kernel.audit.dropped").value == 2

    def test_clear_republishes(self):
        metrics = MetricsRegistry()
        trail = SyscallAuditTrail(capacity=2, metrics=metrics)
        for i in range(3):
            trail.record("open", pid=1, args=(i,))
        trail.clear()
        assert metrics.gauge("kernel.audit.dropped").value == 3


class TestEngineFleet:
    def fleet_engine(self, workers=4, audit=True):
        telemetry = Telemetry.enabled(audit=audit)
        profiler = Profiler()
        telemetry.profiler = profiler
        engine = QueryEngine(
            budget=BUDGET,
            cache=None,
            jobs=workers,
            telemetry=telemetry,
        )
        return engine, telemetry, profiler

    def test_process_pool_merges_worker_capsules(self):
        engine, telemetry, profiler = self.fleet_engine()
        requests = distinct_requests(4)
        reports = engine.run_queries(requests)
        assert [r.verdict.value for r in reports] == ["vulnerable"] * 4
        workers = {
            span.attributes["worker"]
            for span in telemetry.tracer.finished
            if "worker" in span.attributes
        }
        assert len(workers) >= 2 and all(w.startswith("worker:") for w in workers)
        trace_ids = {
            span.attributes.get("trace_id")
            for span in telemetry.tracer.finished
            if "worker" in span.attributes
        }
        assert len(trace_ids) == 4  # one canonical key per distinct query
        fleet = engine.fleet.stats()
        assert fleet["capsule_schema"] == CAPSULE_SCHEMA_VERSION
        assert fleet["mode"] == "process"
        assert sum(stats["tasks"] for stats in fleet["workers"].values()) == 4
        assert all(
            name.startswith("pid:")
            for stats in fleet["workers"].values()
            for name in stats["names"]
        )

    def test_process_pool_queue_wait_and_execute_accounting(self):
        # The scheduling thread must split each worker's submit-to-done
        # window into queue_wait + execute, per worker, instead of the old
        # lump "worker:pool inflight".  The profiler and the progress
        # callback ride on the engine's telemetry (spans stay dark) and
        # still reach the workers: their rule frames graft under
        # execute, and their progress samples come back on the reports.
        profiler = Profiler()
        telemetry = Telemetry(
            profiler=profiler, progress=lambda sample: None, progress_interval=1
        )
        engine = QueryEngine(budget=BUDGET, cache=None, jobs=2, telemetry=telemetry)
        reports = engine.run_queries(distinct_requests(4))
        # One sample per expansion: the default interval would take none.
        assert all(
            len(report.stats.samples) == report.states_explored for report in reports
        )
        stacks = set(profiler.records)
        grafted = {
            stack[1] for stack in stacks if stack[2:4] == ("execute", "rosa.search")
        }
        assert grafted and grafted <= {"worker:0", "worker:1"}
        assert any(
            stack[2:4] == ("execute", "rosa.search") and stack[4].startswith("rule:")
            for stack in stacks
            if len(stack) == 5
        )
        execute = {s for s in stacks if len(s) == 3 and s[2] == "execute"}
        waits = {s for s in stacks if len(s) == 3 and s[2] == "queue_wait"}
        assert execute and waits
        assert all(s[0] == "engine" and s[1].startswith("worker:") for s in execute)
        assert ("engine", "worker:pool", "inflight") not in stacks
        report = profiler.to_report()
        assert report["workers"]
        for stats in report["workers"].values():
            assert stats["attributed_fraction"] >= 0.95

    def test_capsules_on_off_verdict_parity(self):
        # Capsules are on exactly when a parent collector is live; a dark
        # engine's workers ship bare outcomes and no fleet accounting.
        requests = distinct_requests(4)
        engine_on, _, _ = self.fleet_engine()
        engine_off = QueryEngine(budget=BUDGET, cache=None, jobs=4)
        on = engine_on.run_queries(requests)
        off = engine_off.run_queries(requests)
        assert [r.verdict.value for r in on] == [r.verdict.value for r in off]
        assert [list(r.witness) for r in on] == [list(r.witness) for r in off]
        assert [r.states_explored for r in on] == [r.states_explored for r in off]
        assert [r.states_seen for r in on] == [r.states_seen for r in off]
        assert engine_on.fleet.stats()["workers"]
        assert engine_off.fleet.stats() == {}

    def test_worker_ids_stable_across_batches(self):
        engine, _, profiler = self.fleet_engine(workers=2, audit=False)
        engine.run_queries(distinct_requests(2))
        first = dict(engine.fleet.worker_ids)
        assert first and all(name.startswith("pid:") for name in first)
        engine.run_queries(distinct_requests(2))
        for name, index in first.items():
            assert engine.fleet.worker_ids[name] == index
        worker_frames = {
            stack[1]
            for stack in profiler.records
            if len(stack) == 3 and stack[0] == "engine"
        }
        assert worker_frames == {
            f"worker:{index}" for index in engine.fleet.worker_ids.values()
        }

    def test_dark_engine_requests_no_capsules(self):
        engine = QueryEngine(budget=BUDGET, cache=None)
        assert capsule_request(engine.telemetry) is None
