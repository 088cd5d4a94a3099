"""Search profiling: attribution coverage, parity, determinism."""

from pathlib import Path

import pytest

from repro.core import PrivAnalyzer
from repro.programs import spec_by_name
from repro.rosa import check
from repro.rosa.dsl import parse_query
from repro.telemetry import ManualClock, Profiler

pytestmark = pytest.mark.telemetry

QUERY_PATH = Path(__file__).parent.parent / "examples" / "queries" / "figure2.rosa"


def figure2_query():
    return parse_query(QUERY_PATH.read_text(), name="figure2")


class TestParity:
    """The profiler wraps injected callables; the search never changes."""

    def test_check_verdict_and_costs_identical(self):
        plain = check(figure2_query())
        profiler = Profiler()
        profiled = check(figure2_query(), profiler=profiler)
        assert profiled.verdict is plain.verdict
        assert profiled.witness == plain.witness
        assert profiled.states_seen == plain.states_seen
        assert profiled.states_explored == plain.states_explored
        assert profiled.stats.peak_frontier == plain.stats.peak_frontier
        assert profiled.stats.dedup_hits == plain.stats.dedup_hits
        assert profiled.stats.max_depth == plain.stats.max_depth
        assert profiler.records  # and the profiler actually saw the search

    def test_analyze_verdicts_and_exposure_bit_identical(self):
        # su's instruction stream is deterministic (no clock-driven
        # loops), so the whole exposure table must match bit for bit.
        spec = spec_by_name("su")
        plain = PrivAnalyzer().analyze(spec)
        profiled = PrivAnalyzer(profiler=Profiler()).analyze(spec)
        assert profiled.render_table() == plain.render_table()
        for attack_id in sorted(plain.phases[0].verdicts):
            assert profiled.vulnerability_window(
                attack_id
            ) == plain.vulnerability_window(attack_id)
        assert profiled.invulnerable_window() == plain.invulnerable_window()

    def test_disabled_profiler_is_ignored_end_to_end(self):
        profiler = Profiler(enabled=False)
        report = check(figure2_query(), profiler=profiler)
        assert report.verdict is not None
        assert profiler.records == {}


class TestAttribution:
    def test_search_root_is_at_least_95_percent_attributed(self):
        profiler = Profiler()
        check(figure2_query(), profiler=profiler)
        roots = profiler.to_report()["roots"]
        assert roots["rosa.search"]["attributed_fraction"] >= 0.95

    def test_rule_frames_carry_attempt_and_application_counters(self):
        profiler = Profiler()
        check(figure2_query(), profiler=profiler)
        rules = {
            stack[1]: record
            for stack, record in profiler.records.items()
            if len(stack) == 2 and stack[1].startswith("rule:")
        }
        assert rules, "no per-rule records"
        assert all(r.counters.get("attempts", 0) > 0 for r in rules.values())
        # The figure-2 witness applies setuid/chown/chmod/open rules.
        assert rules["rule:open"].counters.get("applications", 0) > 0

    def test_search_times_hashing_and_goal(self):
        profiler = Profiler()
        check(figure2_query(), profiler=profiler)
        assert ("rosa.search", "hash.incremental") in profiler.records
        assert ("rosa.search", "goal") in profiler.records


class TestPipelineFrames:
    def test_engine_and_vm_frames_present(self):
        profiler = Profiler()
        PrivAnalyzer(profiler=profiler).analyze(spec_by_name("su"))
        stacks = set(profiler.records)
        assert ("engine", "worker:0", "execute") in stacks
        assert ("engine", "worker:0", "queue_wait") in stacks
        assert ("engine", "key_derivation") in stacks
        assert ("engine", "cache.lookup") in stacks
        assert ("vm",) in stacks
        assert any(
            stack[0] == "vm" and stack[-1].startswith("op:") for stack in stacks
        )
        assert ("vm", "intrinsic:__chrono_count") in stacks
        roots = profiler.to_report()["roots"]
        assert roots["vm"]["attributed_fraction"] >= 0.95

    def test_cache_lookup_counters_match_engine_stats(self):
        profiler = Profiler()
        analyzer = PrivAnalyzer(profiler=profiler)
        analyzer.analyze(spec_by_name("su"))
        counters = profiler.records[("engine", "cache.lookup")].counters
        stats = analyzer.engine.cache_stats()
        assert counters.get("hits", 0) == stats["hits"]
        assert counters.get("misses", 0) == stats["misses"]


class TestDeterminism:
    def run_once(self):
        clock = ManualClock(tick=0.001)
        profiler = Profiler(clock=clock)
        # One clock drives both the search budget and the profiler, so
        # the interleaving of readings is identical across runs.
        check(figure2_query(), clock=clock, profiler=profiler)
        return profiler

    def test_manual_clock_reports_are_bit_identical(self):
        assert self.run_once().to_json() == self.run_once().to_json()

    def test_manual_clock_collapsed_is_bit_identical(self):
        assert self.run_once().to_collapsed() == self.run_once().to_collapsed()
