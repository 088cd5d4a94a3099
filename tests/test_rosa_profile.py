"""Search profiling: attribution coverage, parity, determinism."""

import importlib.util
from pathlib import Path

import pytest

from repro.core import PrivAnalyzer
from repro.programs import spec_by_name
from repro.rosa import check
from repro.rosa.defenses import (
    apply_capsicum,
    apply_cfi,
    apply_data_integrity,
    apply_seccomp,
)
from repro.rosa.dsl import parse_query
from repro.telemetry import ManualClock, Profiler, Telemetry

pytestmark = pytest.mark.telemetry

EXAMPLES = Path(__file__).parent.parent / "examples"
QUERY_PATH = EXAMPLES / "queries" / "figure2.rosa"


def figure2_query():
    return parse_query(QUERY_PATH.read_text(), name="figure2")


def defense_example():
    spec = importlib.util.spec_from_file_location(
        "defense_analysis", EXAMPLES / "defense_analysis.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestParity:
    """The profiler wraps injected callables; the search never changes."""

    def test_check_verdict_and_costs_identical(self):
        plain = check(figure2_query())
        profiler = Profiler()
        profiled = check(figure2_query(), telemetry=Telemetry(profiler=profiler))
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
        profiled = PrivAnalyzer(telemetry=Telemetry(profiler=Profiler())).analyze(spec)
        assert profiled.render_table() == plain.render_table()
        for attack_id in sorted(plain.phases[0].verdicts):
            assert profiled.vulnerability_window(
                attack_id
            ) == plain.vulnerability_window(attack_id)
        assert profiled.invulnerable_window() == plain.invulnerable_window()

    @pytest.mark.parametrize("opens_first", [False, True])
    @pytest.mark.parametrize(
        "defense",
        [
            lambda query, order: apply_seccomp(query, ["open"]),
            lambda query, order: apply_cfi(query, order),
            lambda query, order: apply_data_integrity(query),
            lambda query, order: apply_capsicum(query),
        ],
        ids=["seccomp", "cfi", "arg-integrity", "capsicum"],
    )
    def test_defended_queries_search_the_same_states(self, defense, opens_first):
        # The CFI model's system decides its own successors; a profiled
        # search must run them, not the stock rule filter underneath.
        query = defense(*defense_example().build_query(opens_first))
        plain = check(query)
        profiler = Profiler()
        profiled = check(query, telemetry=Telemetry(profiler=profiler))
        assert profiled.verdict is plain.verdict
        assert profiled.witness == plain.witness
        assert profiled.states_seen == plain.states_seen
        assert profiler.records

    def test_disabled_profiler_is_ignored_end_to_end(self):
        profiler = Profiler(enabled=False)
        report = check(figure2_query(), telemetry=Telemetry(profiler=profiler))
        assert report.verdict is not None
        assert profiler.records == {}


class TestAttribution:
    def test_search_root_is_at_least_95_percent_attributed(self):
        profiler = Profiler()
        check(figure2_query(), telemetry=Telemetry(profiler=profiler))
        roots = profiler.to_report()["roots"]
        assert roots["rosa.search"]["attributed_fraction"] >= 0.95

    def test_rule_frames_carry_attempt_and_application_counters(self):
        profiler = Profiler()
        check(figure2_query(), telemetry=Telemetry(profiler=profiler))
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
        check(figure2_query(), telemetry=Telemetry(profiler=profiler))
        assert ("rosa.search", "hash.incremental") in profiler.records
        assert ("rosa.search", "goal") in profiler.records


class TestPipelineFrames:
    def test_engine_and_vm_frames_present(self):
        profiler = Profiler()
        PrivAnalyzer(telemetry=Telemetry(profiler=profiler)).analyze(
            spec_by_name("su")
        )
        stacks = set(profiler.records)
        assert ("engine", "key_derivation") in stacks
        assert ("engine", "cache.lookup") in stacks
        assert ("vm",) in stacks
        assert any(
            stack[0] == "vm" and stack[-1].startswith("op:") for stack in stacks
        )
        assert ("vm", "intrinsic:__chrono_count") in stacks
        roots = profiler.to_report()["roots"]
        assert roots["vm"]["attributed_fraction"] >= 0.95

    def test_serial_analysis_books_no_worker_frames(self):
        # A search is booked once, under its own rosa.search root.
        profiler = Profiler()
        PrivAnalyzer(telemetry=Telemetry(profiler=profiler)).analyze(
            spec_by_name("su")
        )
        assert ("rosa.search",) in profiler.records
        assert not [
            stack
            for stack in profiler.records
            if stack[0] == "engine" and len(stack) > 1
            and stack[1].startswith("worker:")
        ]
        assert "workers" not in profiler.to_report()

    def test_cache_lookup_counters_match_engine_stats(self):
        profiler = Profiler()
        analyzer = PrivAnalyzer(telemetry=Telemetry(profiler=profiler))
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
        check(figure2_query(), clock=clock, telemetry=Telemetry(profiler=profiler))
        return profiler

    def test_manual_clock_reports_are_bit_identical(self):
        assert self.run_once().to_json() == self.run_once().to_json()

    def test_manual_clock_collapsed_is_bit_identical(self):
        assert self.run_once().to_collapsed() == self.run_once().to_collapsed()
