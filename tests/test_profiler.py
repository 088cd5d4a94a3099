"""The hot-path profiler core: records, exporters, the disabled path."""

import json

import pytest

from repro.telemetry import (
    ManualClock,
    NULL_PROFILER,
    PROFILE_SCHEMA_VERSION,
    Profiler,
)
from repro.telemetry.profiler import _NULL_SECTION

pytestmark = pytest.mark.telemetry


class TestRecording:
    def test_account_accumulates_calls_and_seconds(self):
        profiler = Profiler()
        profiler.account(("root", "child"), 0.5)
        profiler.account(("root", "child"), 0.25, calls=3)
        record = profiler.records[("root", "child")]
        assert record.calls == 4
        assert record.seconds == 0.75

    def test_counters_accumulate_independently(self):
        profiler = Profiler()
        profiler.count(("root",), "hits")
        profiler.count(("root",), "hits", 2)
        profiler.count(("root",), "misses")
        assert profiler.records[("root",)].counters == {"hits": 3, "misses": 1}

    def test_section_times_with_the_injected_clock(self):
        clock = ManualClock(tick=1.0)
        profiler = Profiler(clock=clock)
        with profiler.section("stage", "inner"):
            pass
        # Enter reads the clock once, exit once: exactly one tick apart.
        assert profiler.records[("stage", "inner")].seconds == 1.0

    def test_root_books_the_untimed_remainder_as_derived(self):
        profiler = Profiler(clock=ManualClock(tick=1.0))
        profiler.account(("stage", "before"), 5.0)  # booked outside the root
        with profiler.root("stage", "loop"):
            profiler.account(("stage", "timed"), 3.0)
            profiler.account(("stage", "timed", "deeper"), 2.0)
            profiler.clock.advance(9.0)
        # 10 s elapsed (one tick + the advance); 3 s went to a timed child.
        assert profiler.records[("stage",)].seconds == 10.0
        loop = profiler.records[("stage", "loop")]
        assert loop.seconds == 7.0
        assert loop.counters == {"derived": 1}
        assert profiler.to_report()["roots"]["stage"]["attributed_fraction"] == 1.0

    def test_reentering_a_root_adds_to_it(self):
        profiler = Profiler(clock=ManualClock(tick=1.0))
        for timed in (0.25, 0.5):
            with profiler.root("stage", "loop"):
                profiler.account(("stage", "timed"), timed)
        root = profiler.records[("stage",)]
        assert (root.calls, root.seconds) == (2, 2.0)
        loop = profiler.records[("stage", "loop")]
        assert (loop.calls, loop.seconds) == (2, 1.25)
        assert loop.counters == {"derived": 2}

    def test_clear(self):
        profiler = Profiler()
        profiler.account(("a",), 1.0)
        profiler.clear()
        assert profiler.records == {}


class TestDisabled:
    """Near-zero overhead off: no records, no allocations per event."""

    def test_account_and_count_allocate_nothing(self):
        profiler = Profiler(enabled=False)
        profiler.account(("hot", "path"), 1.0)
        profiler.count(("hot", "path"), "hits")
        assert profiler.records == {}

    def test_section_returns_the_shared_null_instance(self):
        profiler = Profiler(enabled=False)
        assert profiler.section("a") is _NULL_SECTION
        assert profiler.section("a", "b") is _NULL_SECTION
        with profiler.section("a"):
            pass
        assert profiler.records == {}

    def test_disabled_root_reads_no_clock(self):
        def clock():
            raise AssertionError("a disabled profiler read its clock")

        profiler = Profiler(clock=clock, enabled=False)
        assert profiler.root("a", "rest") is _NULL_SECTION
        with profiler.root("a", "rest"):
            pass
        assert profiler.records == {}

    def test_null_profiler_is_disabled(self):
        assert NULL_PROFILER.enabled is False
        NULL_PROFILER.account(("x",), 1.0)
        assert NULL_PROFILER.records == {}


class TestSelfTime:
    def test_parent_excludes_direct_children(self):
        profiler = Profiler()
        profiler.account(("root",), 10.0)
        profiler.account(("root", "a"), 3.0)
        profiler.account(("root", "b"), 4.0)
        profiler.account(("root", "a", "deep"), 1.0)
        selfs = profiler.self_seconds()
        assert selfs[("root",)] == pytest.approx(3.0)  # 10 - 3 - 4
        assert selfs[("root", "a")] == pytest.approx(2.0)  # 3 - 1
        assert selfs[("root", "b")] == pytest.approx(4.0)
        assert selfs[("root", "a", "deep")] == pytest.approx(1.0)

    def test_measurement_jitter_clamps_at_zero(self):
        profiler = Profiler()
        profiler.account(("root",), 1.0)
        profiler.account(("root", "child"), 1.5)  # children overshoot
        assert profiler.self_seconds()[("root",)] == 0.0


class TestExporters:
    def build(self):
        profiler = Profiler()
        profiler.account(("search",), 0.01)
        profiler.account(("search", "rule:open"), 0.004)
        profiler.account(("search", "goal"), 0.002)
        profiler.count(("search", "goal"), "hits", 2)
        return profiler

    def test_collapsed_stack_grammar_and_self_semantics(self):
        lines = self.build().to_collapsed().splitlines()
        assert "search;rule:open 4000" in lines
        assert "search;goal 2000" in lines
        # The root line carries self time only: 10ms - 4ms - 2ms.
        assert "search 4000" in lines
        assert lines == sorted(lines)

    def test_collapsed_drops_zero_weight_stacks(self):
        profiler = self.build()
        profiler.account(("search", "rule:never"), 0.0)
        assert "rule:never" not in profiler.to_collapsed()

    def test_report_schema_and_roots(self):
        report = self.build().to_report()
        assert report["schema"] == PROFILE_SCHEMA_VERSION
        assert report["unit"] == "seconds"
        root = report["roots"]["search"]
        assert root["seconds"] == pytest.approx(0.01)
        assert root["attributed_seconds"] == pytest.approx(0.006)
        assert root["attributed_fraction"] == pytest.approx(0.6)
        by_stack = {tuple(r["stack"]): r for r in report["records"]}
        assert by_stack[("search", "goal")]["counters"] == {"hits": 2}
        assert by_stack[("search", "rule:open")]["self_seconds"] == pytest.approx(
            0.004
        )

    def test_attributed_fraction_clamps_at_one(self):
        profiler = Profiler()
        profiler.account(("root",), 1.0)
        profiler.account(("root", "a"), 1.5)
        assert profiler.to_report()["roots"]["root"]["attributed_fraction"] == 1.0

    def test_render_orders_by_self_time_and_respects_limit(self):
        text = self.build().render(limit=2)
        rows = text.splitlines()[2:]
        assert len(rows) == 2
        assert rows[0].startswith("search ") or rows[0].startswith("search;rule:open")
        assert "hits=2" in self.build().render()


class TestDeterminism:
    def drive(self):
        clock = ManualClock(tick=0.001)
        profiler = Profiler(clock=clock)
        for _ in range(3):
            with profiler.section("stage"):
                with profiler.section("stage", "inner"):
                    pass
            profiler.count(("stage",), "loops")
        return profiler

    def test_manual_clock_runs_are_bit_identical(self):
        first, second = self.drive().to_json(), self.drive().to_json()
        assert first == second
        json.loads(first)  # and it is valid JSON
