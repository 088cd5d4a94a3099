"""Standard-format exporters: Perfetto trace-event JSON and Prometheus text.

Also pins the span-JSONL asymmetry: attributes that are not JSON
values are exported through ``default=repr``, so a round trip yields
their repr *string*, not the original object.
"""

import json
import re

import pytest

from repro.telemetry import (
    ManualClock,
    MetricsRegistry,
    Tracer,
    metrics_to_prometheus,
    prometheus_name,
    render_progress,
    spans_from_jsonl,
    spans_to_jsonl,
    spans_to_trace_events,
    trace_event_json,
)

pytestmark = pytest.mark.telemetry


def traced_run():
    """A deterministic two-level trace: root at t=0, child at t=1."""
    tracer = Tracer(clock=ManualClock(start=0.0, tick=1.0))
    with tracer.span("pipeline.analyze", program="passwd"):
        with tracer.span("compile", insertions=3):
            pass
    return tracer


class TestSpanJsonlAsymmetry:
    def test_non_json_attribute_round_trips_as_repr_string(self):
        tracer = Tracer(clock=ManualClock(tick=1.0))
        caps = frozenset({"CapSetuid"})
        with tracer.span("stage", caps=caps, count=2):
            pass
        restored = spans_from_jsonl(spans_to_jsonl(tracer))
        assert len(restored) == 1
        attributes = restored[0]["attributes"]
        # JSON-native values survive; everything else degrades to repr.
        assert attributes["count"] == 2
        assert attributes["caps"] == repr(caps)
        assert isinstance(attributes["caps"], str)

    def test_blank_lines_ignored(self):
        tracer = traced_run()
        text = spans_to_jsonl(tracer) + "\n\n"
        assert len(spans_from_jsonl(text)) == 2


class TestTraceEventExport:
    def test_events_carry_the_perfetto_schema_fields(self):
        events = spans_to_trace_events(traced_run())
        assert isinstance(events, list)
        for event in events:
            assert event["ph"] in ("M", "X", "C")
            assert "pid" in event and "tid" in event
        complete = [event for event in events if event["ph"] == "X"]
        assert len(complete) == 2
        for event in complete:
            assert set(event) >= {"name", "ph", "ts", "dur", "pid", "tid", "args"}

    def test_timestamps_are_microseconds_from_the_injected_clock(self):
        events = spans_to_trace_events(traced_run())
        by_name = {event["name"]: event for event in events if event["ph"] == "X"}
        # Root opens at t=0 s; child at t=1 s and closes at t=2 s.
        assert by_name["pipeline.analyze"]["ts"] == 0.0
        assert by_name["compile"]["ts"] == 1_000_000.0
        assert by_name["compile"]["dur"] == 1_000_000.0
        # Parent wholly encloses the child, so the viewer nests them.
        root = by_name["pipeline.analyze"]
        child = by_name["compile"]
        assert root["ts"] <= child["ts"]
        assert root["ts"] + root["dur"] >= child["ts"] + child["dur"]

    def test_metadata_event_names_the_process(self):
        events = spans_to_trace_events(traced_run())
        assert events[0]["ph"] == "M"
        assert events[0]["args"]["name"] == "privanalyzer"

    def test_metric_counter_tracks(self):
        metrics = MetricsRegistry()
        metrics.counter("rosa.queries").inc(4)
        metrics.gauge("rosa.peak_frontier").set(17)
        metrics.histogram("rosa.query_seconds").observe(0.5)  # no track
        events = spans_to_trace_events(traced_run(), metrics)
        counters = {e["name"]: e for e in events if e["ph"] == "C"}
        assert counters["rosa.queries"]["args"]["value"] == 4
        assert counters["rosa.peak_frontier"]["args"]["value"] == 17
        assert "rosa.query_seconds" not in counters
        # Counter tracks are stamped at the trace's end.
        trace_end = max(e["ts"] + e["dur"] for e in events if e["ph"] == "X")
        assert counters["rosa.queries"]["ts"] == trace_end

    def test_json_document_is_an_array_and_survives_repr_attributes(self):
        tracer = Tracer(clock=ManualClock(tick=1.0))
        with tracer.span("stage", caps=frozenset({"CapChown"})):
            pass
        document = json.loads(trace_event_json(tracer))
        assert isinstance(document, list)
        stage = [e for e in document if e.get("name") == "stage"][0]
        assert isinstance(stage["args"]["caps"], str)


#: One exposition line: sanitised name, float value.
PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]* "
    r"(?:[-+]?(?:\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|\.\d+)|[-+]?Inf|NaN)$"
)


class TestPrometheusExport:
    def registry(self):
        metrics = MetricsRegistry()
        metrics.counter("rosa.cache.hits").inc(3)
        metrics.gauge("rosa.peak_frontier").set(12)
        histogram = metrics.histogram("rosa.query_seconds")
        histogram.observe(0.25)
        histogram.observe(0.75)
        return metrics

    def test_every_sample_line_is_valid_exposition_format(self):
        text = metrics_to_prometheus(self.registry())
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        assert lines
        for line in lines:
            assert PROM_LINE.match(line), line

    def test_counter_gauge_and_summary_series(self):
        text = metrics_to_prometheus(self.registry())
        assert "# TYPE privanalyzer_rosa_cache_hits_total counter" in text
        assert "privanalyzer_rosa_cache_hits_total 3" in text
        assert "# TYPE privanalyzer_rosa_peak_frontier gauge" in text
        assert "# TYPE privanalyzer_rosa_query_seconds summary" in text
        assert "privanalyzer_rosa_query_seconds_count 2" in text
        assert "privanalyzer_rosa_query_seconds_sum 1.0" in text
        assert "privanalyzer_rosa_query_seconds_min 0.25" in text
        assert "privanalyzer_rosa_query_seconds_max 0.75" in text

    def test_empty_registry_renders_nothing(self):
        assert metrics_to_prometheus(MetricsRegistry()) == ""

    def test_name_sanitisation(self):
        assert prometheus_name("vm.syscall.open") == "privanalyzer_vm_syscall_open"
        assert prometheus_name("weird-name!", namespace="") == "weird_name_"
        assert prometheus_name("9lives", namespace="")[0] == "_"


class TestProgressRendering:
    def test_line_shows_rate_depth_and_budget(self):
        from repro.rewriting import ProgressSample

        sample = ProgressSample(
            states_explored=2048, states_seen=3000, frontier=512, depth=7,
            elapsed=2.0, states_per_second=1024.0, budget_used=0.25,
        )
        line = render_progress(sample, label="rosa")
        assert line.startswith("rosa: ")
        assert "2,048 explored" in line
        assert "depth 7" in line
        assert "1,024 states/s" in line
        assert "budget 25%" in line
