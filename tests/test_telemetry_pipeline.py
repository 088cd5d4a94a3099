"""Telemetry wired end-to-end: pipeline spans, metrics, CLI flags."""

import io
import json

import pytest

from repro.cli import main
from repro.core import PrivAnalyzer
from repro.programs import spec_by_name
from repro.telemetry import ManualClock, Telemetry, spans_from_jsonl

pytestmark = pytest.mark.telemetry


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def traced_ping():
    telemetry = Telemetry.enabled()
    analysis = PrivAnalyzer(telemetry=telemetry).analyze(spec_by_name("ping"))
    return telemetry, analysis


class TestPipelineSpans:
    def test_every_stage_is_covered(self, traced_ping):
        telemetry, analysis = traced_ping
        names = telemetry.tracer.names()
        for required in (
            "pipeline.analyze", "compile", "frontend.compile",
            "autopriv.transform", "chronopriv.instrument", "ir.verify",
            "chronopriv-run", "extract.syscalls", "rosa.check-phase",
            "rosa.query",
        ):
            assert required in names, f"missing span {required}"

    def test_one_rosa_query_span_per_phase_attack_pair(self, traced_ping):
        telemetry, analysis = traced_ping
        query_spans = [
            span for span in telemetry.tracer.finished if span.name == "rosa.query"
        ]
        expected = len(analysis.phases) * len(analysis.phases[0].verdicts)
        assert len(query_spans) == expected
        assert all("verdict" in span.attributes for span in query_spans)

    def test_phase_spans_nest_under_analyze(self, traced_ping):
        telemetry, _ = traced_ping
        spans = {span.span_id: span for span in telemetry.tracer.finished}
        root = next(
            span for span in spans.values() if span.name == "pipeline.analyze"
        )
        for span in spans.values():
            if span.name in ("compile", "chronopriv-run", "extract.syscalls"):
                assert span.parent_id == root.span_id

    def test_metrics_recorded(self, traced_ping):
        telemetry, analysis = traced_ping
        metrics = telemetry.metrics
        expected_queries = len(analysis.phases) * len(analysis.phases[0].verdicts)
        assert metrics.counter("rosa.queries").value == expected_queries
        assert metrics.counter("vm.instructions_executed").value > 0
        assert metrics.counter("vm.syscall_dispatches").value > 0
        assert metrics.histogram("rosa.query_seconds").count == expected_queries
        assert "autopriv.liveness_seconds" in metrics
        assert "autopriv.insertion_seconds" in metrics

    def test_disabled_telemetry_adds_no_spans(self):
        """Guard: the default pipeline records nothing."""
        analyzer = PrivAnalyzer()
        analyzer.analyze(spec_by_name("ping"))
        assert analyzer.telemetry.tracer.finished == []
        assert not analyzer.telemetry.active

    def test_rosa_report_carries_search_stats(self, traced_ping):
        _, analysis = traced_ping
        reports = [
            report for phase in analysis.phases for report in phase.verdicts.values()
        ]
        searched = next(report for report in reports if not report.proved)
        assert searched.stats.peak_frontier >= 1
        assert "peak frontier" in searched.cost_line()
        proved = next(report for report in reports if report.proved)
        assert proved.states_explored == 0 and proved.stats.peak_frontier == 0
        assert "proved unreachable (abstract pre-check)" in proved.cost_line()
        assert "states explored" not in proved.cost_line()

    def test_one_rosa_prove_span_per_distinct_miss(self, traced_ping):
        telemetry, analysis = traced_ping
        prove_spans = [
            span for span in telemetry.tracer.finished if span.name == "rosa.prove"
        ]
        proved = [span for span in prove_spans if span.attributes["proved"]]
        assert proved and len(proved) < len(prove_spans)
        assert telemetry.metrics.counter("rosa.proved").value == len(proved)


class TestTransformTimings:
    def test_per_pass_timings_reported(self):
        from repro.autopriv import transform_module
        from repro.frontend import compile_source

        spec = spec_by_name("ping")
        module = compile_source(spec.source, spec.name)
        report = transform_module(
            module, spec.permitted, clock=ManualClock(tick=0.5)
        )
        assert set(report.timings) == {"liveness", "insertion"}
        assert report.timings["liveness"] > 0
        assert report.timings["insertion"] > 0


class TestCliObservability:
    def test_trace_out_writes_valid_jsonl(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        code, _ = run_cli(
            "analyze", "ping", "--trace", "--trace-out", str(trace_path)
        )
        assert code == 0
        spans = spans_from_jsonl(trace_path.read_text())
        names = {span["name"] for span in spans}
        assert {"compile", "autopriv.transform", "chronopriv-run", "rosa.query"} <= names
        for span in spans:
            assert span["end"] >= span["start"]

    def test_trace_without_out_prints_tree_to_stderr(self, capsys):
        code, _ = run_cli("analyze", "ping", "--trace")
        assert code == 0
        stderr = capsys.readouterr().err
        assert "pipeline.analyze" in stderr

    def test_profile_prints_stage_table(self, capsys):
        code, _ = run_cli("analyze", "ping", "--profile")
        assert code == 0
        stderr = capsys.readouterr().err
        assert "stage" in stderr and "total ms" in stderr
        assert "chronopriv-run" in stderr

    def test_audit_out_writes_syscall_jsonl(self, tmp_path):
        audit_path = tmp_path / "audit.jsonl"
        code, _ = run_cli("analyze", "ping", "--audit-out", str(audit_path))
        assert code == 0
        records = [
            json.loads(line) for line in audit_path.read_text().splitlines()
        ]
        assert records[0]["syscall"] == "prctl_lockdown"
        assert all("uids" in record for record in records)

    def test_rosa_prints_search_cost(self, capsys):
        code, out = run_cli("rosa", "examples/queries/figure2.rosa")
        assert code == 1  # vulnerable
        assert "search cost:" in out
        assert "states explored" in out and "peak frontier" in out

    def test_plain_analyze_has_no_trace_output(self, capsys, tmp_path):
        code, _ = run_cli("analyze", "ping")
        assert code == 0
        assert "pipeline.analyze" not in capsys.readouterr().err

    def test_verbose_logs_pipeline_progress(self, capsys):
        code, _ = run_cli("--verbose", "analyze", "ping")
        assert code == 0
        stderr = capsys.readouterr().err
        assert "repro.pipeline" in stderr

    def test_quiet_suppresses_info(self, capsys):
        code, _ = run_cli("--quiet", "analyze", "ping")
        assert code == 0
        assert "repro.pipeline" not in capsys.readouterr().err


class TestLibraryLogging:
    def test_repro_logger_has_null_handler(self):
        import logging

        logger = logging.getLogger("repro")
        assert any(
            isinstance(handler, logging.NullHandler) for handler in logger.handlers
        )
