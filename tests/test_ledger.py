"""The run ledger: capture, load, structural diff, and the CLI gate."""

import dataclasses
import io
import json

import pytest

from repro.cli import main
from repro.core import PrivAnalyzer
from repro.core.ledger import (
    DiffFinding,
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    capture_analysis,
    diff_ledgers,
)
from repro.programs import spec_by_name
from repro.telemetry import ManualClock, Telemetry

pytestmark = pytest.mark.telemetry


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    """One ping analysis captured twice — a baseline and an identical rerun."""
    telemetry = Telemetry.enabled(clock=ManualClock(tick=0.001), audit=True)
    analyzer = PrivAnalyzer(telemetry=telemetry)
    analysis = analyzer.analyze(spec_by_name("ping"))
    root = tmp_path_factory.mktemp("ledgers")
    kwargs = dict(
        cache_stats=analyzer.engine.cache_stats(),
        cli_args={"program": "ping"},
        timestamp=1234.5,
    )
    old = capture_analysis(root / "run1", analysis, telemetry, **kwargs)
    new = capture_analysis(root / "run2", analysis, telemetry, **kwargs)
    return old, new


def reload_with(ledger, filename, mutate):
    """Reload the ledger with one artifact rewritten through ``mutate``.

    ``RunLedger.load`` reads everything eagerly, so the original file is
    restored afterwards — the module-scoped fixture stays pristine.
    """
    path = ledger.root / filename
    original = path.read_text()
    data = json.loads(original)
    mutate(data)
    path.write_text(json.dumps(data))
    try:
        return RunLedger.load(ledger.root)
    finally:
        path.write_text(original)


class TestCapture:
    def test_artifact_files_and_manifest(self, captured):
        old, _ = captured
        for name in (
            "manifest.json", "spans.jsonl", "trace.perfetto.json",
            "metrics.json", "metrics.prom", "audit.jsonl", "syscalls.json",
            "exposure.json", "verdicts.json", "cache.json",
        ):
            assert (old.root / name).exists(), name
        assert old.manifest["schema"] == LEDGER_SCHEMA_VERSION
        assert old.manifest["kind"] == "analyze"
        assert old.manifest["program"] == "ping"
        assert old.manifest["created_unix"] == 1234.5
        assert old.manifest["cli"] == {"program": "ping"}
        assert set(old.manifest["files"]) >= {"spans.jsonl", "verdicts.json"}

    def test_loaded_ledger_contents(self, captured):
        old, _ = captured
        assert old.program == "ping"
        # One record per phase x attack pair, four attacks per phase.
        assert len(old.verdicts) == 4 * len(old.exposure["phases"])
        assert all(
            record["verdict"] in ("vulnerable", "invulnerable", "timeout")
            for record in old.verdicts
        )
        assert 0.0 <= old.exposure["invulnerable_window"] <= 1.0
        stages = old.stage_durations()
        assert "pipeline.analyze" in stages and "compile" in stages
        assert old.syscalls["by_credential"]  # the kernel ran under audit
        assert old.cache["enabled"] is True

    def test_proofs_are_recorded(self, captured):
        old, _ = captured
        proved = [record for record in old.verdicts if record["proved"]]
        assert proved and len(proved) < len(old.verdicts)
        assert all(
            record["verdict"] == "invulnerable" and record["states_explored"] == 0
            for record in proved
        )
        # Proofs count once per distinct question; the records repeat
        # them for every phase that asked it again.
        assert 0 < old.metrics["rosa.proved"]["value"] <= len(proved)

    def test_perfetto_artifact_is_an_event_array(self, captured):
        old, _ = captured
        events = json.loads((old.root / "trace.perfetto.json").read_text())
        assert isinstance(events, list)
        assert any(event["ph"] == "X" for event in events)

    def test_load_rejects_non_ledger_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not a run ledger"):
            RunLedger.load(tmp_path)


class TestDiff:
    def test_identical_runs_are_clean(self, captured):
        old, new = captured
        diff = diff_ledgers(old, new)
        assert diff.clean
        assert diff.exit_code == 0
        assert diff.findings == []
        assert "ledgers match" in diff.render()

    def test_verdict_flip_is_a_regression(self, captured):
        old, new = captured
        before = new.verdicts[0]["verdict"]
        after = "timeout" if before != "timeout" else "vulnerable"
        flipped = reload_with(
            new, "verdicts.json",
            lambda data: data[0].__setitem__("verdict", after),
        )
        diff = diff_ledgers(old, flipped)
        assert not diff.clean
        messages = [f.message for f in diff.regressions]
        assert any(f"verdict flip {before} -> {after}" in m for m in messages)

    def test_exposure_drift_beyond_tolerance_is_a_regression(self, captured):
        old, new = captured
        drifted = reload_with(
            new, "exposure.json",
            lambda data: data["windows"].__setitem__(
                "1", data["windows"]["1"] + 0.3
            ),
        )
        diff = diff_ledgers(old, drifted)
        assert any(
            f.kind == "exposure" and "attack 1" in f.message
            for f in diff.regressions
        )
        # A wide tolerance forgives the same drift.
        assert not [
            f for f in diff_ledgers(old, drifted, tolerance=0.5).regressions
            if f.kind == "exposure"
        ]

    def test_phase_credential_change_is_a_regression(self, captured):
        old, new = captured
        mutated = reload_with(
            new, "exposure.json",
            lambda data: data["phases"][0].__setitem__("uids", [0, 0, 0]),
        )
        diff = diff_ledgers(old, mutated)
        assert any("uids changed" in f.message for f in diff.regressions)

    def test_stage_slowdown_beyond_perf_tolerance_is_a_regression(self, captured):
        old, new = captured
        path = new.root / "spans.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        for span in spans:
            if span["name"] == "chronopriv-run":
                span["duration"] = span["duration"] * 100 + 1.0
        path.write_text("\n".join(json.dumps(span) for span in spans) + "\n")
        slowed = RunLedger.load(new.root)
        diff = diff_ledgers(old, slowed, perf_tolerance=1.0)
        assert any(
            f.kind == "perf" and "chronopriv-run" in f.message
            for f in diff.regressions
        )
        # Restore the artifact for the other module-scoped tests.
        for span in spans:
            if span["name"] == "chronopriv-run":
                span["duration"] = (span["duration"] - 1.0) / 100
        path.write_text("\n".join(json.dumps(span) for span in spans) + "\n")

    def test_syscall_surface_change_is_a_regression(self, captured):
        old, new = captured
        def drop_one(data):
            key = sorted(data["by_credential"])[0]
            data["by_credential"][key] = data["by_credential"][key][:-1]
        shrunk = reload_with(new, "syscalls.json", drop_one)
        diff = diff_ledgers(old, shrunk)
        assert any(
            f.kind == "syscalls" and "vanished" in f.message
            for f in diff.regressions
        )

    def test_counter_drift_is_a_nongating_change(self, captured):
        old, new = captured
        bumped = reload_with(
            new, "metrics.json",
            lambda data: data["vm.instructions_executed"].__setitem__(
                "value", data["vm.instructions_executed"]["value"] + 1
            ),
        )
        diff = diff_ledgers(old, bumped)
        assert diff.clean  # changes never gate
        assert any(
            f.severity == "change" and "vm.instructions_executed" in f.message
            for f in diff.findings
        )

    def test_code_cache_counters_are_not_compared(self, captured):
        # A cold run generates every function's text, a warm one none.
        old, new = captured

        def counts(texts, hits):
            def mutate(data):
                data["vm.texts_generated"] = {"type": "counter", "value": texts}
                data["vm.code_cache_hits"] = {"type": "counter", "value": hits}
            return mutate

        diff = diff_ledgers(
            reload_with(old, "metrics.json", counts(4, 0)),
            reload_with(new, "metrics.json", counts(0, 4)),
        )
        assert not any(f.kind == "metrics" for f in diff.findings)

    def test_schema_mismatch_refuses_comparison(self, captured):
        # ``load`` rejects schemas newer than the tool outright, so the
        # mismatched ledger is built directly: diff must still refuse
        # the comparison whenever the versions differ.
        old, new = captured
        alien = dataclasses.replace(
            new, manifest={**new.manifest, "schema": 99}
        )
        diff = diff_ledgers(old, alien)
        assert [f.kind for f in diff.regressions] == ["manifest"]

    def test_newer_schema_refused_at_load(self, captured):
        _old, new = captured
        with pytest.raises(ValueError, match="newer than this tool"):
            reload_with(
                new,
                "manifest.json",
                lambda data: data.__setitem__("schema", 99),
            )

    def test_program_mismatch_is_a_regression(self, captured):
        old, new = captured
        renamed = reload_with(
            new, "manifest.json", lambda data: data.__setitem__("program", "su")
        )
        diff = diff_ledgers(old, renamed)
        assert any(f.kind == "manifest" for f in diff.regressions)

    def test_json_rendering(self, captured):
        old, new = captured
        document = json.loads(diff_ledgers(old, new).to_json())
        assert document["regressions"] == 0
        assert document["findings"] == []

    def test_finding_to_dict(self):
        finding = DiffFinding("regression", "verdict", "flip")
        assert finding.to_dict() == {
            "severity": "regression", "kind": "verdict", "message": "flip",
        }


class TestCliLedger:
    def test_analyze_capture_and_clean_diff(self, tmp_path):
        # Stage times of two live runs may differ by any host stall, so
        # only perf findings are allowed here; the perf comparison itself
        # is pinned on a synthetic slowdown
        # (test_stage_slowdown_beyond_perf_tolerance_is_a_regression).
        run1, run2 = tmp_path / "run1", tmp_path / "run2"
        assert run_cli("analyze", "ping", "--ledger", str(run1))[0] == 0
        assert run_cli("analyze", "ping", "--ledger", str(run2))[0] == 0
        _, out = run_cli("diff", str(run1), str(run2), "--format", "json")
        findings = json.loads(out)["findings"]
        assert [f for f in findings if f["kind"] != "perf"] == []

    def test_diff_flags_perturbed_ledger_and_names_the_regression(self, tmp_path):
        run1, run2 = tmp_path / "run1", tmp_path / "run2"
        run_cli("analyze", "ping", "--ledger", str(run1))
        run_cli("analyze", "ping", "--ledger", str(run2))
        verdicts = json.loads((run2 / "verdicts.json").read_text())
        before = verdicts[3]["verdict"]
        after = "timeout" if before != "timeout" else "vulnerable"
        verdicts[3]["verdict"] = after
        (run2 / "verdicts.json").write_text(json.dumps(verdicts))
        code, out = run_cli("diff", str(run1), str(run2))
        assert code == 1
        assert f"verdict flip {before} -> {after}" in out

    def test_diff_json_format(self, tmp_path):
        run1 = tmp_path / "run1"
        run_cli("analyze", "ping", "--ledger", str(run1))
        code, out = run_cli("diff", str(run1), str(run1), "--format", "json")
        assert code == 0
        assert json.loads(out)["regressions"] == 0

    def test_diff_missing_ledger_dies(self, tmp_path):
        with pytest.raises(SystemExit, match="not a run ledger"):
            run_cli("diff", str(tmp_path / "nope"), str(tmp_path / "nope2"))

    def test_rosa_ledger_capture(self, tmp_path):
        ledger_dir = tmp_path / "rosa-run"
        code, _ = run_cli(
            "rosa", "examples/queries/figure2.rosa", "--ledger", str(ledger_dir)
        )
        assert code == 1  # vulnerable query keeps its exit code
        ledger = RunLedger.load(ledger_dir)
        assert ledger.manifest["kind"] == "rosa"
        assert len(ledger.verdicts) == 1
        assert ledger.verdicts[0]["verdict"] == "vulnerable"
        assert ledger.verdicts[0]["witness"] == ["chown", "chmod", "open"]

    def test_metrics_out_flag_writes_jsonl(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        code, _ = run_cli("analyze", "ping", "--metrics-out", str(path))
        assert code == 0
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(entry["name"] == "vm.instructions_executed" for entry in lines)

    def test_prometheus_out_flag(self, tmp_path):
        path = tmp_path / "metrics.prom"
        code, _ = run_cli("analyze", "ping", "--prometheus-out", str(path))
        assert code == 0
        assert "# TYPE privanalyzer_rosa_queries_total counter" in path.read_text()

    def test_perfetto_out_flag(self, tmp_path):
        path = tmp_path / "trace.json"
        code, _ = run_cli("analyze", "ping", "--perfetto-out", str(path))
        assert code == 0
        events = json.loads(path.read_text())
        assert isinstance(events, list)
        assert any(
            event.get("name") == "pipeline.analyze" for event in events
        )

    def test_rosa_progress_renders_to_stderr(self, capsys):
        code, _ = run_cli(
            "rosa", "examples/queries/figure2.rosa",
            "--progress", "--progress-interval", "1",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "rosa: " in err and "explored" in err and "budget" in err

    def test_analyze_progress_interval_zero_keeps_the_default(self, capsys):
        # Every command reads --progress-interval through one telemetry
        # handle: a non-positive interval means the search's default,
        # never a modulo by zero.
        code, _ = run_cli(
            "analyze", "ping", "--progress", "--progress-interval", "0"
        )
        assert code == 0
