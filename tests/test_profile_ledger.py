"""Profile sections in the run ledger: round-trip, diff, the CLI gate."""

import json

import pytest

from repro.core import PrivAnalyzer
from repro.core.ledger import (
    PROFILE_FILE,
    RunLedger,
    capture_analysis,
    diff_ledgers,
)
from repro.programs import spec_by_name
from repro.telemetry import ManualClock, Profiler, Telemetry

pytestmark = pytest.mark.telemetry


@pytest.fixture(scope="module")
def profiled(tmp_path_factory):
    """One profiled su analysis captured twice, plus the profiler itself."""
    telemetry = Telemetry.enabled(clock=ManualClock(tick=0.001))
    profiler = Profiler()
    telemetry.profiler = profiler
    analyzer = PrivAnalyzer(telemetry=telemetry)
    analysis = analyzer.analyze(spec_by_name("su"))
    root = tmp_path_factory.mktemp("profiled-ledgers")
    kwargs = dict(cli_args={"program": "su"}, timestamp=1234.5)
    old = capture_analysis(root / "run1", analysis, telemetry, **kwargs)
    new = capture_analysis(root / "run2", analysis, telemetry, **kwargs)
    return old, new, profiler


class TestRoundTrip:
    def test_profile_artifact_written_and_listed(self, profiled):
        old, _, _ = profiled
        assert (old.root / PROFILE_FILE).exists()
        assert PROFILE_FILE in old.manifest["files"]

    def test_loaded_profile_matches_the_live_report(self, profiled):
        old, _, profiler = profiled
        assert old.profile == profiler.to_report()

    def test_capture_without_profiler_omits_the_artifact(self, tmp_path):
        telemetry = Telemetry.enabled(clock=ManualClock(tick=0.001))
        analysis = PrivAnalyzer(telemetry=telemetry).analyze(spec_by_name("su"))
        ledger = capture_analysis(tmp_path / "bare", analysis, telemetry)
        assert not (ledger.root / PROFILE_FILE).exists()
        assert PROFILE_FILE not in ledger.manifest["files"]
        assert ledger.profile is None

    def test_disabled_profiler_omits_the_artifact(self, tmp_path):
        telemetry = Telemetry.enabled(clock=ManualClock(tick=0.001))
        analysis = PrivAnalyzer(telemetry=telemetry).analyze(spec_by_name("su"))
        telemetry.profiler = Profiler(enabled=False)
        ledger = capture_analysis(tmp_path / "off", analysis, telemetry)
        assert ledger.profile is None


def reload_with_profile(ledger, mutate):
    """Reload the ledger with the profile artifact rewritten via ``mutate``."""
    path = ledger.root / PROFILE_FILE
    original = path.read_text()
    data = json.loads(original)
    mutate(data)
    path.write_text(json.dumps(data))
    try:
        return RunLedger.load(ledger.root)
    finally:
        path.write_text(original)


class TestDiff:
    def test_identical_profiles_diff_clean(self, profiled):
        old, new, _ = profiled
        diff = diff_ledgers(old, new, perf_tolerance=3.0)
        assert diff.clean
        assert not [f for f in diff.findings if f.kind == "profile"]

    def test_profile_in_only_one_ledger_is_informational(self, profiled, tmp_path):
        old, _, _ = profiled
        telemetry = Telemetry.enabled(clock=ManualClock(tick=0.001))
        analysis = PrivAnalyzer(telemetry=telemetry).analyze(spec_by_name("su"))
        bare = capture_analysis(tmp_path / "bare", analysis, telemetry)
        diff = diff_ledgers(old, bare, perf_tolerance=3.0)
        profile_findings = [f for f in diff.findings if f.kind == "profile"]
        assert len(profile_findings) == 1
        assert profile_findings[0].severity == "info"
        assert "only one ledger" in profile_findings[0].message

    def test_inflated_hot_path_is_a_regression(self, profiled):
        old, new, _ = profiled

        def inflate(data):
            for record in data["records"]:
                record["seconds"] = record["seconds"] * 100.0 + 1.0

        slower = reload_with_profile(new, inflate)
        diff = diff_ledgers(old, slower, perf_tolerance=1.0)
        regressions = [
            f for f in diff.findings
            if f.kind == "profile" and f.severity == "regression"
        ]
        assert regressions
        assert not diff.clean

    def test_schema_mismatch_is_informational_not_a_gate(self, profiled):
        old, new, _ = profiled
        future = reload_with_profile(new, lambda data: data.update(schema=999))
        diff = diff_ledgers(old, future, perf_tolerance=3.0)
        profile_findings = [f for f in diff.findings if f.kind == "profile"]
        assert len(profile_findings) == 1
        assert profile_findings[0].severity == "info"
        assert "not comparable" in profile_findings[0].message

    def test_new_hot_path_is_informational(self, profiled):
        old, new, _ = profiled

        def add_stack(data):
            data["records"].append(
                {"stack": ["vm", "op:imaginary"], "calls": 1,
                 "seconds": 0.001, "self_seconds": 0.001, "counters": {}}
            )

        grown = reload_with_profile(new, add_stack)
        diff = diff_ledgers(old, grown, perf_tolerance=3.0)
        appeared = [
            f for f in diff.findings
            if f.kind == "profile" and "appeared in" in f.message
        ]
        assert len(appeared) == 1
        assert appeared[0].severity == "info"
        assert diff.clean  # info findings never gate
