"""The PrivAnalyzer pipeline end-to-end on small synthetic programs."""

import pytest

from repro.caps import CapabilitySet
from repro.core import PrivAnalyzer
from repro.programs import spec_by_name
from repro.programs.common import ProgramSpec, source_sloc
from repro.rosa.query import Verdict

GOOD_CITIZEN = """
// Uses one privilege briefly, then runs unprivileged.
void main() {
    priv_raise(CAP_DAC_READ_SEARCH);
    str h = getspnam("user");
    priv_lower(CAP_DAC_READ_SEARCH);
    if (strlen(h) == 0) { exit(1); }
    int i;
    int x = 0;
    for (i = 0; i < 100; i = i + 1) { x = x + i; }
    print_int(x);
    exit(0);
}
"""

# Note the attack model: attackers may only use syscalls the program
# itself uses (§III), so the hoarder must expose open (via getspnam) and
# kill for attacks 1/2/4 to be mountable at all.
HOARDER = """
// Keeps CAP_SETUID permitted until the very end.
void main() {
    int probe = kill(getpid(), 0);
    int i;
    int x = 0;
    for (i = 0; i < 100; i = i + 1) { x = x + i; }
    priv_raise(CAP_SETUID);
    setuid(0);
    priv_lower(CAP_SETUID);
    priv_raise(CAP_DAC_READ_SEARCH);
    str h = getspnam("user");
    priv_lower(CAP_DAC_READ_SEARCH);
    print_int(x);
    exit(0);
}
"""


def spec_for(source, name, *caps):
    return ProgramSpec(
        name=name,
        description="test program",
        source=source,
        permitted=CapabilitySet.of(*caps),
    )


class TestPipeline:
    def test_good_citizen_mostly_invulnerable(self):
        analysis = PrivAnalyzer().analyze(
            spec_for(GOOD_CITIZEN, "good", "CapDacReadSearch")
        )
        assert analysis.invulnerable_window() > 0.9
        assert analysis.vulnerability_window(1) < 0.1
        # The one privileged phase is vulnerable to the read attack only.
        first = analysis.phases[0]
        assert first.vulnerable_to(1)
        assert not first.vulnerable_to(2)
        assert not first.vulnerable_to(3)

    def test_hoarder_vulnerable_almost_always(self):
        analysis = PrivAnalyzer().analyze(spec_for(HOARDER, "bad", "CapSetuid"))
        assert analysis.vulnerability_window(1) > 0.9
        assert analysis.vulnerability_window(2) > 0.9
        assert analysis.vulnerability_window(4) > 0.9
        assert analysis.vulnerability_window(3) == 0.0

    def test_same_code_different_discipline_ranks_correctly(self):
        """The paper's core claim in miniature: privilege retention time,
        not privilege possession, decides the risk metric."""
        good = PrivAnalyzer().analyze(spec_for(GOOD_CITIZEN, "good", "CapDacReadSearch"))
        bad = PrivAnalyzer().analyze(spec_for(HOARDER, "bad", "CapSetuid"))
        assert good.vulnerability_window(1) < bad.vulnerability_window(1)

    def test_unexpected_exit_code_raises(self):
        failing = ProgramSpec(
            name="boom",
            description="exits nonzero",
            source="void main() { exit(3); }",
            permitted=CapabilitySet.empty(),
        )
        with pytest.raises(RuntimeError, match="exited with 3"):
            PrivAnalyzer().analyze(failing)

    def test_expected_exit_honoured(self):
        failing = ProgramSpec(
            name="boom",
            description="exits nonzero on purpose",
            source="void main() { exit(3); }",
            permitted=CapabilitySet.empty(),
            expected_exit=3,
        )
        analysis = PrivAnalyzer().analyze(failing)
        assert analysis.exit_code == 3

    def test_syscall_surface_extracted(self):
        analysis = PrivAnalyzer().analyze(
            spec_for(GOOD_CITIZEN, "good", "CapDacReadSearch")
        )
        assert "open_read" in analysis.syscalls  # via getspnam
        assert "kill" not in analysis.syscalls

    def test_render_table_contains_verdict_glyphs(self):
        analysis = PrivAnalyzer().analyze(spec_for(HOARDER, "bad", "CapSetuid"))
        table = analysis.render_table()
        assert "✓" in table and "✗" in table
        assert "bad_priv1" in table

    def test_timeout_counted_as_invulnerable_by_default(self):
        from repro.rewriting import SearchBudget

        analyzer = PrivAnalyzer(budget=SearchBudget(max_states=1))
        analysis = analyzer.analyze(spec_for(HOARDER, "bad", "CapSetuid"))
        # With a 1-state budget every search times out (no verdicts
        # possible beyond the initial state); the hoarder keeps CAP_SETUID,
        # so the abstract pre-check cannot prove its reachable attacks...
        has_timeout = any(
            report.verdict is Verdict.TIMEOUT
            for phase in analysis.phases
            for report in phase.verdicts.values()
        )
        assert has_timeout
        window_default = analysis.vulnerability_window(1)
        window_pessimistic = analysis.vulnerability_window(1, timeout_vulnerable=True)
        assert window_pessimistic >= window_default

    def test_chrono_and_static_instrumentation_consistent(self):
        analysis = PrivAnalyzer().analyze(
            spec_for(GOOD_CITIZEN, "good", "CapDacReadSearch")
        )
        assert analysis.chrono.total > 0
        assert analysis.instrumentation.blocks_instrumented > 0


class TestSpecReuse:
    @pytest.mark.parametrize("name", ["thttpd", "sshd"])
    def test_same_spec_analyzed_twice_runs_the_same_workload(self, name):
        # The servers' workloads are queues the VM pops (connections,
        # incoming messages); a run must not consume the spec's own.
        spec = spec_by_name(name)
        env = {key: list(value) for key, value in spec.env.items()}
        analyzer = PrivAnalyzer()
        first, second = analyzer.analyze(spec), analyzer.analyze(spec)
        assert second.chrono.phases == first.chrono.phases
        assert second.exit_code == first.exit_code
        assert second.stdout == first.stdout
        assert spec.env == env


class TestSloc:
    def test_counts_exclude_comments_and_blanks(self):
        source = """
        // a comment

        int x;  /* trailing */
        /* block
           comment */
        void main() { }
        """
        assert source_sloc(source) == 2

    def test_program_specs_report_sloc(self):
        spec = spec_for(GOOD_CITIZEN, "good", "CapDacReadSearch")
        assert spec.sloc > 5
