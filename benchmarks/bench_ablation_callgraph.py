"""Ablation A2 — call-graph precision vs AutoPriv effectiveness.

§VII-C hypothesises that sshd's retained privileges are partly an
artefact of AutoPriv's conservatively-resolved indirect calls.  This
ablation re-runs the sshd pipeline with a type-matched indirect-call
resolver and measures how much earlier CAP_SYS_CHROOT (used only by a
never-invoked, differently-typed handler) dies.
"""

import pytest

from repro.chronopriv import CHRONO_COUNT
from repro.core import PrivAnalyzer
from repro.programs import spec_by_name


def run_with_filter(indirect_filter):
    analyzer = PrivAnalyzer(indirect_targets_filter=indirect_filter)
    return analyzer.analyze(spec_by_name("sshd"))


@pytest.fixture(scope="module")
def conservative():
    return run_with_filter("address-taken")


@pytest.fixture(scope="module")
def type_matched():
    return run_with_filter("type-matched")


def syschroot_window(analysis):
    total = analysis.chrono.total
    held = sum(
        phase.phase.instruction_count
        for phase in analysis.phases
        if "CapSysChroot" in phase.phase.privileges
    )
    return held / total if total else 0.0


class TestCallGraphPrecision:
    def test_conservative_holds_syschroot_forever(self, conservative):
        assert syschroot_window(conservative) == pytest.approx(1.0)

    def test_type_matched_retires_syschroot(self, conservative, type_matched):
        assert syschroot_window(type_matched) < syschroot_window(conservative)
        # The handler is provably unreachable under arity matching, so
        # main removes the capability in its entry block, right after
        # prctl_lockdown.  ChronoPriv charges a block's instructions at
        # block entry (the paper counts per basic block too), so exactly
        # that block — the first phase — holds it.
        holders = [
            phase.phase
            for phase in type_matched.phases
            if "CapSysChroot" in phase.phase.privileges
        ]
        assert holders == [type_matched.phases[0].phase]
        entry = type_matched.module.get_function("main").blocks[0]
        counter = entry.instructions[0]
        assert counter.direct_target.name == CHRONO_COUNT
        assert holders[0].instruction_count == counter.args[0].value

    def test_dynamic_behaviour_unchanged(self, conservative, type_matched):
        """Precision only changes removal points, never observable output."""
        assert conservative.stdout == type_matched.stdout
        assert conservative.chrono.total == pytest.approx(
            type_matched.chrono.total, rel=0.05
        )

    def test_print_comparison(self, conservative, type_matched, capsys):
        with capsys.disabled():
            print("\n=== A2: CAP_SYS_CHROOT retention (sshd) ===")
            print(f"  address-taken call graph: {syschroot_window(conservative):6.1%}")
            print(f"  type-matched call graph:  {syschroot_window(type_matched):6.1%}")


@pytest.mark.parametrize("indirect_filter", ["address-taken", "type-matched"])
def test_analysis_time(benchmark, indirect_filter):
    spec = spec_by_name("sshd")

    def compile_only():
        return PrivAnalyzer(indirect_targets_filter=indirect_filter).compile(spec)

    module, transform, _ = benchmark.pedantic(compile_only, rounds=3, iterations=1)
    assert transform is not None
