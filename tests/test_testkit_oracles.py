"""The differential oracles, metamorphic properties, and fuzz driver.

Two claims need proof: (1) on correct code every family passes its
campaign, and (2) each oracle actually *catches* the class of bug it
exists for — demonstrated by injecting artificial faults and watching
the failure shrink to a replayable repro file.
"""

import json
import random

import pytest

from repro.testkit.faults import FAULTS, install_fault
from repro.testkit.fuzz import (
    REPRO_SCHEMA_VERSION,
    load_repro,
    replay_repro,
    run_campaign,
)
from repro.testkit.oracles import ALL_FAMILIES, DEFAULT_FAMILIES, family
from repro.testkit.reference import ReferenceInterpreter

#: A handcrafted program whose mul result is large and observable —
#: deterministically trips the vm-mul-truncate fault.
MUL_CASE = {
    "vars": 1,
    "body": [["set", 0, ["bin", "*", ["lit", 64], ["lit", 3]]]],
    "permitted": [],
    "uid": 1000,
    "gid": 1000,
}


class TestFamiliesPassOnCorrectCode:
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_small_campaign_passes(self, name, tmp_path):
        result = run_campaign(
            seed=0, runs=4, families=(name,), artifacts_dir=tmp_path
        )
        assert result.passed, [f.details for f in result.failures]
        assert result.executed == 4

    def test_default_families_are_the_differential_six(self):
        assert DEFAULT_FAMILIES == (
            "cache",
            "pools",
            "vm",
            "ledger",
            "profile",
            "store",
        )
        for name in DEFAULT_FAMILIES:
            assert name in ALL_FAMILIES

    def test_unknown_family_is_an_error(self):
        with pytest.raises(ValueError, match="unknown oracle family"):
            family("nonsense")


class TestFaultInjection:
    def test_vm_fault_caught_by_vm_oracle(self):
        oracle = family("vm")
        assert oracle.run(MUL_CASE).ok
        with install_fault("vm-mul-truncate"):
            result = oracle.run(MUL_CASE)
        assert result.failed
        assert "stdout" in result.details
        # The patch is fully undone on exit.
        assert oracle.run(MUL_CASE).ok

    def test_compiled_fault_caught_by_vm_oracle(self):
        # A stale table baked into the compiled closures: the reference
        # evaluator inlines its own arithmetic and disagrees.
        oracle = family("vm")
        assert oracle.run(MUL_CASE).ok
        with install_fault("compiled-mul-truncate"):
            result = oracle.run(MUL_CASE)
        assert result.failed
        assert "vm." in result.details and "reference." in result.details
        assert oracle.run(MUL_CASE).ok

    def test_cache_fault_caught_by_cache_oracle(self):
        oracle = family("cache")
        case = oracle.generate(random.Random("0:cache:0"), 20)
        assert oracle.run(case).ok
        with install_fault("cache-verdict-flip"):
            result = oracle.run(case)
        assert result.failed
        assert oracle.run(case).ok

    def test_profile_fault_caught_by_profile_oracle(self):
        oracle = family("profile")
        case = oracle.generate(random.Random("0:profile:0"), 20)
        assert oracle.run(case).ok
        with install_fault("profile-ledger-skew"):
            result = oracle.run(case)
        assert result.failed
        # A dropped phase shifts the count features first.
        assert "phase_count" in result.details or "cred_tuples" in result.details
        assert oracle.run(case).ok

    def test_profile_fault_is_invisible_to_ledger_oracle(self):
        # Both captures the ledger family self-diffs carry the same
        # skew, so only the live-vs-ledger comparison can see it.
        oracle = family("ledger")
        case = oracle.generate(random.Random("0:ledger:0"), 20)
        with install_fault("profile-ledger-skew"):
            assert oracle.run(case).ok

    def test_store_fault_caught_by_store_oracle(self):
        oracle = family("store")
        case = oracle.generate(random.Random("0:store:0"), 20)
        assert oracle.run(case).ok
        with install_fault("store-attestation-skew"):
            result = oracle.run(case)
        assert result.failed
        # Fail-closed means the fault never flips a verdict — it shows
        # up as the store refusing to serve anything it cannot re-attest.
        assert "no store hits" in result.details
        assert oracle.run(case).ok

    def test_store_fault_is_invisible_to_cache_oracle(self):
        # The in-memory query cache never touches the shared store, so
        # only the store family's warm-engine read path can see the skew.
        oracle = family("cache")
        case = oracle.generate(random.Random("0:cache:0"), 20)
        with install_fault("store-attestation-skew"):
            assert oracle.run(case).ok

    def test_unknown_fault_is_an_error(self):
        with pytest.raises(ValueError, match="unknown fault"):
            with install_fault("no-such-fault"):
                pass  # pragma: no cover

    def test_fault_registry_names(self):
        assert "vm-mul-truncate" in FAULTS
        assert "compiled-mul-truncate" in FAULTS
        assert "cache-verdict-flip" in FAULTS
        assert "profile-ledger-skew" in FAULTS
        assert "store-attestation-skew" in FAULTS


class TestCampaignShrinkAndReplay:
    def test_injected_campaign_shrinks_and_replays(self, tmp_path):
        # Seed 0, vm family: runs 3 deterministically trips the fault
        # (same coordinates the CLI acceptance command exercises).
        result = run_campaign(
            seed=0,
            runs=4,
            families=("vm",),
            artifacts_dir=tmp_path,
            inject="vm-mul-truncate",
        )
        assert not result.passed
        record = result.failures[0]
        assert record.family == "vm"
        assert record.shrunk_size <= record.original_size
        assert record.repro_path is not None

        data = load_repro(record.repro_path)
        assert data["inject"] == "vm-mul-truncate"
        assert data["schema"] == REPRO_SCHEMA_VERSION

        replay = replay_repro(record.repro_path)
        assert replay.failed, "repro file must replay to failure"

    def test_campaign_without_artifacts_dir_writes_nothing(self, tmp_path):
        result = run_campaign(
            seed=0,
            runs=4,
            families=("vm",),
            artifacts_dir=None,
            inject="vm-mul-truncate",
        )
        assert not result.passed
        assert result.failures[0].repro_path is None
        assert list(tmp_path.iterdir()) == []

    def test_oracle_crash_counts_as_failure(self, tmp_path, monkeypatch):
        oracle = family("vm")
        monkeypatch.setattr(
            type(oracle), "run", property(lambda self: 1 / 0), raising=False
        )
        # A crashing oracle must be reported, not propagate.
        result = run_campaign(
            seed=0, runs=1, families=("vm",), artifacts_dir=tmp_path
        )
        assert not result.passed
        assert "crashed" in result.failures[0].details


class TestReproFiles:
    def test_load_rejects_corrupt_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="corrupt repro file"):
            load_repro(path)

    def test_load_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something-else", "schema": 1}))
        with pytest.raises(ValueError, match="not a privanalyzer fuzz repro"):
            load_repro(path)

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "privanalyzer-fuzz-repro",
                    "schema": REPRO_SCHEMA_VERSION + 1,
                    "family": "vm",
                    "case": {},
                }
            )
        )
        with pytest.raises(ValueError, match="repro schema"):
            load_repro(path)

    def test_load_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "incomplete.json"
        path.write_text(
            json.dumps(
                {"kind": "privanalyzer-fuzz-repro", "schema": REPRO_SCHEMA_VERSION}
            )
        )
        with pytest.raises(ValueError, match="missing"):
            load_repro(path)


#: The Table III/V programs plus one generated program.
PARITY_PROGRAMS = (
    "generated", "passwd", "passwdRef", "ping", "su", "suRef",
    "thttpd", "sshd", "sshdPrivsep",
)


class TestReferenceInterpreterThroughPipeline:
    """The interpreter_class hook swaps the evaluator pipeline-wide, and
    the compiled core and the reference retire exactly the same counts."""

    @staticmethod
    def _spec(program):
        from repro.programs import spec_by_name
        from repro.testkit import generators

        if program == "generated":
            case = generators.gen_program_case(random.Random("pipe"), 15)
            return generators.build_program_spec(case, name="pipe")
        return spec_by_name(program)

    @staticmethod
    def _run(analyzer, spec, module, interpreter):
        from repro.vm import set_interpreter_class

        previous = set_interpreter_class(interpreter)
        try:
            chrono, exit_code, stdout = analyzer.run_dynamic(spec, module)
        finally:
            set_interpreter_class(previous)
        executed = analyzer.telemetry.metrics.counter(
            "vm.instructions_executed"
        ).value
        phases = [
            (p.name, p.privileges, p.uids, p.gids, p.instruction_count)
            for p in chrono.phases
        ]
        return executed, phases, exit_code, stdout

    @pytest.mark.parametrize("program", PARITY_PROGRAMS)
    def test_whole_pipeline_agrees_under_reference_interpreter(self, program):
        from repro.core.pipeline import PrivAnalyzer
        from repro.rewriting import SearchBudget
        from repro.vm import interpreter_class
        from repro.vm.interpreter import Interpreter

        budget = SearchBudget(max_states=20_000, max_seconds=10.0)
        sides = []
        for interpreter in (None, ReferenceInterpreter):
            # A fresh spec per side: workloads consume their env queues.
            spec = self._spec(program)
            analyzer = PrivAnalyzer(budget=budget)
            module = analyzer.compile(spec)[0]
            sides.append(self._run(analyzer, spec, module, interpreter))
        stock, reference = sides
        assert interpreter_class() is Interpreter
        assert stock[0] > 0
        assert stock == reference

    def test_verdicts_agree_under_reference_interpreter(self):
        from repro.core.pipeline import PrivAnalyzer
        from repro.rewriting import SearchBudget
        from repro.vm import set_interpreter_class

        spec = self._spec("generated")
        budget = SearchBudget(max_states=20_000, max_seconds=10.0)
        stock = PrivAnalyzer(budget=budget).analyze(spec)
        previous = set_interpreter_class(ReferenceInterpreter)
        try:
            reference = PrivAnalyzer(budget=budget).analyze(spec)
        finally:
            set_interpreter_class(previous)
        assert stock.chrono.total == reference.chrono.total
        for stock_phase, reference_phase in zip(stock.phases, reference.phases):
            for attack_id, report in stock_phase.verdicts.items():
                assert (
                    report.verdict
                    is reference_phase.verdicts[attack_id].verdict
                )


class TestFuzzCli:
    def test_cli_clean_campaign_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "fuzz", "--seed", "0", "--runs", "2",
                "--oracle", "vm", "--oracle", "ledger",
                "--artifacts", str(tmp_path),
            ]
        )
        assert code == 0
        assert "all passed" in capsys.readouterr().out

    def test_cli_injected_campaign_finds_shrinks_and_replays(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        code = main(
            [
                "fuzz", "--seed", "0", "--runs", "4", "--oracle", "vm",
                "--inject", "vm-mul-truncate", "--artifacts", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "--replay" in out
        repro_files = sorted(tmp_path.glob("vm-seed0-run*.json"))
        assert repro_files

        code = main(["fuzz", "--replay", str(repro_files[0])])
        assert code == 1
        assert "still failing" in capsys.readouterr().out

    def test_cli_rejects_unknown_oracle_and_fault(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown oracle"):
            main(["fuzz", "--oracle", "nonsense"])
        with pytest.raises(SystemExit, match="unknown fault"):
            main(["fuzz", "--inject", "nonsense"])
        with pytest.raises(SystemExit, match="runs must be positive"):
            main(["fuzz", "--runs", "0"])
        with pytest.raises(SystemExit, match="no such repro"):
            main(["fuzz", "--replay", str(tmp_path / "absent.json")])


@pytest.mark.fuzz
def test_long_campaign_all_families(tmp_path):
    """The nightly-style sweep: every family, a real run count."""
    result = run_campaign(
        seed=0, runs=25, families=ALL_FAMILIES, artifacts_dir=tmp_path
    )
    assert result.passed, [f.details for f in result.failures]
