"""PrivilegeProfile extraction, bit-identity, and the content-addressed store.

The invariant everything downstream leans on: a profile computed from
the live in-memory analysis equals the profile computed from that run's
persisted ledger, **bit for bit** — same dict, same JSON bytes.  The
sweep may therefore cache either form and the peers report can never
depend on which path produced a profile.
"""

import json
import random
import re

import pytest

from repro.core.ledger import capture_analysis
from repro.core.pipeline import PrivAnalyzer
from repro.corpus import (
    CorpusSpec,
    PROFILE_SCHEMA_VERSION,
    ProfileStore,
    generate_corpus,
    profile_from_analysis,
    profile_from_ledger,
    profile_key,
    sweep_corpus,
)
from repro.corpus.profile import PrivilegeProfile
from repro.corpus.sweep import DEFAULT_SWEEP_BUDGET
from repro.programs import spec_by_name
from repro.rewriting import SearchBudget
from repro.telemetry import Telemetry
from repro.testkit.generators import build_program_spec, gen_corpus_program_case

BUDGET = SearchBudget(max_states=20_000, max_seconds=10.0)


def _analyze(spec):
    telemetry = Telemetry.enabled(audit=True)
    analyzer = PrivAnalyzer(budget=BUDGET, telemetry=telemetry)
    return analyzer.analyze(spec), telemetry


class TestLiveLedgerBitIdentity:
    @pytest.mark.parametrize("program", ["passwd", "su"])
    def test_builtin_program(self, program, tmp_path):
        analysis, telemetry = _analyze(spec_by_name(program))
        live = profile_from_analysis(analysis, audit=telemetry.audit)
        ledger = capture_analysis(
            tmp_path / program, analysis, telemetry, timestamp=0.0
        )
        persisted = profile_from_ledger(ledger)
        assert live.to_dict() == persisted.to_dict()
        assert json.dumps(live.to_dict(), sort_keys=True) == json.dumps(
            persisted.to_dict(), sort_keys=True
        )

    def test_generated_program(self, tmp_path):
        case = gen_corpus_program_case(random.Random("profile:gen"))
        analysis, telemetry = _analyze(build_program_spec(case, name="gen"))
        live = profile_from_analysis(analysis, audit=telemetry.audit)
        ledger = capture_analysis(tmp_path, analysis, telemetry, timestamp=0.0)
        assert live.to_dict() == profile_from_ledger(ledger).to_dict()

    def test_ledger_without_exposure_is_an_error(self, tmp_path):
        class Hollow:
            root = tmp_path
            exposure = None
            syscalls = None

        with pytest.raises(ValueError, match="no exposure"):
            profile_from_ledger(Hollow())


class TestProfileShape:
    def test_passwd_features(self):
        analysis, telemetry = _analyze(spec_by_name("passwd"))
        profile = profile_from_analysis(analysis, audit=telemetry.audit)
        assert profile.schema == PROFILE_SCHEMA_VERSION
        assert profile.program == "passwd"
        assert profile.total_instructions == analysis.chrono.total
        assert profile.phase_count == len(analysis.phases)
        # The paper's pre-refactor passwd hoards its DAC caps for nearly
        # the whole run — the exact feature the peers report flags.
        assert profile.cap_hold.get("CapDacOverride", 0.0) > 0.9
        assert 0.0 <= profile.invulnerable_window <= 1.0
        # The two surfaces use different vocabularies (compiler
        # intrinsics vs kernel audit names); both must be populated.
        assert profile.dynamic_surface  # audit was live
        assert "chmod" in profile.static_surface
        assert "chmod" in profile.dynamic_surface

    def test_round_trips_through_dict(self):
        analysis, telemetry = _analyze(spec_by_name("ping"))
        profile = profile_from_analysis(analysis, audit=telemetry.audit)
        assert PrivilegeProfile.from_dict(profile.to_dict()) == profile

    def test_no_audit_means_empty_dynamic_surface(self):
        analysis, _ = _analyze(spec_by_name("ping"))
        profile = profile_from_analysis(analysis, audit=None)
        assert profile.dynamic_surface == []


class TestProfileKey:
    def test_stable_for_same_spec(self):
        spec = spec_by_name("passwd")
        assert profile_key(spec, BUDGET) == profile_key(spec, BUDGET)

    def test_sensitive_to_source_and_budget(self):
        case = gen_corpus_program_case(random.Random("key"))
        spec = build_program_spec(case, name="k")
        base = profile_key(spec, BUDGET)
        other_budget = SearchBudget(max_states=10, max_seconds=1.0)
        assert profile_key(spec, other_budget) != base
        mutated = dict(case)
        mutated["body"] = list(case["body"]) + [["print", ["lit", 1]]]
        assert profile_key(build_program_spec(mutated, name="k"), BUDGET) != base

    def test_distinct_programs_distinct_keys(self):
        keys = {
            profile_key(spec_by_name(name), BUDGET)
            for name in ("passwd", "passwdRef", "su", "ping")
        }
        assert len(keys) == 4


class TestProfileStore:
    def test_miss_then_hit(self, tmp_path):
        store = ProfileStore(tmp_path)
        assert store.get("deadbeef") is None
        analysis, telemetry = _analyze(spec_by_name("ping"))
        profile = profile_from_analysis(analysis, audit=telemetry.audit)
        assert store.put("deadbeef", profile) is True
        assert store.get("deadbeef") == profile
        stats = store.stats()
        assert stats["kind"] == "profile"
        assert (stats["entries"], stats["hits"], stats["misses"]) == (1, 1, 1)
        assert stats["hit_rate"] == 0.5 and stats["rejected"] == 0
        assert [record["key"] for record in store.lineage()] == ["deadbeef"]

    def test_foreign_schema_is_a_miss(self, tmp_path):
        writer = ProfileStore(tmp_path)
        assert writer.binding.startswith(f"profile-v{PROFILE_SCHEMA_VERSION}:")
        writer.binding = writer.binding.replace(
            f"profile-v{PROFILE_SCHEMA_VERSION}:", "profile-v999:"
        )
        analysis, telemetry = _analyze(spec_by_name("ping"))
        writer.put("key", profile_from_analysis(analysis, audit=telemetry.audit))
        store = ProfileStore(tmp_path)
        assert store.get("key") is None
        assert store.rejected == 1 and store.misses == 1

    def test_torn_json_is_a_miss(self, tmp_path):
        store = ProfileStore(tmp_path)
        path = store._path("key")
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert store.get("key") is None
        assert store.rejected == 1


class TestSweepCaching:
    def test_warm_sweep_profiles_nothing(self, tmp_path):
        entries = generate_corpus(
            CorpusSpec(seed=3, size=3, violators=0,
                       include_builtins=False, include_exemplars=False)
        )
        store = ProfileStore(tmp_path)
        telemetry = Telemetry.enabled()
        cold = sweep_corpus(entries, store=store, telemetry=telemetry)
        assert store.hits == 0 and store.misses == len(entries)
        warm = sweep_corpus(entries, store=store, telemetry=telemetry)
        assert store.hits == len(entries)
        assert [p.to_dict() for p in cold] == [p.to_dict() for p in warm]
        metrics = telemetry.metrics
        assert metrics.counter("rosa.corpus.cache_hits").value == len(entries)
        assert metrics.counter("rosa.corpus.profiled").value == len(entries)

    def test_editing_one_program_invalidates_exactly_one_entry(self, tmp_path):
        entries = generate_corpus(
            CorpusSpec(seed=3, size=3, violators=0,
                       include_builtins=False, include_exemplars=False)
        )
        store = ProfileStore(tmp_path)
        sweep_corpus(entries, store=store)
        edited = entries[1]
        case = dict(edited.case)
        case["body"] = list(case["body"]) + [["print", ["lit", 42]]]
        entries[1] = type(edited)(
            name=edited.name, family=edited.family, kind=edited.kind,
            violator=edited.violator, case=case,
        )
        store.hits = store.misses = 0
        sweep_corpus(entries, store=store)
        assert store.hits == 2
        assert store.misses == 1

    def test_tampered_profile_is_recomputed_and_republished(self, tmp_path):
        entries = generate_corpus(
            CorpusSpec(seed=3, size=2, violators=0,
                       include_builtins=False, include_exemplars=False)
        )
        store = ProfileStore(tmp_path)
        cold = sweep_corpus(entries, store=store)
        key = profile_key(entries[0].spec(), budget=DEFAULT_SWEEP_BUDGET)
        path = store._path(key)
        # A plausible lie: one value flipped, the JSON still well formed.
        text, flipped = re.subn(
            r'("invulnerable_window":\s*)[0-9.e-]+', r"\g<1>1.0", path.read_text()
        )
        assert flipped == 1
        path.write_text(text)

        store = ProfileStore(tmp_path)
        warm = sweep_corpus(entries, store=store)
        assert [p.to_dict() for p in warm] == [p.to_dict() for p in cold]
        assert store.rejected == 1 and store.hits == 1
        assert store.published == 1  # the repair
        assert ProfileStore(tmp_path).get(key) == cold[0]

    def test_storeless_sweep_always_profiles(self):
        entries = generate_corpus(
            CorpusSpec(seed=3, size=2, violators=0,
                       include_builtins=False, include_exemplars=False)
        )
        profiles = sweep_corpus(entries, store=None)
        assert [p.program for p in profiles] == [e.name for e in entries]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep mode"):
            sweep_corpus([], mode="quantum")
        with pytest.raises(ValueError, match="unknown sweep mode 'thread'"):
            sweep_corpus([], mode="thread")
