"""Peer-group analysis: distance, clustering, determinism, violator flagging.

The hypothesis properties pin the determinism contract down hard: the
report is a pure function of the (profile *set*, seed) pair — input
order, sweep pool mode, and interpreter state must all be invisible.
The concrete tests then check the part determinism can't: that a
planted capability hoarder actually surfaces at the top.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus import (
    CorpusSpec,
    generate_corpus,
    peer_analysis,
    profile_distance,
    sweep_corpus,
)
from repro.corpus.peers import HOLD_FINDING_MARGIN, distance_matrix, k_medoids
from repro.corpus.profile import PROFILE_SCHEMA_VERSION, PrivilegeProfile

CAPS = ("CapSysAdmin", "CapKill", "CapChown", "CapSetuid", "CapNetBindService")

fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False).map(
    lambda value: round(value, 6)
)


def _profile(name, windows, invulnerable, cap_hold, root, static, dynamic):
    return PrivilegeProfile(
        program=name,
        schema=PROFILE_SCHEMA_VERSION,
        total_instructions=1000,
        phase_count=3,
        windows=windows,
        invulnerable_window=invulnerable,
        cap_hold=cap_hold,
        root_euid_fraction=root,
        cred_tuples=2,
        static_surface=sorted(static),
        dynamic_surface=sorted(dynamic),
    )


@st.composite
def profiles(draw, min_size=3, max_size=8):
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    result = []
    for index in range(count):
        windows = draw(
            st.dictionaries(
                st.sampled_from(["1", "2", "3", "4"]), fractions, max_size=4
            )
        )
        cap_hold = draw(
            st.dictionaries(st.sampled_from(CAPS), fractions, max_size=4)
        )
        surface = draw(
            st.lists(
                st.sampled_from(["open", "setuid", "bind", "chmod", "kill"]),
                unique=True, max_size=5,
            )
        )
        result.append(
            _profile(
                f"p{index:02d}", windows, draw(fractions), cap_hold,
                draw(fractions), surface, surface[:2],
            )
        )
    return result


class TestDistance:
    def test_identity_and_symmetry(self):
        a = _profile("a", {"1": 0.5}, 0.2, {"CapKill": 0.3}, 0.1,
                     ["open"], ["open"])
        b = _profile("b", {"1": 0.1}, 0.6, {"CapSysAdmin": 0.9}, 0.8,
                     ["bind"], [])
        assert profile_distance(a, a) == 0.0
        assert profile_distance(a, b) == profile_distance(b, a)
        assert profile_distance(a, b) > 0.0

    def test_powerful_capability_weighs_double(self):
        base = _profile("base", {}, 0.0, {}, 0.0, [], [])
        sys_admin = _profile("sa", {}, 0.0, {"CapSysAdmin": 1.0}, 0.0, [], [])
        bind = _profile("nb", {}, 0.0, {"CapNetBindService": 1.0}, 0.0, [], [])
        assert profile_distance(base, sys_admin) == pytest.approx(
            2.0 * profile_distance(base, bind)
        )


class TestKMedoids:
    def test_deterministic_for_seed(self):
        rng = random.Random(4)
        points = [[abs(i - j) * rng.random() for j in range(8)] for i in range(8)]
        matrix = [[(points[i][j] + points[j][i]) / 2 for j in range(8)]
                  for i in range(8)]
        for i in range(8):
            matrix[i][i] = 0.0
        first = k_medoids(matrix, k=3, seed=9)
        second = k_medoids(matrix, k=3, seed=9)
        assert first == second

    def test_degenerate_inputs(self):
        assert k_medoids([], k=2) == ([], [])
        medoids, assignment = k_medoids([[0.0]], k=5)
        assert medoids == [0]
        assert assignment == [0]


class TestDeterminismProperties:
    @settings(max_examples=25, deadline=None)
    @given(profiles(), st.integers(min_value=0, max_value=2**16),
           st.integers(min_value=0, max_value=2**16))
    def test_input_order_is_invisible(self, profile_list, seed, shuffle_seed):
        shuffled = list(profile_list)
        random.Random(shuffle_seed).shuffle(shuffled)
        base = peer_analysis(profile_list, seed=seed)
        permuted = peer_analysis(shuffled, seed=seed)
        assert base.to_dict() == permuted.to_dict()

    @settings(max_examples=25, deadline=None)
    @given(profiles(), st.integers(min_value=0, max_value=2**16))
    def test_repeat_runs_are_bit_identical(self, profile_list, seed):
        first = peer_analysis(profile_list, seed=seed)
        second = peer_analysis(profile_list, seed=seed)
        assert first.to_json() == second.to_json()

    @settings(max_examples=25, deadline=None)
    @given(profiles())
    def test_report_is_complete_and_sorted(self, profile_list):
        report = peer_analysis(profile_list, seed=0)
        assert len(report.outliers) == len(profile_list)
        scores = [entry["score"] for entry in report.outliers]
        assert scores == sorted(scores, reverse=True)
        assert all(score >= 0.0 for score in scores)
        clustered = sorted(
            member["program"]
            for cluster in report.clusters
            for member in cluster["members"]
        )
        assert clustered == sorted(p.program for p in profile_list)


class TestDistanceMatrix:
    @settings(max_examples=25, deadline=None)
    @given(profiles(min_size=0))
    def test_mirrored_matrix_equals_full_matrix(self, profile_list):
        full = [[profile_distance(a, b) for b in profile_list] for a in profile_list]
        assert distance_matrix(profile_list) == full


class TestSweepModeParity:
    def test_serial_and_process_profiles_identical(self):
        # Whatever --jobs computed the profiles, the peers report must be
        # bit-identical.
        entries = generate_corpus(
            CorpusSpec(seed=7, size=4, violators=1,
                       include_builtins=False, include_exemplars=False)
        )
        serial = sweep_corpus(entries, mode="serial")
        pooled = sweep_corpus(entries, jobs=2, mode="process")
        for a, b in zip(serial, pooled):
            assert a.to_dict() == b.to_dict()
        reports = [
            peer_analysis(profile_set, seed=0).to_json()
            for profile_set in (serial, pooled)
        ]
        assert reports[0] == reports[1]


class TestViolatorFlagging:
    def test_synthetic_hoarder_is_top_outlier_with_finding(self):
        peers = [
            _profile(f"peer{i}", {"1": 0.1}, 0.8,
                     {"CapNetBindService": 0.1}, 0.1,
                     ["open", "bind"], ["open"])
            for i in range(5)
        ]
        hoarder = _profile("hoarder", {"1": 0.9}, 0.0,
                           {"CapSysAdmin": 1.0, "CapNetBindService": 0.1}, 0.9,
                           ["open", "bind"], ["open"])
        report = peer_analysis(peers + [hoarder], k=1, seed=0)
        assert report.outliers[0]["program"] == "hoarder"
        findings = {(f.program, f.capability) for f in report.findings}
        assert ("hoarder", "CapSysAdmin") in findings

    def test_capability_filter_restricts_findings_only(self):
        peers = [
            _profile(f"peer{i}", {}, 0.5, {"CapKill": 0.0}, 0.0, ["open"], [])
            for i in range(4)
        ]
        killer = _profile("killer", {}, 0.5,
                          {"CapKill": 1.0, "CapChown": 1.0}, 0.0, ["open"], [])
        everything = peer_analysis(peers + [killer], k=1, seed=0)
        only_kill = peer_analysis(
            peers + [killer], k=1, seed=0, capability="CapKill"
        )
        assert {f.capability for f in everything.findings} == {
            "CapKill", "CapChown"
        }
        assert {f.capability for f in only_kill.findings} == {"CapKill"}
        assert everything.to_dict()["outliers"] == only_kill.to_dict()["outliers"]

    def test_finding_respects_margin(self):
        margin_peers = [
            _profile(f"m{i}", {}, 0.0, {"CapKill": 0.5}, 0.0, [], [])
            for i in range(3)
        ]
        nudge = _profile(
            "nudge", {}, 0.0,
            {"CapKill": 0.5 + HOLD_FINDING_MARGIN / 2}, 0.0, [], [],
        )
        report = peer_analysis(margin_peers + [nudge], k=1, seed=0)
        assert not report.findings

    def test_generated_violator_flagged_in_real_corpus(self):
        # End-to-end: one planted daemon hoarding CAP_SYS_ADMIN among
        # well-behaved daemons must earn the hold-time finding.
        entries = generate_corpus(
            CorpusSpec(seed=2, size=6, families=("daemon",), violators=1,
                       include_builtins=False, include_exemplars=False)
        )
        violator = next(e.name for e in entries if e.violator)
        profiles_list = sweep_corpus(entries)
        report = peer_analysis(profiles_list, k=1, seed=0)
        flagged = {f.program for f in report.findings
                   if f.capability == "CapSysAdmin"}
        assert violator in flagged

    def test_default_spec_flags_every_planted_violator(self):
        # Regression: the default spec once planted all five violators
        # as CapSysAdmin daemons, and at this seed k-medoids grouped them
        # into a peer group of their own, which hid every one of them.
        entries = generate_corpus(
            CorpusSpec(seed=97484635, include_builtins=False)
        )
        report = peer_analysis(sweep_corpus(entries, mode="serial"))
        flagged = {finding.program for finding in report.findings}
        planted = {entry.name for entry in entries if entry.violator}
        assert len(planted) >= 5
        assert planted <= flagged
