"""Process-pool worker crashes must surface a diagnostic, never hang.

A worker that dies mid-search (OOM kill, SIGKILL) breaks the whole
pool; the engine converts the bare ``BrokenProcessPool`` into an error
naming the in-flight searches and how to retry them serially.
"""

import dataclasses
import random

import pytest

from repro.core.attacks import ALL_ATTACKS, Attack
from repro.core.multiprocess import analyze_multiprocess
from repro.rewriting import SearchBudget
from repro.rosa.engine import QueryEngine, QueryRequest
from repro.rosa.prove import prove
from repro.testkit import generators
from repro.testkit.faults import CrashingSpec


def process_engine() -> QueryEngine:
    return QueryEngine(cache=None, jobs=2)


def seeded_requests(count: int) -> list:
    """``count`` seeded requests the abstract pre-check cannot prove, so
    each one reaches the pool instead of being answered in the parent."""
    rng = random.Random("worker-crash")
    requests = []
    while len(requests) < count:
        request = generators.build_query_request(generators.gen_query_case(rng, 10))
        if not prove(request.query):
            requests.append(request)
    return requests


class TestEngineLevel:
    def test_killed_worker_surfaces_named_diagnostic(self):
        requests = seeded_requests(2)
        crashing = dataclasses.replace(requests[0], spec=CrashingSpec())
        with pytest.raises(RuntimeError) as failure:
            process_engine().run_queries([crashing] + requests[1:])
        message = str(failure.value)
        assert "worker crashed" in message
        assert "rerun with --jobs 1" in message
        # The diagnostic names the searches that were in flight.
        assert crashing.query.name in message

    def test_healthy_batch_still_completes_in_process_mode(self):
        requests = seeded_requests(2)
        reports = process_engine().run_queries(requests)
        assert len(reports) == len(requests)
        for report in reports:
            assert report.verdict is not None


class TestMultiprocessPipeline:
    def test_combined_exposure_reports_crash_instead_of_hanging(
        self, monkeypatch
    ):
        # Two privilege phases (before/after autopriv drops CapSetuid past
        # its last use; the loop supplies counted blocks in the second
        # phase) produce two distinct queries, so the batch actually
        # reaches the pool instead of deduplicating down to one
        # serially-run search.  The program runs as root and opens a
        # file, so neither phase's /dev/mem read is provably unreachable:
        # the abstract pre-check answers neither in the parent.
        case = {
            "vars": 1,
            "body": [
                ["set", 0, ["lit", 1]],
                ["open", 0, "/etc/passwd", "r"],
                ["sys1", "setuid", 0],
                ["loop", 2, [["set", 0, ["bin", "+", ["var", 0], ["lit", 1]]]]],
            ],
            "permitted": ["CapSetuid"],
            "uid": 0,
            "gid": 1000,
        }
        spec = generators.build_program_spec(case, name="crashy")
        analysis = analyze_multiprocess(spec)
        analysis.engine = process_engine()
        monkeypatch.setattr(
            Attack,
            "query_spec",
            lambda self, *args, **kwargs: CrashingSpec(),
        )
        with pytest.raises(RuntimeError, match="worker crashed"):
            analysis.combined_exposure(
                ALL_ATTACKS[0], budget=SearchBudget(max_states=1000)
            )
