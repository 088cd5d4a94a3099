"""The conformance testkit's seeded generators and case builders."""

import random

import pytest

from repro.caps import CapabilitySet
from repro.frontend import compile_source
from repro.ir import verify_module
from repro.oskernel.setup import build_kernel
from repro.rewriting import Configuration
from repro.rosa.engine import QueryRequest
from repro.testkit import generators
from repro.testkit.shrink import case_size, drop_chunks, drop_one, greedy_shrink


def seeded(tag, index):
    return random.Random(f"0:{tag}:{index}")


class TestDeterminism:
    def test_same_seed_same_case_every_domain(self):
        for gen in (
            generators.gen_program_case,
            generators.gen_batch_case,
            generators.gen_query_case,
            generators.gen_config_case,
            generators.gen_trace_case,
        ):
            for index in range(5):
                a = gen(seeded(gen.__name__, index), 20)
                b = gen(seeded(gen.__name__, index), 20)
                assert a == b, f"{gen.__name__} is not seed-deterministic"

    def test_different_runs_differ(self):
        cases = {
            repr(generators.gen_program_case(seeded("p", index), 20))
            for index in range(10)
        }
        assert len(cases) > 1


class TestProgramGeneration:
    def test_generated_programs_compile_and_verify(self):
        for index in range(20):
            case = generators.gen_program_case(seeded("compile", index), 20)
            module = compile_source(generators.render_program(case), "generated")
            verify_module(module)

    def test_any_statement_subset_still_compiles(self):
        # The shrinker removes arbitrary statements; pre-declared
        # variables guarantee every subset stays a valid program.
        case = generators.gen_program_case(seeded("subset", 3), 20)
        rng = random.Random(42)
        for _ in range(5):
            subset_case = dict(case)
            subset_case["body"] = [
                stmt for stmt in case["body"] if rng.random() < 0.5
            ]
            compile_source(generators.render_program(subset_case), "subset")

    def test_spec_builder_round_trips_launch_config(self):
        case = generators.gen_program_case(seeded("spec", 0), 10)
        spec = generators.build_program_spec(case, name="x")
        assert spec.uid == case["uid"]
        assert spec.gid == case["gid"]
        assert spec.permitted == CapabilitySet(case["permitted"])


class TestQueryAndConfigGeneration:
    def test_query_case_builds_request(self):
        for index in range(10):
            case = generators.gen_query_case(seeded("query", index), 20)
            request = generators.build_query_request(case)
            assert isinstance(request, QueryRequest)
            assert request.budget.max_states == case["max_states"]
            # Building is deterministic: the same case, the same query.
            again = generators.build_query_request(case)
            assert again.query.initial.key == request.query.initial.key

    def test_config_case_builds_valid_configuration(self):
        for index in range(10):
            case = generators.gen_config_case(seeded("config", index), 20)
            config = generators.build_configuration(case)
            assert isinstance(config, Configuration)
            assert config.key  # canonical key derivable
            assert len(list(config.objects("Process"))) == 1

    def test_trace_case_applies_to_fresh_kernel(self):
        for index in range(10):
            case = generators.gen_trace_case(seeded("trace", index), 20)
            kernel = build_kernel()
            process = kernel.spawn(
                case["uid"], case["gid"], permitted=CapabilitySet(case["caps"])
            )
            outcomes = generators.apply_trace(case, kernel, process.pid)
            assert len(outcomes) == len(case["steps"])


class TestShrinker:
    def test_drop_one_yields_every_single_removal(self):
        assert list(drop_one([1, 2, 3])) == [[1, 2], [1, 3], [2, 3]]

    def test_drop_chunks_tries_halves_first(self):
        variants = list(drop_chunks([1, 2, 3, 4, 5, 6]))
        assert variants[0] == [1, 2, 3]
        assert variants[1] == [4, 5, 6]

    def test_greedy_shrink_converges_to_minimal_failing_case(self):
        # Failure: the case contains the element 7 anywhere in "items".
        case = {"items": [1, 7, 3, 9, 2, 8]}

        def still_fails(candidate):
            return 7 in candidate["items"]

        def candidates(candidate):
            for index in range(len(candidate["items"])):
                yield {
                    "items": candidate["items"][:index]
                    + candidate["items"][index + 1 :]
                }

        shrunk, attempts = greedy_shrink(case, still_fails, candidates)
        assert shrunk == {"items": [7]}
        assert attempts > 0

    def test_greedy_shrink_respects_attempt_budget(self):
        case = {"items": list(range(50))}
        shrunk, attempts = greedy_shrink(
            case,
            lambda candidate: True,
            lambda candidate: (
                {"items": candidate["items"][:-1]} for _ in range(1)
            ),
            max_attempts=5,
        )
        assert attempts == 5
        assert case_size(shrunk) < case_size(case)

    def test_case_size_counts_nodes(self):
        assert case_size(1) == 1
        assert case_size([1, 2]) == 3
        assert case_size({"a": [1], "b": 2}) == 4


@pytest.mark.fuzz
def test_bulk_generation_never_fails_to_compile():
    for index in range(200):
        case = generators.gen_program_case(seeded("bulk", index), 40)
        compile_source(generators.render_program(case), "bulk")
