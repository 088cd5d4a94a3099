"""Tests of the benchmark's own logic.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from measure import (
    END_TO_END_METRICS,
    LAYER_METRICS,
    Op,
    check_exact,
    error_rate,
    golden_mismatch,
    latency_ms,
    load_goldens,
    percentile,
    valid_metric_name,
    wall_clock_timeout,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# -- the percentile rule -------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert percentile(range(100), 0.9) == 89
    assert percentile(range(99), 0.9) is None
    assert percentile(range(20), 0.5) == 9
    assert percentile(range(19), 0.5) is None
    assert percentile([], 0.5) is None


def test_percentile_ignores_input_order():
    samples = [float(value) for value in range(200)]
    assert percentile(list(reversed(samples)), 0.9) == percentile(samples, 0.9) == 179.0


# -- failure counting ----------------------------------------------------------


def test_failed_op_raises_error_rate_and_misses_latency_bounds():
    ops = [Op(f"op{index}", 0.010) for index in range(20)]
    assert error_rate(ops) == 0.0
    assert latency_ms(ops, 0.5) == pytest.approx(10.0)
    for op in ops[:11]:
        op.failure = "raised RuntimeError"
    assert error_rate(ops) == 11 / 20
    assert latency_ms(ops, 0.5) == math.inf


def test_corrupted_golden_value_fails_the_op():
    from repro.core.pipeline import PrivAnalyzer
    from repro.corpus import profile_from_analysis
    from repro.programs import spec_by_name
    from repro.rewriting import SearchBudget

    analysis = PrivAnalyzer(budget=SearchBudget(20_000, 10.0)).analyze(spec_by_name("ping"))
    profile = profile_from_analysis(analysis).to_dict()
    golden = load_goldens(["ping"])["ping"]
    assert golden_mismatch(profile, golden) is None

    corrupted = copy.deepcopy(golden)
    corrupted["windows"]["1"] = 0.5
    failure = golden_mismatch(profile, corrupted)
    assert failure == "windows differs from golden"
    ops = [Op("ping", 0.03, failure), Op("ping", 0.03)]
    assert error_rate(ops) == 0.5


def test_only_wall_clock_timeouts_fail():
    assert wall_clock_timeout("timeout", 1_200, 20_000)
    assert not wall_clock_timeout("timeout", 20_000, 20_000)
    assert not wall_clock_timeout("vulnerable", 3, 20_000)


def test_exact_counters_must_repeat():
    record = {"vm.instructions": 530950, "rosa.states_explored": 16446, "rosa.search_s": 2.1}
    check_exact([record, dict(record, **{"rosa.search_s": 2.4})], "same seed")
    with pytest.raises(RuntimeError, match="vm.instructions"):
        check_exact([record, dict(record, **{"vm.instructions": 530951})], "same seed")


# -- host speed ----------------------------------------------------------------


def test_reference_samples_follow_op_time(monkeypatch):
    import measure

    monkeypatch.setattr(measure, "reference_seconds", lambda: 2 * measure.REFERENCE_S)
    sampler = measure.ReferenceSampler()
    sampler.after_op(0.05)
    sampler.after_op(0.30)
    samples = sampler.finish()
    assert len(samples) == 1 + round(0.35 / measure.REFERENCE_EVERY_S) + 1
    assert measure.host_factor(samples) == 0.5


# -- metric names --------------------------------------------------------------


def test_metric_name_grammar():
    assert valid_metric_name("rosa.states_per_s")
    assert valid_metric_name("op_p50_ms")
    for bad in ("", ".hidden", "op p50", "latency/ms", "rosa:key", "x" * 65):
        assert not valid_metric_name(bad)


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    assert end_to_end == END_TO_END_METRICS
    assert per_layer == LAYER_METRICS
    for name in [*end_to_end, *per_layer, *(w["name"] for w in spec["workloads"])]:
        assert valid_metric_name(name), name


# -- the bare-directory contract -----------------------------------------------


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "tables-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
