"""The benchmark's per-layer probes still fire on the program as it is.

``perfbench/probes.py`` times each layer by wrapping named module
attributes and methods from outside the program — for ROSA,
``repro.rosa.engine.query_cache_key``, ``repro.rosa.engine.check``,
``QueryCache.get`` and ``QueryEngine.run_queries``.  A refactor that
moves one of those names leaves its wrapper on an attribute nobody calls
and silently zeroes a layer metric.  This test loads the probes by path,
runs a cold and then a warm ``passwd`` analysis over one verdict store,
and asserts that every ROSA layer reports its work.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.core import PrivAnalyzer
from repro.programs import spec_by_name

PROBES_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


@pytest.fixture
def probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    layer = module.LayerProbes().install()
    try:
        yield layer
    finally:
        layer.uninstall()


def test_rosa_layer_probes_fire_cold_then_warm(probes, tmp_path):
    program = spec_by_name("passwd")
    # Fresh analyzers: each has an empty L1, and is built after install()
    # so its engine searches through the probed ``check``.
    PrivAnalyzer(verdict_store=tmp_path).analyze(program)
    PrivAnalyzer(verdict_store=tmp_path).analyze(program)
    (cold_name, cold), (warm_name, warm) = probes.analyses
    assert cold_name == warm_name == "passwd"
    for record in (cold, warm):
        assert record["rosa.key_s"] > 0
        assert record["rosa.lookup_s"] > 0
        assert record["rosa.run_queries_s"] > 0
    assert cold["rosa.searches"] > 0
    assert cold["rosa.store_published"] > 0
    assert warm["rosa.store_hits"] > 0
    assert warm["rosa.searches"] == 0
