"""Golden digests of the VM's generated code.

:mod:`repro.vm.compiled` turns each IR function into the text of one
Python ``def`` and compiles it through
:data:`~repro.vm.compiled.CODE_CACHE`.  This file pins the sha256 of
every text ``CODE_CACHE.get`` receives, in order, with both the recipe
and code caches emptied first, for three runs:

* each Table III/V program compiled and run cold, on its own;
* passwd run under a live profiler (the instrumented mode);
* the seed-0 corpus of the ``corpus-cold`` benchmark workload, in
  corpus order.

A change to the generator that alters one character of generated code
shows up here; a refactoring that keeps it must leave these unchanged.

Regenerate deliberately after a reviewed change with::

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_vm_text_golden.py
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.core.pipeline import PrivAnalyzer
from repro.programs import spec_by_name
from repro.telemetry import Profiler, Telemetry
from repro.vm import compiled

from tests.test_compile_golden import TABLE_PROGRAMS
from tests.test_vm_cost import _corpus_specs

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "vm_text_digests.json"

PROFILED_KEY = "passwd:profiled"
CORPUS_KEY = "corpus:seed=0"


def _specs(key: str):
    if key == CORPUS_KEY:
        return _corpus_specs()
    return [spec_by_name(key.split(":")[0])]


def _current(key: str, monkeypatch) -> str:
    compiled.RECIPES.clear()
    compiled.CODE_CACHE.clear()
    whole = hashlib.sha256()
    get = compiled.CODE_CACHE.get

    def recorded(text):
        whole.update(f"{len(text)}\n{text}".encode())
        return get(text)

    monkeypatch.setattr(compiled.CODE_CACHE, "get", recorded)
    for spec in _specs(key):
        telemetry = Telemetry(profiler=Profiler()) if key == PROFILED_KEY else None
        analyzer = PrivAnalyzer(telemetry=telemetry)
        analyzer.run_dynamic(spec, analyzer.compile(spec)[0])
    return whole.hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize("key", TABLE_PROGRAMS + (PROFILED_KEY, CORPUS_KEY))
def test_generated_code_matches_golden(key, monkeypatch):
    current = _current(key, monkeypatch)
    if os.environ.get("UPDATE_GOLDEN"):
        golden = _golden()
        golden[key] = current
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden VM text digest for {key} rewritten")
    assert _golden().get(key) == current, f"generated VM code of {key} changed"


def test_golden_keys_are_exactly_the_pinned_runs():
    assert sorted(_golden()) == sorted(TABLE_PROGRAMS + (PROFILED_KEY, CORPUS_KEY))
