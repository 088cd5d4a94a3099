"""Golden IR digests of the compile stage.

``PrivAnalyzer.compile`` turns a program's PrivC source into the module
the VM runs: frontend, AutoPriv transform, ChronoPriv instrumentation and
verification.  This file pins the sha256 of ``print_module`` of that
module for each Table III/V program, and one digest over the whole
generated corpus at seed 0 (every entry's name and module text, in
corpus order).  A change that moves a single instruction, block name or
operand anywhere in the compile stage shows up here.

Regenerate deliberately after a reviewed change with::

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_compile_golden.py
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.core.pipeline import PrivAnalyzer
from repro.corpus import CorpusSpec, generate_corpus
from repro.ir import print_module
from repro.programs import spec_by_name

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "compile_digests.json"

TABLE_PROGRAMS = (
    "passwd", "passwdRef", "ping", "su", "suRef", "thttpd", "sshd", "sshdPrivsep",
)
CORPUS_KEY = "corpus:seed=0"


def _module_text(spec) -> str:
    module, _, _ = PrivAnalyzer().compile(spec)
    return print_module(module)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _current(key: str) -> str:
    if key != CORPUS_KEY:
        return _digest(_module_text(spec_by_name(key)))
    whole = hashlib.sha256()
    for entry in generate_corpus(CorpusSpec(seed=0, include_builtins=False)):
        whole.update(f"{entry.name}\n{_module_text(entry.spec())}\n".encode())
    return whole.hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize("key", TABLE_PROGRAMS + (CORPUS_KEY,))
def test_compiled_module_matches_golden(key):
    current = _current(key)
    if os.environ.get("UPDATE_GOLDEN"):
        golden = _golden()
        golden[key] = current
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden compile digest for {key} rewritten")
    assert _golden().get(key) == current, f"compiled IR of {key} changed"


def test_golden_keys_are_exactly_the_pinned_inputs():
    assert sorted(_golden()) == sorted(TABLE_PROGRAMS + (CORPUS_KEY,))
