"""Golden AutoPriv outputs for the paper's study programs.

One checked-in JSON per program under ``tests/golden/autopriv/`` — the
Table III programs plus their refactored Table V variants.  Each file
pins what :func:`repro.autopriv.transform_module` decides for the
program: every ``priv_remove`` insertion point and its removed set, the
entry sweep, the signal-handler-pinned set and the insertion count the
pipeline reports.  A change to the liveness analysis that moves a single
removal point shows up here as a readable diff.

Regenerate deliberately after a reviewed change with::

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_autopriv_golden.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.autopriv import transform_module
from repro.frontend import compile_source
from repro.programs import spec_by_name

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "autopriv"

GOLDEN_PROGRAMS = (
    "passwd",
    "passwdRef",
    "ping",
    "sshd",
    "sshdPrivsep",
    "su",
    "suRef",
    "thttpd",
)


def _current(program: str) -> dict:
    spec = spec_by_name(program)
    module = compile_source(spec.source, spec.name)
    report = transform_module(module, spec.permitted)
    return {
        "insertions": [
            [function, block, index, removed.describe()]
            for function, block, index, removed in report.insertions
        ],
        "entry_removed": report.entry_removed.describe(),
        "pinned": report.pinned.describe(),
        "insertion_count": report.insertion_count,
    }


@pytest.mark.parametrize("program", GOLDEN_PROGRAMS)
def test_transform_matches_golden(program):
    path = GOLDEN_DIR / f"{program}.json"
    current = _current(program)
    if os.environ.get("UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden AutoPriv output for {program} rewritten")
    assert path.exists(), (
        f"no golden AutoPriv output for {program}; generate with UPDATE_GOLDEN=1"
    )
    golden = json.loads(path.read_text())
    assert golden == current


def test_golden_set_is_exactly_the_study_programs():
    on_disk = sorted(p.stem for p in GOLDEN_DIR.glob("*.json"))
    assert on_disk == sorted(GOLDEN_PROGRAMS)
