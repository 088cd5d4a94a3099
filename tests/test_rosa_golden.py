"""Golden ROSA search counters for the paper's Table III/V programs.

One checked-in JSON per program under ``tests/golden/rosa/``.  Each
(phase, attack) query of the program is searched under the golden budget,
and the file pins what the search decides and what it costs in states:
the verdict, the witness labels, ``states_explored``, ``states_seen``,
the dedup, frontier and depth counters, and the content digest of the
initial configuration.  A change to the rewriting layer or the rules
that moves a single state shows up here as a named cell.

The query cache key is deliberately not pinned: it binds the model's
source code, so it changes with every edit to the searched modules.

Regenerate deliberately after a reviewed change with::

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_rosa_golden.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.core.extract import syscalls_used
from repro.core.pipeline import PrivAnalyzer
from repro.programs import spec_by_name
from repro.rewriting import SearchBudget
from repro.rosa.keys import _config_digest
from repro.rosa.query import check

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "rosa"

#: The paper's study set: the Table III programs and their Table V
#: refactored counterparts.
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

BUDGET = SearchBudget(max_states=20_000, max_seconds=10.0)


def _search_record(report, digest: str) -> dict:
    stats = report.stats
    return {
        "verdict": report.verdict.value,
        "witness": list(report.witness),
        "states_explored": report.states_explored,
        "states_seen": report.states_seen,
        "dedup_hits": stats.dedup_hits,
        "peak_frontier": stats.peak_frontier,
        "max_depth": stats.max_depth,
        "initial_digest": digest,
    }


def _current_counters(program: str) -> dict:
    """``{"<phase>/attack<N>": record}`` for every query of ``program``."""
    spec = spec_by_name(program)
    analyzer = PrivAnalyzer(budget=BUDGET)
    module, _, _ = analyzer.compile(spec)
    chrono, exit_code, _ = analyzer.run_dynamic(spec, module)
    assert exit_code == spec.expected_exit
    program_syscalls = syscalls_used(module)
    searched = {}
    counters = {}
    for phase in chrono.phases:
        for attack in analyzer.attacks:
            label = f"{phase.name}/attack{attack.attack_id}"
            query = attack.build_query(
                phase.privileges, phase.uids, phase.gids, program_syscalls, label=label
            )
            digest = _config_digest(query.initial).hex()
            # Phases sharing a credential tuple ask the same question;
            # search it once, as the engine's batch dedup does.
            identity = (attack.attack_id, digest)
            if identity not in searched:
                searched[identity] = check(query, BUDGET)
            counters[label] = _search_record(searched[identity], digest)
    return counters


@pytest.mark.parametrize("program", GOLDEN_PROGRAMS)
def test_search_counters_match_golden(program):
    path = GOLDEN_DIR / f"{program}.json"
    current = _current_counters(program)
    if os.environ.get("UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden search counters for {program} rewritten")
    assert path.exists(), (
        f"no golden search counters for {program}; generate with UPDATE_GOLDEN=1"
    )
    golden = json.loads(path.read_text())
    assert sorted(golden) == sorted(current), "the (phase, attack) queries moved"
    drift = [
        f"  {label}.{field}: golden={golden[label][field]!r} "
        f"current={current[label].get(field)!r}"
        for label in sorted(golden)
        for field in sorted(golden[label])
        if golden[label][field] != current[label].get(field)
    ]
    assert not drift, f"ROSA search counters for {program} drifted:\n" + "\n".join(drift)


def test_golden_set_is_exactly_the_study_programs():
    on_disk = sorted(p.stem for p in GOLDEN_DIR.glob("*.json"))
    assert on_disk == sorted(GOLDEN_PROGRAMS)
