"""The conformance testkit: seeded generators, differential oracles,
metamorphic properties, fault injection, and the fuzz campaign driver.

PRs 2–3 introduced several "must be bit-identical" equivalences:

* query-cache **on vs off** must never change a verdict;
* the VM's **compiled core vs straight-line reference** evaluation must
  retire the same instructions to the same final kernel state;
* a run **ledger** written, read back and diffed against itself must be
  clean.

Each was checked by a handful of hand-written cases; this package checks
them against *generated* inputs instead.  Everything is seeded
(``random.Random(seed)``, no third-party dependency): the same seed
always produces the same programs, configurations and queries, so every
failure is replayable from one small JSON file.

Modules:

* :mod:`repro.testkit.generators` — seeded case generators (PrivC
  programs, ROSA configurations, capability/credential tuples, attack
  query batches, kernel syscall traces) plus the case→input builders;
* :mod:`repro.testkit.reference` — independent reference
  implementations (the straight-line VM evaluator);
* :mod:`repro.testkit.oracles` — the differential oracles and the
  metamorphic properties, each a named family;
* :mod:`repro.testkit.shrink` — the greedy case shrinker;
* :mod:`repro.testkit.faults` — artificial bug injection, to prove the
  oracles actually detect the class of bug they exist for;
* :mod:`repro.testkit.fuzz` — the campaign driver behind
  ``privanalyzer fuzz`` (runs, shrinking, repro files, replay).

See ``docs/TESTING.md`` for the workflow.
"""

from repro.testkit.fuzz import (
    CampaignResult,
    load_repro,
    replay_repro,
    run_campaign,
    write_repro,
)
from repro.testkit.oracles import ALL_FAMILIES, DEFAULT_FAMILIES, OracleResult, family
from repro.testkit.shrink import greedy_shrink

__all__ = [
    "ALL_FAMILIES",
    "CampaignResult",
    "DEFAULT_FAMILIES",
    "OracleResult",
    "family",
    "greedy_shrink",
    "load_repro",
    "replay_repro",
    "run_campaign",
    "write_repro",
]
