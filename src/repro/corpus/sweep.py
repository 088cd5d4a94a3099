"""The corpus sweep: profile every entry, incrementally, optionally pooled.

Per entry: compute the content address (:func:`repro.corpus.profile.
profile_key`), consult the :class:`~repro.corpus.store.ProfileStore`,
and only on a miss run the full pipeline — with a *private* audited
telemetry bundle so the dynamic syscall surface lands in the profile —
then cache the result.  A warm rerun over an unchanged corpus therefore
profiles nothing.

``--jobs N`` fans cache misses over a pool of N worker processes.  Workers
receive only picklable payloads: generated entries ship their
case dict, built-ins and exemplars ship just their *name* and are
rebuilt via ``spec_by_name`` inside the worker (specs carry setup
callables that don't pickle).  Results are keyed back by name, so the
sweep's output order — and every downstream cluster — is independent of
pool scheduling.

Telemetry: ``rosa.corpus.programs`` / ``rosa.corpus.cache_hits`` /
``rosa.corpus.profiled`` counters and a ``corpus.sweep`` span (one
``corpus.profile`` child per miss in serial mode) on the caller's
bundle.
"""

from __future__ import annotations

import concurrent.futures
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import PrivAnalyzer
from repro.corpus.build import CorpusEntry
from repro.corpus.profile import (
    PrivilegeProfile,
    profile_from_analysis,
    profile_key,
)
from repro.corpus.store import ProfileStore
from repro.programs import spec_by_name
from repro.rewriting import SearchBudget
from repro.telemetry import SyscallAuditTrail, Telemetry

#: The sweep's default per-program search budget — matches the fuzz
#: harness's: generous for these small programs, bounded for CI.
DEFAULT_SWEEP_BUDGET = SearchBudget(max_states=20_000, max_seconds=10.0)


def _entry_payload(
    entry: CorpusEntry,
    budget: SearchBudget,
    verdict_store: Optional[str] = None,
) -> Dict[str, Any]:
    """A picklable description a pool worker can rebuild the task from."""
    return {
        "name": entry.name,
        "kind": entry.kind,
        "case": entry.case,
        "max_states": budget.max_states,
        "max_seconds": budget.max_seconds,
        "verdict_store": verdict_store,
    }


def _profile_task(payload: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """Analyze one program and extract its profile (pool worker body).

    Module-level and payload-driven so it pickles into process workers;
    each call builds its own analyzer and audited telemetry, so pooled
    tasks never share mutable state.  A ``verdict_store`` path in the
    payload opens the fleet-wide shared store in the worker: distinct
    ROSA searches across all sweep workers (and any concurrent server)
    run exactly once fleet-wide.
    """
    if payload["kind"] == "generated":
        from repro.testkit.generators import build_program_spec

        spec = build_program_spec(payload["case"], name=payload["name"])
    else:
        spec = spec_by_name(payload["name"])
    budget = SearchBudget(
        max_states=payload["max_states"], max_seconds=payload["max_seconds"]
    )
    # Only the audit trail is read (for the dynamic surface), so it is
    # the only collector turned on.
    telemetry = Telemetry(audit=SyscallAuditTrail())
    analyzer = PrivAnalyzer(
        budget=budget,
        telemetry=telemetry,
        verdict_store=payload.get("verdict_store"),
    )
    analysis = analyzer.analyze(spec)
    profile = profile_from_analysis(analysis, audit=telemetry.audit)
    return payload["name"], profile.to_dict()


def sweep_corpus(
    entries: Sequence[CorpusEntry],
    store: Optional[ProfileStore] = None,
    jobs: int = 1,
    mode: str = "process",
    budget: SearchBudget = DEFAULT_SWEEP_BUDGET,
    telemetry: Optional[Telemetry] = None,
    verdict_store: Optional[str] = None,
) -> List[PrivilegeProfile]:
    """Profiles for every corpus entry, in entry order.

    ``store=None`` disables caching (every entry is profiled live).
    ``jobs`` > 1 profiles the cache misses on that many worker processes;
    ``mode="serial"`` ignores ``jobs``.
    ``verdict_store`` (a directory path) additionally backs every
    worker's query engine with the fleet-wide shared verdict store —
    profile-cache misses still rerun the pipeline, but their ROSA
    searches are served for every (phase × attack) pair the fleet has
    already answered.
    """
    if mode not in ("serial", "process"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    pooled = jobs > 1 and mode == "process"
    telemetry = telemetry or Telemetry.disabled()
    programs = telemetry.metrics.counter("rosa.corpus.programs")
    cache_hits = telemetry.metrics.counter("rosa.corpus.cache_hits")
    profiled = telemetry.metrics.counter("rosa.corpus.profiled")

    with telemetry.tracer.span(
        "corpus.sweep", entries=len(entries), mode="process" if pooled else "serial"
    ):
        results: Dict[str, PrivilegeProfile] = {}
        keys: Dict[str, str] = {}
        misses: List[CorpusEntry] = []
        for entry in entries:
            programs.inc()
            if store is not None:
                key = profile_key(entry.spec(), budget=budget)
                keys[entry.name] = key
                cached = store.get(key)
                if cached is not None:
                    cache_hits.inc()
                    results[entry.name] = cached
                    continue
            misses.append(entry)

        if misses:
            if not pooled:
                produced = []
                for entry in misses:
                    with telemetry.tracer.span("corpus.profile", program=entry.name):
                        produced.append(_profile_task(_entry_payload(entry, budget, verdict_store)))
            else:
                payloads = [
                    _entry_payload(entry, budget, verdict_store)
                    for entry in misses
                ]
                with telemetry.tracer.span(
                    "corpus.profile.pool", tasks=len(payloads), workers=jobs
                ):
                    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                        produced = list(pool.map(_profile_task, payloads))
            for name, data in produced:
                profiled.inc()
                profile = PrivilegeProfile.from_dict(data)
                results[name] = profile
                if store is not None:
                    store.put(keys[name], profile)

    return [results[entry.name] for entry in entries]
