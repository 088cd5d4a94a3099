"""The ROSA process pool: a batch's distinct searches on worker processes.

:meth:`repro.rosa.engine.QueryEngine.run_queries` hands its distinct
searches to :func:`run_pool` when the engine's ``jobs`` is above 1 and
more than one search is left.
Queries hold goal closures, which do not pickle, so every request
travels as its picklable ``spec`` and the worker rebuilds the query
(:func:`_run_spec_in_worker`).

When some collector on the engine's telemetry is live
(:func:`capsule_request`), each worker searches under a private
telemetry and returns a capsule beside its outcome, and :func:`run_pool`
merges it back: spans adopt into the session tracer
(clock-skew-normalized against the parent-side completion time, stamped
with ``worker`` + ``trace_id``), metrics fold in additively with
per-worker labeled variants, profile subtrees graft under
``("engine", "worker:N", "execute")``, and progress samples reattach to
the report.  :class:`Fleet` accumulates the per-worker accounting
behind the ledger's ``workers.json``.  With every collector dark the
workers search dark and ship bare outcomes.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
from typing import Any, Dict, List, Optional, Sequence

from repro.rewriting import ProgressSample, SearchBudget
from repro.rosa.query import RosaReport, check
from repro.telemetry.capsule import (
    CAPSULE_SCHEMA_VERSION,
    CapsuleCollector,
    CapsuleRequest,
    merge_capsule,
    normalize_worker,
)


def _run_spec_in_worker(
    spec,
    budget: SearchBudget,
    capsule_request: Optional[CapsuleRequest] = None,
):
    """Process-pool entry point: rebuild the query, search, return the essence.

    Without a capsule request (telemetry fully disabled) the worker
    searches dark and ships the bare
    :class:`~repro.rosa.engine.CachedOutcome`.  With one, the search
    runs under a private :class:`CapsuleCollector` and the return value
    is an ``(outcome, capsule)`` pair.
    """
    from repro.rosa.engine import CachedOutcome  # the engine imports this module

    if capsule_request is None:
        return CachedOutcome.from_report(check(spec.build(), budget))
    collector = CapsuleCollector(capsule_request)
    report = check(spec.build(), budget, telemetry=collector.telemetry)
    collector.observe_report(report)
    return CachedOutcome.from_report(report), collector.capsule()


def capsule_request(telemetry) -> Optional[CapsuleRequest]:
    """What pool workers should collect, or ``None`` for nothing.

    Derived from the parent session's live collectors: no tracer → no
    span collection, and so on.  When no collector is live (the default
    dark pipeline) this returns ``None`` and workers run the bare fast
    path — zero added overhead.  The audit trail never travels: a
    worker only searches, and the search never runs the kernel.
    """
    trace = telemetry.active
    profile = telemetry.profiler.enabled
    samples = trace or telemetry.progress is not None
    if not (trace or profile or samples):
        return None
    return CapsuleRequest(
        trace=trace,
        profile=profile,
        samples=samples,
        progress_interval=telemetry.progress_interval,
    )


class Fleet:
    """Per-worker capsule accounting across one engine's pool batches."""

    def __init__(self) -> None:
        #: Raw worker name → stable integer id, session-persistent so
        #: ``worker:N`` spellings agree across batches.
        self.worker_ids: Dict[str, int] = {}
        self._workers: Dict[str, Dict[str, Any]] = {}

    def record(
        self, worker: str, capsule, report: RosaReport, queue_wait: float,
        execute: float,
    ) -> None:
        """Accumulate one merged capsule into ``worker``'s totals."""
        stats = self._workers.get(worker)
        if stats is None:
            stats = self._workers[worker] = {
                "tasks": 0,
                "execute_seconds": 0.0,
                "queue_wait_seconds": 0.0,
                "states_explored": 0,
                "spans": 0,
                "samples": 0,
                "profile_records": 0,
                "names": [],
            }
        stats["tasks"] += 1
        stats["execute_seconds"] += execute
        stats["queue_wait_seconds"] += queue_wait
        stats["states_explored"] += report.states_explored
        stats["spans"] += len(capsule.spans)
        stats["samples"] += len(capsule.samples)
        stats["profile_records"] += len(capsule.profile)
        if capsule.worker not in stats["names"]:
            stats["names"].append(capsule.worker)

    def stats(self) -> Dict[str, Any]:
        """Per-worker accounting for ledgers and ``diff``.

        Empty until a pool batch has merged at least one capsule.  Keys
        are stable ``worker:N`` ids; ``names`` lists the raw ``pid:N``
        identities that mapped to each.
        """
        if not self._workers:
            return {}
        return {
            "capsule_schema": CAPSULE_SCHEMA_VERSION,
            "mode": "process",
            "workers": {
                worker: dict(stats) for worker, stats in sorted(self._workers.items())
            },
        }


def run_pool(engine, requests: Sequence, keys: Sequence) -> List[RosaReport]:
    """Answer distinct searches on a process pool; reports in request order.

    ``requests`` are :class:`~repro.rosa.engine.QueryRequest` s with
    their budgets resolved, each with a picklable ``spec``; ``keys`` are
    their canonical keys (a key is its capsule's trace id).  Scheduling
    is attributed per worker: the parent observes each future's
    submit-to-done window, and the capsule's own execute window splits
    it into queue wait and execute.
    """
    unbuildable = sum(request.spec is None for request in requests)
    if unbuildable:
        raise ValueError(
            "process-pool execution needs a picklable spec on every "
            f"request; {unbuildable} request(s) have none"
        )
    telemetry = engine.telemetry
    tracer = telemetry.tracer
    metrics = telemetry.metrics
    profiler = telemetry.profiler
    metrics.gauge("rosa.pool.workers").set_max(engine.jobs)
    wanted = capsule_request(telemetry)
    clock = profiler.clock if profiler.enabled else tracer.clock
    submit_time = clock() if wanted is not None else 0.0
    done_at = [0.0] * len(requests)
    with concurrent.futures.ProcessPoolExecutor(max_workers=engine.jobs) as executor:
        futures = [
            executor.submit(
                _run_spec_in_worker,
                request.spec,
                request.budget,
                # Trace-context propagation: the canonical query key is the
                # capsule's trace id, shared by every span the worker emits.
                None if wanted is None else dataclasses.replace(wanted, trace_id=key),
            )
            for request, key in zip(requests, keys)
        ]
        if wanted is not None:
            # Workers are separate processes; the scheduling thread can
            # only observe each future's submit-to-done wall time.  The
            # done timestamp is captured by callback (runs off-thread,
            # writes one float slot); it anchors capsule clock-skew
            # normalization and queue-wait attribution, both done here
            # afterwards.
            for position, future in enumerate(futures):
                future.add_done_callback(
                    lambda _future, position=position: done_at.__setitem__(
                        position, clock()
                    )
                )
        try:
            results = [future.result() for future in futures]
        except concurrent.futures.process.BrokenProcessPool as error:
            # A worker died (OOM kill, segfault-equivalent, SIGKILL).
            # The executor has already torn the pool down; surface a
            # diagnostic naming the batch instead of the bare broken-
            # pool error, so the caller knows which searches were in
            # flight and how to retry them.
            names = ", ".join(request.query.name or "?" for request in requests)
            count = len(requests)
            raise RuntimeError(
                f"ROSA process-pool worker crashed while answering "
                f"{count} quer{'y' if count == 1 else 'ies'} "
                f"({names}); no results were lost silently — rerun with "
                f"--jobs 1 (serial) to isolate the failing search"
            ) from error
    reports = []
    for position, (request, result) in enumerate(zip(requests, results)):
        outcome, capsule = (result, None) if wanted is None else result
        report = dataclasses.replace(outcome.to_report(request.query), from_cache=False)
        merged = False
        if capsule is not None:
            worker = normalize_worker(capsule.worker, engine.fleet.worker_ids)
            inflight = max(done_at[position] - submit_time, 0.0)
            execute = min(capsule.execute_seconds, inflight)
            queue_wait = inflight - execute
            profiler.account(("engine", worker, "queue_wait"), queue_wait)
            profiler.account(("engine", worker, "execute"), execute)
            merged = merge_capsule(
                capsule,
                worker=worker,
                tracer=tracer if telemetry.active else None,
                metrics=metrics,
                profiler=profiler,
                anchor=done_at[position],
            )
            if merged:
                # Reports cross the pool as bare outcomes; rebuild the
                # worker's sampled progress tail.
                report.stats.samples.extend(
                    ProgressSample(**sample) for sample in capsule.samples
                )
                engine.fleet.record(worker, capsule, report, queue_wait, execute)
        if not (merged and capsule.spans):
            # No adopted worker spans to show for this search (a dark
            # worker, schema skew, or tracing disabled in the worker):
            # record the synthetic span here so batched runs stay
            # observable (verdict + cost attributes).
            with tracer.span(
                "rosa.query", query=request.query.name, parallel="process"
            ) as span:
                span.set_attribute("verdict", report.verdict.value)
                span.set_attribute("states_seen", report.states_seen)
                span.set_attribute("states_explored", report.states_explored)
                span.set_attribute("peak_frontier", report.stats.peak_frontier)
        reports.append(report)
    return reports
