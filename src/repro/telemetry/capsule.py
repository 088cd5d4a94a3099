"""Telemetry capsules: fleet observability across pool workers.

The query engine fans distinct ROSA searches out over a process pool
(:mod:`repro.rosa.pool`), and before this module those workers
searched dark — spans, metrics, hot-path profiles and progress samples
never crossed the pool boundary.  A :class:`TelemetryCapsule` is the
fix: each worker runs its search under its own private
:class:`~repro.telemetry.Telemetry` (built by :class:`CapsuleCollector`)
and returns one compact, schema-versioned, picklable capsule alongside
its result; the parent session folds every capsule back in with
:func:`merge_capsule`.  A worker only searches, and the search never
runs the simulated kernel, so there is no audit trail to ship.

Design points:

* **picklable by construction** — a capsule is plain data (dicts, lists,
  numbers, strings); spans travel as
  :func:`~repro.telemetry.export.span_to_dict` dicts, profiles as
  exported record rows, metrics as registry snapshots.  Nothing in it
  references live tracer/kernel objects.
* **clock-skew normalization** — worker clocks are not the parent's
  clock.  The merge anchors a capsule by the parent-side completion
  timestamp: ``offset = anchor - capsule.clock_end`` shifts every worker
  span into the parent clock domain.
* **trace-context propagation** — the engine stamps each capsule with
  the canonical query key as its ``trace_id``; merged spans carry it
  plus a ``worker`` attribute, which is what gives each worker its own
  track in the Perfetto export (:mod:`repro.telemetry.trace_event`).
* **schema-versioned** — a capsule whose ``schema`` is not
  :data:`CAPSULE_SCHEMA_VERSION` is skipped (never half-merged) and the
  skew surfaces as the ``rosa.capsule.schema_skew`` counter.

:func:`worker_index` / :func:`normalize_worker` turn raw worker names
(``pid:N``) into the stable ``worker:N`` ids every downstream surface
keys on — profiler stacks, Perfetto tracks, metric labels and the
ledger's per-worker section.
"""

from __future__ import annotations

import dataclasses
import logging
import os
from typing import Any, Dict, List, Optional

from repro.telemetry.clock import Clock, MONOTONIC
from repro.telemetry.export import span_to_dict
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiler import NULL_PROFILER, Profiler
from repro.telemetry.tracing import Tracer

logger = logging.getLogger("repro.telemetry.capsule")

#: Bump when the capsule layout changes; the parent refuses to merge
#: capsules written under another version (a mixed-version pool, e.g.
#: during a rolling deploy of the analysis service, must not corrupt the
#: parent session's telemetry).  Version 2: capsules lost the audit ring.
CAPSULE_SCHEMA_VERSION = 2

#: The :class:`~repro.rewriting.ProgressSample` fields a capsule carries.
#: Kept as an explicit tuple so the telemetry layer never imports the
#: rewriting layer; the engine reconstructs samples from these dicts.
SAMPLE_FIELDS = (
    "states_explored",
    "states_seen",
    "frontier",
    "depth",
    "elapsed",
    "states_per_second",
    "budget_used",
)

#: Per-capsule cap on retained progress samples.  Workers see every
#: sample live; the capsule keeps an endpoint-preserving decimation so
#: pickling cost stays bounded however long the search ran.
MAX_CAPSULE_SAMPLES = 64


# -- worker identity ----------------------------------------------------------


def worker_index(name: str, assigned: Dict[str, int]) -> int:
    """The stable integer id for one raw worker name.

    Every name (a process worker's ``pid:4242``, ``MainThread``) gets
    the first unused integer, in first-seen order.  ``assigned`` is the
    caller's persistent name→index map, so ids are stable across
    batches of one session.
    """
    index = assigned.get(name)
    if index is not None:
        return index
    used = set(assigned.values())
    index = 0
    while index in used:
        index += 1
    assigned[name] = index
    return index


def normalize_worker(name: str, assigned: Dict[str, int]) -> str:
    """``worker:N`` for one raw worker name (see :func:`worker_index`)."""
    return f"worker:{worker_index(name, assigned)}"


def worker_label(worker: str) -> str:
    """The metric label value for a ``worker:N`` id (the bare ``N``)."""
    return worker.split(":", 1)[1] if ":" in worker else worker


# -- the capsule --------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CapsuleRequest:
    """Picklable instructions telling a worker what to collect.

    The engine derives one per batch from its live collectors (no
    tracer → no span collection, and so on), then stamps each
    submission's copy with the query's canonical key as ``trace_id``.
    ``progress_interval`` is the parent's sampling cadence (``None``:
    the search's default).
    """

    trace: bool = True
    profile: bool = False
    samples: bool = False
    progress_interval: Optional[int] = None
    trace_id: Optional[str] = None
    max_samples: int = MAX_CAPSULE_SAMPLES


@dataclasses.dataclass
class TelemetryCapsule:
    """One worker's telemetry for one search, as plain picklable data."""

    schema: int
    #: Raw worker identity (``pid:N``); the parent
    #: normalizes it to a stable ``worker:N`` id at merge time.
    worker: str
    pid: int
    #: Worker-clock readings bracketing the search (build + check).
    clock_start: float
    clock_end: float
    #: Trace-context id — the engine's canonical query key.
    trace_id: Optional[str] = None
    #: Finished spans as :func:`~repro.telemetry.export.span_to_dict` dicts.
    spans: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    #: The worker registry's :meth:`~MetricsRegistry.snapshot`.
    metrics: Dict[str, Dict[str, Any]] = dataclasses.field(default_factory=dict)
    #: Exported profiler rows (see :meth:`Profiler.export_records`).
    profile: List[List[Any]] = dataclasses.field(default_factory=list)
    #: Bounded progress samples as :data:`SAMPLE_FIELDS` dicts.
    samples: List[Dict[str, Any]] = dataclasses.field(default_factory=list)

    @property
    def execute_seconds(self) -> float:
        """Worker-side wall time, immune to cross-process clock skew."""
        return max(self.clock_end - self.clock_start, 0.0)


class CapsuleCollector:
    """The worker-side collector set behind one capsule.

    Builds one private :attr:`telemetry` holding exactly the collectors
    the request asks for — tracer, profiler, a bounded progress buffer —
    plus a metrics registry, all on one injectable clock.  The worker
    runs its search under that telemetry, then calls :meth:`capsule` to
    pack everything for the trip home.
    """

    def __init__(
        self,
        request: CapsuleRequest,
        clock: Clock = MONOTONIC,
        worker: Optional[str] = None,
    ) -> None:
        from repro.telemetry import Telemetry  # the package imports this module

        self.request = request
        self.clock = clock
        self.worker = worker or f"pid:{os.getpid()}"
        self.clock_start = clock()
        self._samples: Optional[List[Dict[str, Any]]] = (
            [] if request.samples else None
        )
        self.telemetry = Telemetry(
            tracer=Tracer(clock=clock, enabled=request.trace),
            profiler=Profiler(clock=clock) if request.profile else NULL_PROFILER,
            progress=self.on_sample if request.samples else None,
            progress_interval=request.progress_interval,
        )

    def on_sample(self, sample) -> None:
        """Record one progress reading, decimating beyond ``max_samples``."""
        samples = self._samples
        if samples is None:
            return
        samples.append({field: getattr(sample, field) for field in SAMPLE_FIELDS})
        if len(samples) > self.request.max_samples:
            # Endpoint-preserving decimation, mirroring the search's own
            # retention policy: halve the interior, keep first and last.
            del samples[1:-1:2]

    def observe_report(self, report) -> None:
        """Fold one search report's counters into the worker registry."""
        metrics = self.telemetry.metrics
        metrics.counter("rosa.worker.queries").inc()
        metrics.counter("rosa.worker.states_explored").inc(report.states_explored)

    def capsule(self) -> TelemetryCapsule:
        """Pack everything collected so far into one picklable capsule."""
        telemetry = self.telemetry
        return TelemetryCapsule(
            schema=CAPSULE_SCHEMA_VERSION,
            worker=self.worker,
            pid=os.getpid(),
            clock_start=self.clock_start,
            clock_end=self.clock(),
            trace_id=self.request.trace_id,
            spans=[span_to_dict(span) for span in telemetry.tracer.finished],
            metrics=telemetry.metrics.snapshot(),
            profile=telemetry.profiler.export_records(),
            samples=list(self._samples) if self._samples else [],
        )


# -- merging ------------------------------------------------------------------


def merge_capsule(
    capsule: TelemetryCapsule,
    *,
    worker: str,
    anchor: float,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    profiler: Optional[Profiler] = None,
) -> bool:
    """Fold one worker capsule into the parent session's collectors.

    ``worker`` is the normalized ``worker:N`` id.  ``anchor`` is the
    parent-clock timestamp at which the worker's result arrived; the
    capsule's spans shift by ``anchor - capsule.clock_end`` into the
    parent clock domain.  Span adoption hangs worker roots under the
    parent tracer's innermost open span and stamps every adopted span
    with ``worker`` (the Perfetto track key) and the capsule's
    ``trace_id``.  Metrics merge additively into both the base
    instrument and a ``name{worker="N"}`` labeled variant; profile
    records graft under ``("engine", worker, "execute")`` with a derived
    ``capsule.overhead`` remainder frame so worker attribution coverage
    stays complete.

    Returns ``False`` (and merges nothing) on schema skew.
    """
    if capsule.schema != CAPSULE_SCHEMA_VERSION:
        logger.warning(
            "skipping telemetry capsule from %s: schema %r, want %d",
            capsule.worker, capsule.schema, CAPSULE_SCHEMA_VERSION,
        )
        if metrics is not None:
            metrics.counter("rosa.capsule.schema_skew").inc()
        return False
    offset = anchor - capsule.clock_end
    if tracer is not None and tracer.enabled and capsule.spans:
        stamp: Dict[str, Any] = {"worker": worker}
        if capsule.trace_id is not None:
            stamp["trace_id"] = capsule.trace_id
        tracer.adopt_spans(capsule.spans, offset=offset, attributes=stamp)
    if metrics is not None and capsule.metrics:
        metrics.merge_snapshot(
            capsule.metrics, labels={"worker": worker_label(worker)}
        )
        metrics.counter("rosa.capsule.merged").inc()
    if profiler is not None and profiler.enabled and capsule.profile:
        under = ("engine", worker, "execute")
        profiler.graft(capsule.profile, under)
        # The worker's profile roots cover the search itself; whatever
        # the capsule's execute window spent outside them (query build,
        # capsule assembly) becomes one derived remainder
        # frame, so the worker's execute time stays fully attributed.
        rooted = sum(row[2] for row in capsule.profile if len(row[0]) == 1)
        overhead = capsule.execute_seconds - rooted
        if overhead > 0.0:
            profiler.account(under + ("capsule.overhead",), overhead)
    return True
