"""Zero-dependency observability for the PrivAnalyzer reproduction.

Three pillars (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.telemetry.tracing` — nested span tracing with a no-op fast
  path, exported as JSONL or a human-readable tree;
* :mod:`repro.telemetry.metrics` — counters / gauges / histograms in a
  flat named registry (VM instruction counts, syscall dispatches, ROSA
  search costs, AutoPriv pass timings);
* :mod:`repro.telemetry.audit` — a ring-buffer syscall audit trail on
  the simulated kernel, the raw material for seccomp-style policy
  extraction.

:class:`Telemetry` bundles all three with the hot-path profiler
(:mod:`repro.telemetry.profiler`) and the live search-progress callback;
the pipeline, query engine, search and CLI all read their
collectors from one.  ``Telemetry.disabled()`` is the default everywhere
and costs nothing on hot paths.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.telemetry.audit import AuditRecord, SyscallAuditTrail
from repro.telemetry.clock import Clock, ManualClock, MONOTONIC
from repro.telemetry.export import (
    metrics_to_jsonl,
    render_metrics,
    render_profile,
    render_progress,
    render_span_tree,
    span_to_dict,
    spans_from_jsonl,
    spans_to_jsonl,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.profiler import (
    NULL_PROFILER,
    PROFILE_SCHEMA_VERSION,
    ProfileRecord,
    Profiler,
)
from repro.telemetry.prometheus import metrics_to_prometheus, prometheus_name
from repro.telemetry.trace_event import spans_to_trace_events, trace_event_json
from repro.telemetry.tracing import NULL_TRACER, Span, Tracer


@dataclasses.dataclass
class Telemetry:
    """Everything one pipeline run records, behind one handle.

    Every collector defaults to dark, so ``Telemetry(profiler=p)`` is a
    run that profiles and records nothing else.
    """

    tracer: Tracer = dataclasses.field(
        default_factory=lambda: Tracer(enabled=False)
    )
    metrics: MetricsRegistry = dataclasses.field(default_factory=MetricsRegistry)
    audit: Optional[SyscallAuditTrail] = None
    #: Hot-path attribution (per rewrite rule, VM opcode, engine step);
    #: the shared disabled profiler reads no clock.
    profiler: Profiler = NULL_PROFILER
    #: Called with every :class:`~repro.rewriting.ProgressSample` a live
    #: search takes.
    progress: Optional[Callable] = None
    #: Expansions between two progress samples; ``None`` keeps the
    #: search's own default (:data:`repro.rewriting.PROGRESS_INTERVAL`).
    progress_interval: Optional[int] = None

    @property
    def active(self) -> bool:
        """True when spans are actually being recorded."""
        return self.tracer.enabled

    @classmethod
    def enabled(
        cls,
        clock: Clock = MONOTONIC,
        audit: bool = False,
        audit_capacity: int = 4096,
    ) -> "Telemetry":
        """A fully live bundle; ``audit=True`` adds the syscall recorder."""
        metrics = MetricsRegistry()
        return cls(
            tracer=Tracer(clock=clock),
            metrics=metrics,
            audit=SyscallAuditTrail(
                capacity=audit_capacity, clock=clock, metrics=metrics
            )
            if audit
            else None,
        )

    @classmethod
    def disabled(cls) -> "Telemetry":
        """The default: span calls are no-ops, nothing else is wired."""
        return cls()


__all__ = [
    "AuditRecord",
    "Clock",
    "Counter",
    "Gauge",
    "Histogram",
    "ManualClock",
    "MetricsRegistry",
    "MONOTONIC",
    "NULL_PROFILER",
    "NULL_TRACER",
    "PROFILE_SCHEMA_VERSION",
    "ProfileRecord",
    "Profiler",
    "Span",
    "SyscallAuditTrail",
    "Telemetry",
    "Tracer",
    "metrics_to_jsonl",
    "metrics_to_prometheus",
    "prometheus_name",
    "render_metrics",
    "render_profile",
    "render_progress",
    "render_span_tree",
    "span_to_dict",
    "spans_from_jsonl",
    "spans_to_jsonl",
    "spans_to_trace_events",
    "trace_event_json",
]
