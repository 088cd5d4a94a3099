"""Chrome trace-event / Perfetto JSON export of finished spans.

The trace-event format (the ``chrome://tracing`` JSON schema, which
Perfetto's UI and ``trace_processor`` ingest directly) is an array of
event objects.  We emit:

* one ``ph: "M"`` *metadata* event naming the process, so viewers show
  ``privanalyzer`` instead of ``pid 1``;
* one ``ph: "X"`` *complete* event per finished span — ``ts``/``dur``
  are **microseconds** (the format's unit), span attributes travel in
  ``args``;
* optionally one ``ph: "C"`` *counter* event per counter/gauge metric,
  stamped at the end of the trace, so the registry's final readings
  render as counter tracks alongside the spans.

Every span shares one ``pid``/``tid``: the pipeline is single-threaded
and complete events nest by their timestamps, so the viewer rebuilds the
same tree ``render_span_tree`` prints.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer

#: The trace-event clock unit is microseconds.
_MICROSECONDS = 1_000_000.0


def spans_to_trace_events(
    tracer: Tracer,
    metrics: Optional[MetricsRegistry] = None,
    pid: int = 1,
    tid: int = 1,
    process_name: str = "privanalyzer",
) -> List[Dict[str, Any]]:
    """Finished spans (and final metric readings) as trace-event dicts."""
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": process_name},
        }
    ]
    trace_end = 0.0
    for span in tracer.finished:
        end = span.end if span.end is not None else span.start
        if end > trace_end:
            trace_end = end
        events.append(
            {
                "name": span.name,
                "cat": "pipeline",
                "ph": "X",
                "ts": span.start * _MICROSECONDS,
                "dur": span.duration * _MICROSECONDS,
                "pid": pid,
                "tid": tid,
                "args": dict(span.attributes),
            }
        )
    if metrics is not None:
        for name, snapshot in metrics.snapshot().items():
            if snapshot["type"] not in ("counter", "gauge"):
                continue  # histograms have no single track value
            events.append(
                {
                    "name": name,
                    "cat": "metrics",
                    "ph": "C",
                    "ts": trace_end * _MICROSECONDS,
                    "pid": pid,
                    "tid": tid,
                    "args": {"value": snapshot["value"]},
                }
            )
    return events


def trace_event_json(
    tracer: Tracer,
    metrics: Optional[MetricsRegistry] = None,
    pid: int = 1,
    tid: int = 1,
    process_name: str = "privanalyzer",
) -> str:
    """The trace as one JSON array — the file a trace viewer opens.

    Non-JSON attribute values degrade to their ``repr``, mirroring
    :func:`repro.telemetry.export.spans_to_jsonl`.
    """
    events = spans_to_trace_events(
        tracer, metrics, pid=pid, tid=tid, process_name=process_name
    )
    return json.dumps(events, sort_keys=True, default=repr)
