"""Prometheus text exposition of a :class:`MetricsRegistry`.

Renders every instrument in the `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ a
Prometheus scraper (or ``promtool check metrics``) accepts:

* counters become ``<ns>_<name>_total`` with ``# TYPE ... counter``;
* gauges become ``<ns>_<name>`` with ``# TYPE ... gauge``;
* histograms (streaming Welford aggregates, no buckets) become a
  ``summary`` pair ``_count``/``_sum`` plus ``_min``/``_max`` gauges —
  everything the snapshot retains.

Metric names are sanitised to the ``[a-zA-Z_:][a-zA-Z0-9_:]*`` grammar
(dots in our dotted names become underscores) and prefixed with a
namespace, ``privanalyzer`` by default.
"""

from __future__ import annotations

import math
import re
from typing import List, Union

from repro.telemetry.metrics import MetricsRegistry

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str, namespace: str = "privanalyzer") -> str:
    """Sanitise one dotted metric name into the Prometheus grammar."""
    safe = _INVALID_CHARS.sub("_", name)
    if namespace:
        safe = f"{namespace}_{safe}"
    if not safe or not (safe[0].isalpha() or safe[0] in "_:"):
        safe = "_" + safe
    return safe


def _escape_help(text: str) -> str:
    """HELP text per the exposition format: escape backslash and newline."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: Union[int, float]) -> str:
    """One sample value, with the format's spellings for the specials."""
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        return repr(value)
    return str(value)


def metrics_to_prometheus(
    metrics: MetricsRegistry, namespace: str = "privanalyzer"
) -> str:
    """The whole registry in text exposition format (empty registry → '')."""
    lines: List[str] = []

    def header(family: str, kind: str, help_text: str) -> None:
        lines.append(f"# HELP {family} {_escape_help(help_text)}")
        lines.append(f"# TYPE {family} {kind}")

    def series(family: str, kind: str, value, help_text: str) -> None:
        header(family, kind, help_text)
        lines.append(f"{family} {_format_value(value)}")

    for name, snapshot in metrics.snapshot().items():
        base = prometheus_name(name, namespace)
        if snapshot["type"] == "counter":
            series(f"{base}_total", "counter", snapshot["value"], name)
        elif snapshot["type"] == "gauge":
            series(base, "gauge", snapshot["value"], name)
        else:  # histogram → summary (_sum/_count) plus min/max gauges
            # Canonical summary series order: _sum then _count.
            header(base, "summary", name)
            lines.append(f"{base}_sum {_format_value(snapshot['sum'])}")
            lines.append(f"{base}_count {_format_value(snapshot['count'])}")
            series(f"{base}_min", "gauge", snapshot["min"], f"{name} minimum")
            series(f"{base}_max", "gauge", snapshot["max"], f"{name} maximum")
    return "\n".join(lines) + "\n" if lines else ""
